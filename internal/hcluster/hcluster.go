// Package hcluster implements the constrained agglomerative hierarchical
// clustering at the heart of traffic-skeleton inference (§5.1).
//
// RNICs are grouped by the similarity of their traffic-burst STFT
// fingerprints; RNICs landing in the same group are inferred to occupy
// the same position across different data-parallel (DP) replicas. The
// paper constrains the grouping (Eq. 1–3):
//
//  1. minimize the variance of group sizes (every training pipeline has
//     the same scale, TP×PP);
//  2. the mean group size must divide the total RNIC count N;
//  3. RNICs on the same host must not share a group (same-host peers
//     communicate over NVLink and belong to the same DP replica).
//
// The implementation performs average-linkage agglomeration honouring
// constraint 3 during merging, selects the cut whose group count is
// compatible with constraint 2 using the merge-distance gap criterion,
// and then rebalances group sizes to satisfy constraints 1–2 exactly.
package hcluster

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Item is one clusterable object: an opaque index plus the host it
// resides on (empty Host disables constraint 3 for that item).
type Item struct {
	ID   int
	Host string
}

// DistFunc returns the dissimilarity between items i and j (by index
// into the item slice). It must be symmetric and non-negative.
type DistFunc func(i, j int) float64

// Result is a clustering outcome: Groups[g] lists item indices.
type Result struct {
	Groups [][]int
	// CutDistance is the linkage distance at which the dendrogram was
	// cut; useful for diagnosing whether classes were well separated.
	CutDistance float64
}

// GroupSizeVariance computes Eq. 1: the variance of group sizes around
// their mean.
func GroupSizeVariance(groups [][]int) float64 {
	if len(groups) == 0 {
		return 0
	}
	mean := 0.0
	for _, g := range groups {
		mean += float64(len(g))
	}
	mean /= float64(len(groups))
	var v float64
	for _, g := range groups {
		d := float64(len(g)) - mean
		v += d * d
	}
	return v / float64(len(groups))
}

var errNoItems = errors.New("hcluster: no items")

// Options tunes the clustering.
type Options struct {
	// Unconstrained disables constraints 2 and 3 (used by the ablation
	// benchmark to quantify what the constraints buy).
	Unconstrained bool
}

type cluster struct {
	members []int
	hosts   map[string]int // host → member count, for constraint 3
	active  bool
}

// Cluster groups n items using average linkage under the paper's
// constraints. dist is consulted on demand; it is called O(n²) times.
func Cluster(items []Item, dist DistFunc, opts Options) (Result, error) {
	n := len(items)
	if n == 0 {
		return Result{}, errNoItems
	}
	if n == 1 {
		return Result{Groups: [][]int{{0}}}, nil
	}

	// Pairwise distance matrix (symmetric, computed once).
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := dist(i, j)
			if v < 0 || math.IsNaN(v) {
				return Result{}, fmt.Errorf("hcluster: invalid distance %v between %d and %d", v, i, j)
			}
			d[i][j] = v
			d[j][i] = v
		}
	}

	clusters := make([]*cluster, n)
	for i := range clusters {
		c := &cluster{members: []int{i}, hosts: map[string]int{}, active: true}
		if h := items[i].Host; h != "" {
			c.hosts[h] = 1
		}
		clusters[i] = c
	}
	// linkage[i][j]: average-linkage distance between clusters i and j.
	linkage := make([][]float64, n)
	for i := range linkage {
		linkage[i] = append([]float64(nil), d[i]...)
	}
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = 1
	}

	hostsConflict := func(a, b *cluster) bool {
		small, large := a, b
		if len(small.hosts) > len(large.hosts) {
			small, large = large, small
		}
		for h := range small.hosts {
			if large.hosts[h] > 0 {
				return true
			}
		}
		return false
	}

	var steps []mergeStep
	// Snapshots of the partition at each group count (for cutting).
	snapshots := map[int][][]int{}
	takeSnapshot := func(k int) {
		var gs [][]int
		for _, c := range clusters {
			if c.active {
				gs = append(gs, append([]int(nil), c.members...))
			}
		}
		snapshots[k] = gs
	}
	takeSnapshot(n)

	activeCount := n
	for activeCount > 1 {
		// Find the closest mergeable pair.
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !clusters[i].active {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !clusters[j].active {
					continue
				}
				if linkage[i][j] >= best {
					continue
				}
				if !opts.Unconstrained && hostsConflict(clusters[i], clusters[j]) {
					continue
				}
				bi, bj, best = i, j, linkage[i][j]
			}
		}
		if bi < 0 {
			break // no merge satisfies the constraints
		}
		// Merge bj into bi; update average linkage (Lance–Williams).
		ni, nj := float64(sizes[bi]), float64(sizes[bj])
		for k := 0; k < n; k++ {
			if k == bi || k == bj || !clusters[k].active {
				continue
			}
			linkage[bi][k] = (ni*linkage[bi][k] + nj*linkage[bj][k]) / (ni + nj)
			linkage[k][bi] = linkage[bi][k]
		}
		clusters[bi].members = append(clusters[bi].members, clusters[bj].members...)
		for h, c := range clusters[bj].hosts {
			clusters[bi].hosts[h] += c
		}
		sizes[bi] += sizes[bj]
		clusters[bj].active = false
		activeCount--
		steps = append(steps, mergeStep{distance: best, nGroups: activeCount})
		takeSnapshot(activeCount)
	}

	pick := func(k int) (Result, error) {
		gs, ok := snapshots[k]
		if !ok {
			return Result{}, fmt.Errorf("hcluster: no cut with %d groups (agglomeration stopped at %d)", k, activeCount)
		}
		cutDist := 0.0
		for _, s := range steps {
			if s.nGroups >= k {
				cutDist = s.distance
			}
		}
		sortGroups(gs)
		return Result{Groups: gs, CutDistance: cutDist}, nil
	}

	// Candidate cuts: group counts k that divide n (constraint 2 in its
	// exact form — with perfectly balanced groups, |c̄| = n/k divides n
	// iff k divides n). Under Unconstrained, every k is a candidate.
	var candidates []int
	for k := 2; k < n; k++ {
		if opts.Unconstrained || n%k == 0 {
			if _, ok := snapshots[k]; ok {
				candidates = append(candidates, k)
			}
		}
	}
	if len(candidates) == 0 {
		return pick(activeCount)
	}

	// Gap criterion: prefer the k where undoing the next merge would
	// bridge the largest distance jump (well-separated classes), with
	// size variance (Eq. 1) as a penalty to prefer balanced cuts.
	bestK, bestScore := candidates[0], math.Inf(-1)
	for _, k := range candidates {
		gap := gapAt(steps, k)
		variance := GroupSizeVariance(snapshots[k])
		score := gap - variance*1e-3
		if score > bestScore {
			bestScore, bestK = score, k
		}
	}
	return pick(bestK)
}

// gapAt scores the cut at k groups by the *relative* jump between the
// merge distance that produced the k-group partition and the one that
// would reduce it to k-1 groups. A ratio criterion (rather than an
// absolute difference) is required under average linkage: merging two
// already-large superclusters always bridges the largest absolute
// distance, which would bias an absolute gap toward k = 2 regardless of
// the true class structure.
func gapAt(steps []mergeStep, k int) float64 {
	var toK, fromK float64 // distance producing k groups; distance leaving k
	toK = math.NaN()
	fromK = math.NaN()
	for _, s := range steps {
		if s.nGroups == k {
			toK = s.distance
		}
		if s.nGroups == k-1 {
			fromK = s.distance
		}
	}
	switch {
	case math.IsNaN(fromK):
		return 0 // agglomeration stopped here; no information about beyond
	case math.IsNaN(toK):
		return fromK / 1e-12
	default:
		return fromK / (toK + 1e-12)
	}
}

// mergeStep records one agglomeration: the linkage distance bridged and
// the number of groups remaining after the merge.
type mergeStep struct {
	distance float64
	nGroups  int
}

func sortGroups(gs [][]int) {
	for _, g := range gs {
		sort.Ints(g)
	}
	sort.Slice(gs, func(a, b int) bool {
		if len(gs[a]) == 0 || len(gs[b]) == 0 {
			return len(gs[a]) > len(gs[b])
		}
		return gs[a][0] < gs[b][0]
	})
}

// Rebalance adjusts groups toward the exact target size by moving the
// worst-fitting members of oversized groups into undersized groups,
// honouring the one-item-per-host constraint. It mutates and returns
// groups. centroidDist(item, group) should return the average distance
// from the item to the group's members.
func Rebalance(groups [][]int, items []Item, dist DistFunc, target int) [][]int {
	if target <= 0 {
		return groups
	}
	hostOf := func(idx int) string { return items[idx].Host }
	groupHasHost := func(g []int, h string) bool {
		if h == "" {
			return false
		}
		for _, m := range g {
			if hostOf(m) == h {
				return true
			}
		}
		return false
	}
	avgDist := func(idx int, g []int) float64 {
		if len(g) == 0 {
			return 0
		}
		var s float64
		for _, m := range g {
			if m != idx {
				s += dist(idx, m)
			}
		}
		return s / float64(len(g))
	}

	for moved := true; moved; {
		moved = false
		// Find an oversized group.
		for gi := range groups {
			if len(groups[gi]) <= target {
				continue
			}
			// Evict the member farthest from its own group.
			worst, worstD := -1, -1.0
			for mi, m := range groups[gi] {
				if dd := avgDist(m, groups[gi]); dd > worstD {
					worst, worstD = mi, dd
				}
			}
			m := groups[gi][worst]
			// Find the best undersized destination without a host clash.
			dest, destD := -1, math.Inf(1)
			for gj := range groups {
				if gj == gi || len(groups[gj]) >= target {
					continue
				}
				if groupHasHost(groups[gj], hostOf(m)) {
					continue
				}
				if dd := avgDist(m, groups[gj]); dd < destD {
					dest, destD = gj, dd
				}
			}
			if dest < 0 {
				continue
			}
			groups[gi] = append(groups[gi][:worst], groups[gi][worst+1:]...)
			groups[dest] = append(groups[dest], m)
			moved = true
		}
	}
	sortGroups(groups)
	return groups
}
