// Package skeleton implements traffic-skeleton inference (§5.1): from
// nothing but per-RNIC throughput time series and endpoint placement,
// recover the parallelism structure of a tenant's training task — the
// DP group count, the TP×PP pipeline scale, and the pipeline stage
// order — and derive the minimal set of endpoint pairs that carry
// traffic (the skeleton), which the controller turns into the final,
// >95 %-reduced ping list.
//
// The pipeline is the paper's: STFT fingerprints of the burst cycles →
// constrained hierarchical clustering (Eq. 1–3) → DP = |c̄| from the
// group size, TP×PP = N/|c̄| → PP levels from the burst time shift.
// The STFT framing (128-sample window, 64-sample hop) and the 64-sample
// stage-shift search bound are package constants; Options carries only
// the ablation switches.
package skeleton

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"skeletonhunter/internal/dsp"
	"skeletonhunter/internal/hcluster"
)

// EndpointSeries is the observable for one endpoint: its task-local
// identity, physical host (for the same-host constraint, Eq. 3), and
// the throughput series sampled at a fixed interval.
type EndpointSeries struct {
	Container int // task-local container index
	Rail      int
	Host      int // physical host (distinct per container in production)
	Series    []float64
}

// The fixed inference parameters, in samples: STFT framing suited to
// 1 s samples and ~30 s iteration periods, and the stage-shift search
// bound of half a window.
const (
	stftWindow = 128
	stftHop    = stftWindow / 2
	maxLag     = stftWindow / 2
)

// Options holds the inference ablation switches; the zero value is the
// paper's pipeline.
type Options struct {
	// TimeDomainFeatures switches fingerprints to raw (normalized)
	// time-domain vectors — the ablation showing why STFT is needed
	// (phase shifts break time-domain similarity across DP replicas).
	TimeDomainFeatures bool
	// Unconstrained disables the Eq. 2–3 clustering constraints
	// (ablation).
	Unconstrained bool
}

// Pair is an undirected skeleton probe pair, as indexes into the input
// endpoint slice (A < B).
type Pair struct {
	A, B int
}

// Inference is the recovered structure.
type Inference struct {
	// Groups lists same-position endpoint index sets: each group holds
	// the endpoints occupying one (tp, pp) position across DP replicas.
	Groups [][]int
	// DP is the inferred data-parallel degree (= |c̄|, the group size).
	DP int
	// TPxPP is the inferred pipeline scale (= N / DP).
	TPxPP int
	// PP is the inferred pipeline depth (distinct stage-lag levels) and
	// TP the residual TPxPP/PP.
	PP, TP int
	// StageOf[g] is the inferred pipeline level of group g (0-based,
	// ordered by burst time shift).
	StageOf []int
	// Pairs is the skeleton: the endpoint pairs to probe. It contains
	// the DP ring of every group plus the pipeline-adjacent pairs
	// between stage-neighbouring groups on the same rail.
	Pairs []Pair
}

// ErrInsufficient reports that inference cannot run (too few endpoints
// or too-short series).
var ErrInsufficient = errors.New("skeleton: insufficient data for inference")

// Infer runs the full pipeline.
func Infer(eps []EndpointSeries, opts Options) (Inference, error) {
	n := len(eps)
	if n < 2 {
		return Inference{}, ErrInsufficient
	}
	for _, ep := range eps {
		if len(ep.Series) < stftWindow {
			return Inference{}, fmt.Errorf("%w: series shorter than STFT window", ErrInsufficient)
		}
	}

	// 1. Fingerprints.
	features := make([][]float64, n)
	for i, ep := range eps {
		if opts.TimeDomainFeatures {
			features[i] = normalizedCopy(ep.Series)
		} else {
			features[i] = dsp.BurstFingerprint(ep.Series, stftWindow, stftHop)
		}
	}

	// 2. Constrained clustering.
	items := make([]hcluster.Item, n)
	for i, ep := range eps {
		host := fmt.Sprintf("h%d", ep.Host)
		if opts.Unconstrained {
			host = ""
		}
		items[i] = hcluster.Item{ID: i, Host: host}
	}
	dist := func(i, j int) float64 { return dsp.FeatureDistance(features[i], features[j]) }
	res, err := hcluster.Cluster(items, dist, hcluster.Options{Unconstrained: opts.Unconstrained})
	if err != nil {
		return Inference{}, err
	}
	groups := res.Groups

	// 3. Enforce balance exactly (Eq. 1–2): rebalance to the nearest
	// valid group size.
	if !opts.Unconstrained {
		k := len(groups)
		if n%k == 0 {
			groups = hcluster.Rebalance(groups, items, dist, n/k)
		}
	}

	inf := Inference{Groups: groups}
	if len(groups) == 0 {
		return Inference{}, ErrInsufficient
	}
	inf.DP = len(groups[0])
	for _, g := range groups {
		if len(g) > inf.DP {
			inf.DP = len(g)
		}
	}
	inf.TPxPP = len(groups)

	// 4. Stage ordering from the burst time shift. The synchronized
	// DP all-reduce dominates every series, so mask the globally loud
	// samples first and correlate what remains (the pipeline bursts).
	lags := groupLags(eps, groups)
	inf.StageOf, inf.PP = bucketLags(lags, inf.TPxPP)
	inf.TP = inf.TPxPP / inf.PP

	inf.Pairs = buildPairs(eps, inf)
	return inf, nil
}

func normalizedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	var norm float64
	for _, v := range out {
		norm += v * v
	}
	if norm > 0 {
		inv := 1 / math.Sqrt(norm)
		for i := range out {
			out[i] *= inv
		}
	}
	return out
}

// groupLags computes, per group, the burst onset phase of the group's
// pipeline activity within the training iteration. Raw cross-
// correlation is ambiguous here: every stage bursts twice per iteration
// (forward and backward passes shifting in opposite directions), so the
// correlation peak between two stages can land at either shift. The
// robust signal is the *onset*: the first pipeline burst of stage s
// starts later than stage s-1's. The procedure is:
//
//  1. estimate the iteration period from the autocorrelation of the
//     task-global mean throughput;
//  2. locate the synchronized all-reduce window (the globally loudest
//     folded phases) and take the phase just after it as "iteration
//     start";
//  3. per group, mask the all-reduce window out, fold the residual over
//     the period, and record the first active phase after iteration
//     start.
func groupLags(eps []EndpointSeries, groups [][]int) []int {
	if len(groups) == 0 {
		return nil
	}
	sLen := len(eps[0].Series)
	for _, ep := range eps {
		if len(ep.Series) < sLen {
			sLen = len(ep.Series)
		}
	}
	global := make([]float64, sLen)
	for _, ep := range eps {
		for t := 0; t < sLen; t++ {
			global[t] += ep.Series[t]
		}
	}
	for t := range global {
		global[t] /= float64(len(eps))
	}

	period := estimatePeriod(global, maxLag*4)
	if period < 2 {
		return make([]int, len(groups))
	}

	// Fold the global profile and find the synchronized burst window.
	// The burst phases and the rest form two well-separated value
	// populations; split them at the largest gap in the sorted values
	// (a fixed fraction of the max is unreliable because collective
	// chunking modulates the burst amplitude within the window).
	gFold := fold(global, period)
	loudTh := largestGapThreshold(gFold)
	loud := make([]bool, period)
	for i, v := range gFold {
		loud[i] = v >= loudTh
	}
	// Iteration start: the phase after the last loud phase of the
	// (possibly wrapping) burst run that ends latest before a quiet run.
	ref := 0
	for i := 0; i < period; i++ {
		if loud[i] && !loud[(i+1)%period] {
			ref = (i + 1) % period
		}
	}

	lags := make([]int, len(groups))
	for g, members := range groups {
		r := make([]float64, sLen)
		for _, m := range members {
			for t := 0; t < sLen; t++ {
				r[t] += eps[m].Series[t]
			}
		}
		for t := range r {
			r[t] /= float64(len(members))
		}
		f := fold(r, period)
		// Mask the synchronized window and find this group's own
		// activity threshold over the residual.
		maxR := 0.0
		for i, v := range f {
			if loud[i] {
				f[i] = 0
				continue
			}
			if v > maxR {
				maxR = v
			}
		}
		if maxR <= 0 {
			lags[g] = 0
			continue
		}
		th := 0.4 * maxR
		onset := 0
		for o := 0; o < period; o++ {
			if f[(ref+o)%period] >= th {
				onset = o
				break
			}
		}
		lags[g] = onset
	}
	return lags
}

// largestGapThreshold returns the midpoint of the largest gap between
// consecutive sorted values — a 1-D two-class split. Values at or above
// the threshold form the upper class. Degenerate inputs (fewer than two
// distinct values) yield +Inf so nothing classifies as loud.
func largestGapThreshold(values []float64) float64 {
	if len(values) < 2 {
		return math.Inf(1)
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	bestGap, th := 0.0, math.Inf(1)
	for i := 1; i < len(s); i++ {
		if g := s[i] - s[i-1]; g > bestGap {
			bestGap = g
			th = (s[i] + s[i-1]) / 2
		}
	}
	if bestGap == 0 {
		return math.Inf(1)
	}
	return th
}

// fold averages a series over a period, producing the per-phase mean.
func fold(s []float64, period int) []float64 {
	out := make([]float64, period)
	counts := make([]int, period)
	for i, v := range s {
		out[i%period] += v
		counts[i%period]++
	}
	for i := range out {
		if counts[i] > 0 {
			out[i] /= float64(counts[i])
		}
	}
	return out
}

// estimatePeriod finds the fundamental period (in samples) of a
// periodic signal via its circular autocorrelation: the strongest lag
// in [2, maxPeriod], reduced to the smallest integer divisor whose
// correlation is nearly as strong (harmonic collapse).
func estimatePeriod(s []float64, maxPeriod int) int {
	n := len(s)
	if maxPeriod > n/2 {
		maxPeriod = n / 2
	}
	if maxPeriod < 2 {
		return 0
	}
	mean := 0.0
	for _, v := range s {
		mean += v
	}
	mean /= float64(n)
	auto := func(l int) float64 {
		var sum float64
		for t := 0; t < n; t++ {
			sum += (s[t] - mean) * (s[(t+l)%n] - mean)
		}
		return sum
	}
	bestLag, bestVal := 2, auto(2)
	scores := make([]float64, maxPeriod+1)
	scores[2] = bestVal
	for l := 3; l <= maxPeriod; l++ {
		scores[l] = auto(l)
		if scores[l] > bestVal {
			bestVal, bestLag = scores[l], l
		}
	}
	// Collapse harmonics: prefer the smallest divisor of bestLag whose
	// autocorrelation reaches 90 % of the peak.
	for d := 2; d < bestLag; d++ {
		if bestLag%d == 0 && scores[d] >= 0.9*bestVal {
			return d
		}
	}
	return bestLag
}

// bucketLags converts raw onset lags into pipeline stage levels using
// the structural constraints of §5.1: the stage count PP must divide
// TP×PP, and every stage holds the same number of groups (TP of them).
// Groups are sorted by lag and, for every divisor k of nGroups, split
// into k equal chunks; the split is valid when each adjacent chunk pair
// is separated by a strictly positive lag gap (stages genuinely shift
// in time). The largest valid k wins — the finest stage resolution the
// shifts support. Quantization noise (a stage's lags straddling two
// integer values) stays within a chunk and is absorbed.
func bucketLags(lags []int, nGroups int) (stageOf []int, pp int) {
	stageOf = make([]int, len(lags))
	if len(lags) == 0 || nGroups == 0 {
		return stageOf, 1
	}
	order := make([]int, len(lags))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return lags[order[a]] < lags[order[b]] })

	valid := func(k int) bool {
		size := len(lags) / k
		for c := 1; c < k; c++ {
			prevMax := lags[order[c*size-1]]
			nextMin := lags[order[c*size]]
			if nextMin <= prevMax {
				return false
			}
		}
		return true
	}
	best := 1
	for k := 2; k <= len(lags); k++ {
		if nGroups%k == 0 && len(lags)%k == 0 && valid(k) {
			best = k
		}
	}
	size := len(lags) / best
	for rank, g := range order {
		stageOf[g] = rank / size
	}
	return stageOf, best
}

// buildPairs assembles the skeleton pairs: within every group, a DP
// ring over members ordered by container index (container order tracks
// DP order under canonical packing); across groups, pipeline-adjacent
// pairs between stage s and s+1 groups sharing a rail, matched
// member-by-member in container order.
func buildPairs(eps []EndpointSeries, inf Inference) []Pair {
	seen := map[Pair]bool{}
	var pairs []Pair
	add := func(a, b int) {
		if a == b {
			return
		}
		if b < a {
			a, b = b, a
		}
		p := Pair{A: a, B: b}
		if !seen[p] {
			seen[p] = true
			pairs = append(pairs, p)
		}
	}

	ordered := make([][]int, len(inf.Groups))
	for g, members := range inf.Groups {
		m := append([]int(nil), members...)
		sort.Slice(m, func(i, j int) bool {
			if eps[m[i]].Container != eps[m[j]].Container {
				return eps[m[i]].Container < eps[m[j]].Container
			}
			return eps[m[i]].Rail < eps[m[j]].Rail
		})
		ordered[g] = m
		// DP ring.
		if len(m) > 1 {
			for i := range m {
				add(m[i], m[(i+1)%len(m)])
			}
		}
	}

	// Pipeline adjacency: match groups by (rail, stage).
	railOf := func(g int) int {
		counts := map[int]int{}
		for _, m := range inf.Groups[g] {
			counts[eps[m].Rail]++
		}
		best, bestN := 0, -1
		for r, c := range counts {
			if c > bestN {
				best, bestN = r, c
			}
		}
		return best
	}
	type key struct{ rail, stage int }
	byPos := map[key][]int{}
	for g := range inf.Groups {
		byPos[key{railOf(g), inf.StageOf[g]}] = append(byPos[key{railOf(g), inf.StageOf[g]}], g)
	}
	for k, gs := range byPos {
		nextKey := key{k.rail, k.stage + 1}
		nexts := byPos[nextKey]
		for i, g := range gs {
			if i < len(nexts) {
				ng := nexts[i]
				a, b := ordered[g], ordered[ng]
				for j := 0; j < len(a) && j < len(b); j++ {
					add(a[j], b[j])
				}
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	return pairs
}
