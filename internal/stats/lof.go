package stats

import (
	"math"
	"sort"
)

// LOF implements the Local Outlier Factor of Breunig et al. (SIGMOD
// 2000), the density-based score SkeletonHunter's short-term detector
// applies to latency-window feature vectors (§5.2): a new 30-second
// window whose LOF against the five-minute look-back exceeds the
// threshold cannot be clustered into the previous windows and is
// declared anomalous.
//
// The implementation is the textbook O(n²) formulation. Look-back
// windows hold at most tens of points (5 min / 30 s = 10 per pair), so
// a spatial index would be pure overhead.

// LOFScratch is LOFScore's reusable workspace: a flat n×n distance
// matrix, the per-point k-neighbourhoods as one flat index buffer, and
// the per-point k-distances and densities. The detector closes
// thousands of windows per analysis round, and building those tables
// afresh for each one was a third of every byte the fleet allocated.
// A warmed scratch scores without allocating. The zero value is ready
// to use; a scratch is not safe for concurrent use.
type LOFScratch struct {
	dist  []float64 // history distances, row-major n×n
	qd    []float64 // query → history distances
	kdist []float64 // per-point k-distance
	lrd   []float64 // per-point local reachability density
	neigh []int     // per-point neighbourhood, row i at [i*n, i*n+nn[i])
	nn    []int     // per-point neighbourhood size
	order byDistance
}

// byDistance sorts neighbour indices by their distance in one row. It
// is a sort.Interface over a pointer, so sort.Sort runs the same
// pdqsort (the same comparisons and swaps, hence the same order among
// ties) as sort.Slice would, without boxing anything.
type byDistance struct {
	idx []int
	row []float64
}

func (b *byDistance) Len() int           { return len(b.idx) }
func (b *byDistance) Less(i, j int) bool { return b.row[b.idx[i]] < b.row[b.idx[j]] }
func (b *byDistance) Swap(i, j int)      { b.idx[i], b.idx[j] = b.idx[j], b.idx[i] }

// grow sizes the scratch tables for n history points.
func (s *LOFScratch) grow(n int) {
	if cap(s.qd) < n {
		s.dist = make([]float64, n*n)
		s.qd = make([]float64, n)
		s.kdist = make([]float64, n)
		s.lrd = make([]float64, n)
		s.neigh = make([]int, n*n)
		s.nn = make([]int, n)
	}
	s.dist = s.dist[:n*n]
	s.qd = s.qd[:n]
	s.kdist = s.kdist[:n]
	s.lrd = s.lrd[:n]
	s.neigh = s.neigh[:n*n]
	s.nn = s.nn[:n]
}

// selectMax is the longest neighbour row that neighbours selects
// rather than sorts. pdqsort sorts a range of at most 12 elements by
// plain insertion sort, which is stable, so a bounded stable insertion
// of the k nearest yields exactly the prefix sort.Sort would, in the
// same order among ties, and every reach-distance sum stays bit-equal.
// Past 12 pdqsort is no longer stable and a longer row keeps the full
// sort, whose tie order the oracle pins. The detector never gets there:
// its look-back holds 10 windows, so its rows are 9 and 10 long.
const selectMax = 12

// neighbours returns row's k-distance and k-neighbourhood: the k
// nearest indices, plus every index tied with the k-th (so the
// neighbourhood may exceed k), in the order sort.Sort leaves them. skip
// is the row's own index, which is no neighbour (-1 for the query row).
// buf is the row's neighbour storage, len(row) long.
func (s *LOFScratch) neighbours(buf []int, row []float64, skip, k int) (float64, []int) {
	m := len(row)
	if skip >= 0 {
		m--
	}
	k = min(k, m)
	if k == 0 {
		return 0, nil
	}
	sel := buf[:0:len(buf)]
	if m > selectMax {
		for j := range row {
			if j != skip {
				sel = append(sel, j)
			}
		}
		s.order = byDistance{idx: sel, row: row}
		sort.Sort(&s.order)
		kd, t := row[sel[k-1]], k
		for t < m && row[sel[t]] == kd {
			t++
		}
		return kd, sel[:t]
	}
	// Bounded stable insertion in index order: sel holds, sorted, the
	// k nearest seen so far plus their ties. Insertion sort never moves
	// a NaN nor anything past one, so a NaN that lands beyond the k
	// nearest ends the row, and one within them stays where it lands.
	for j, d := range row {
		if j == skip {
			continue
		}
		n := len(sel)
		if d != d {
			if n >= k {
				break
			}
			sel = append(sel, j)
			continue
		}
		if n >= k && !(d < row[sel[n-1]]) && d != row[sel[k-1]] {
			continue // lands past the k nearest and their ties
		}
		sel = append(sel, j)
		p := n
		for ; p > 0 && d < row[sel[p-1]]; p-- {
			sel[p] = sel[p-1]
		}
		sel[p] = j
		if len(sel) > k {
			kd, t := row[sel[k-1]], k
			for t < len(sel) && row[sel[t]] == kd {
				t++
			}
			sel = sel[:t]
		}
	}
	return row[sel[k-1]], sel
}

// LOFScore scores a single query point against a reference set (the
// look-back window) without including the query in the reference
// densities — the streaming form used by the detector, where each new
// window is judged against history. Scores near 1 indicate an inlier;
// scores substantially above 1 an outlier. The history is flat: point
// i is history[i*dim : (i+1)*dim], and len(query) must be dim. k is
// clamped to [1, number of points]; an empty history scores 1 (no
// evidence).
//
// The tables live in s, which callers keep across calls.
func LOFScore(s *LOFScratch, query, history []float64, dim, k int) float64 {
	if len(history) == 0 {
		return 1
	}
	n := len(history) / dim
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	s.grow(n)
	point := func(i int) []float64 { return history[i*dim : (i+1)*dim] }

	// Distances among history points and from query to history.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := EuclideanDistance(point(i), point(j))
			s.dist[i*n+j] = d
			s.dist[j*n+i] = d
		}
	}
	for i := 0; i < n; i++ {
		s.qd[i] = EuclideanDistance(query, point(i))
	}

	// History k-distances and neighbourhoods: row i of the neighbour
	// buffer starts with i's neighbourhood, nearest first.
	for i := 0; i < n; i++ {
		kd, nb := s.neighbours(s.neigh[i*n:i*n+n], s.dist[i*n:i*n+n], i, k)
		s.kdist[i], s.nn[i] = kd, len(nb)
	}

	// History local reachability densities.
	for i := 0; i < n; i++ {
		nb := s.neigh[i*n : i*n+s.nn[i]]
		if len(nb) == 0 {
			s.lrd[i] = math.Inf(1)
			continue
		}
		var sum float64
		for _, j := range nb {
			sum += math.Max(s.kdist[j], s.dist[i*n+j])
		}
		if sum == 0 {
			s.lrd[i] = math.Inf(1)
		} else {
			s.lrd[i] = float64(len(nb)) / sum
		}
	}

	// Query neighbourhood and density. Every history row is consumed
	// above, so row 0 of the neighbour buffer is free to reuse.
	_, qneigh := s.neighbours(s.neigh[:n], s.qd, -1, k)

	var reachSum float64
	for _, j := range qneigh {
		reachSum += math.Max(s.kdist[j], s.qd[j])
	}
	var qlrd float64
	if reachSum == 0 {
		qlrd = math.Inf(1)
	} else {
		qlrd = float64(len(qneigh)) / reachSum
	}

	var ratio float64
	for _, j := range qneigh {
		switch {
		case math.IsInf(s.lrd[j], 1) && math.IsInf(qlrd, 1):
			ratio++
		case math.IsInf(s.lrd[j], 1):
			return math.Inf(1)
		case math.IsInf(qlrd, 1):
			// query denser than neighbours — inlier
		default:
			ratio += s.lrd[j] / qlrd
		}
	}
	return ratio / float64(len(qneigh))
}
