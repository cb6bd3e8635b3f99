package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func cluster2D(r *rand.Rand, cx, cy, spread float64, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = []float64{cx + r.NormFloat64()*spread, cy + r.NormFloat64()*spread}
	}
	return out
}

// flatten lays points out end to end, the history layout LOFScore
// takes.
func flatten(points [][]float64) []float64 {
	var flat []float64
	for _, p := range points {
		flat = append(flat, p...)
	}
	return flat
}

// lofScore is LOFScore over a history of separate points of the
// query's dimension.
func lofScore(s *LOFScratch, query []float64, history [][]float64, k int) float64 {
	return LOFScore(s, query, flatten(history), len(query), k)
}

func TestLOFScoreStreaming(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	history := cluster2D(r, 10, 10, 0.2, 10) // 5-minute lookback = 10 windows

	// A query inside the cluster is an inlier.
	in := lofScore(new(LOFScratch), []float64{10.05, 9.9}, history, 5)
	if in > 1.5 {
		t.Fatalf("inlier query scored %v", in)
	}
	// A query far away is an outlier.
	out := lofScore(new(LOFScratch), []float64{30, 30}, history, 5)
	if out < 5 {
		t.Fatalf("outlier query scored %v", out)
	}
	if out <= in {
		t.Fatalf("outlier (%v) not scored above inlier (%v)", out, in)
	}
}

func TestLOFScoreEmptyHistory(t *testing.T) {
	if s := lofScore(new(LOFScratch), []float64{1}, nil, 3); s != 1 {
		t.Fatalf("score with no history = %v, want 1 (no evidence)", s)
	}
}

func TestLOFScoreDuplicateHistory(t *testing.T) {
	history := [][]float64{{2, 2}, {2, 2}, {2, 2}}
	if s := lofScore(new(LOFScratch), []float64{2, 2}, history, 2); s != 1 {
		t.Fatalf("coincident query scored %v, want 1", s)
	}
	if s := lofScore(new(LOFScratch), []float64{9, 9}, history, 2); !math.IsInf(s, 1) {
		t.Fatalf("distant query against zero-spread history scored %v, want +Inf", s)
	}
}

func TestLOFLatencyWindowScenario(t *testing.T) {
	// End-to-end sanity at the detector's feature shape: order
	// statistics of healthy 16µs windows, then a 120µs window (the
	// Fig. 18 anomaly) must stand out.
	r := rand.New(rand.NewSource(17))
	healthy := LogNormal{Mu: math.Log(16), Sigma: 0.1}
	var history [][]float64
	for w := 0; w < 10; w++ {
		xs := make([]float64, 60)
		for i := range xs {
			xs[i] = healthy.Sample(r)
		}
		history = append(history, windowVector(xs))
	}
	// Healthy new window.
	xs := make([]float64, 60)
	for i := range xs {
		xs[i] = healthy.Sample(r)
	}
	if s := lofScore(new(LOFScratch), windowVector(xs), history, 5); s > 2.0 {
		t.Fatalf("healthy window scored %v", s)
	}
	// Anomalous window.
	bad := LogNormal{Mu: math.Log(120), Sigma: 0.1}
	for i := range xs {
		xs[i] = bad.Sample(r)
	}
	if s := lofScore(new(LOFScratch), windowVector(xs), history, 5); s < 5 {
		t.Fatalf("anomalous window scored only %v", s)
	}
}

// windowVector summarizes a latency window the way the detector does:
// its quartiles and its mean.
func windowVector(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return []float64{Percentile(s, 0.25), Percentile(s, 0.5), Percentile(s, 0.75), mean(s)}
}

// lofScoreOracle is the allocate-per-call LOFScore the scratch version
// replaced, kept verbatim as the reference it must match bit for bit.
func lofScoreOracle(query []float64, history [][]float64, k int) float64 {
	n := len(history)
	if n == 0 {
		return 1
	}
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}

	// Distances among history points and from query to history.
	hd := make([][]float64, n)
	for i := range hd {
		hd[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := EuclideanDistance(history[i], history[j])
			hd[i][j] = d
			hd[j][i] = d
		}
	}
	qd := make([]float64, n)
	for i := range history {
		qd[i] = EuclideanDistance(query, history[i])
	}

	kdistOf := func(row []float64, self int) (float64, []int) {
		idx := make([]int, 0, n)
		for j := 0; j < n; j++ {
			if j != self {
				idx = append(idx, j)
			}
		}
		sort.Slice(idx, func(a, b int) bool { return row[idx[a]] < row[idx[b]] })
		kk := k
		if kk > len(idx) {
			kk = len(idx)
		}
		if kk == 0 {
			return 0, nil
		}
		kd := row[idx[kk-1]]
		m := kk
		for m < len(idx) && row[idx[m]] == kd {
			m++
		}
		return kd, idx[:m]
	}

	// History local reachability densities.
	hkdist := make([]float64, n)
	hneigh := make([][]int, n)
	for i := 0; i < n; i++ {
		hkdist[i], hneigh[i] = kdistOf(hd[i], i)
	}
	hlrd := make([]float64, n)
	for i := 0; i < n; i++ {
		if len(hneigh[i]) == 0 {
			hlrd[i] = math.Inf(1)
			continue
		}
		var sum float64
		for _, j := range hneigh[i] {
			sum += math.Max(hkdist[j], hd[i][j])
		}
		if sum == 0 {
			hlrd[i] = math.Inf(1)
		} else {
			hlrd[i] = float64(len(hneigh[i])) / sum
		}
	}

	// Query neighbourhood and density.
	qidx := make([]int, n)
	for i := range qidx {
		qidx[i] = i
	}
	sort.Slice(qidx, func(a, b int) bool { return qd[qidx[a]] < qd[qidx[b]] })
	kk := k
	if kk > n {
		kk = n
	}
	qkdist := qd[qidx[kk-1]]
	m := kk
	for m < n && qd[qidx[m]] == qkdist {
		m++
	}
	qneigh := qidx[:m]

	var reachSum float64
	for _, j := range qneigh {
		reachSum += math.Max(hkdist[j], qd[j])
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
		case math.IsInf(hlrd[j], 1) && math.IsInf(qlrd, 1):
			ratio++
		case math.IsInf(hlrd[j], 1):
			return math.Inf(1)
		case math.IsInf(qlrd, 1):
			// query denser than neighbours — inlier
		default:
			ratio += hlrd[j] / qlrd
		}
	}
	return ratio / float64(len(qneigh))
}

// randomHistory draws n dim-dimensional points on a coarse grid, so
// duplicate vectors and tied distances (and hence tied k-distances)
// are common rather than measure-zero.
func randomHistory(r *rand.Rand, n, dim int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, dim)
		switch {
		case i > 0 && r.Intn(5) == 0:
			copy(pts[i], pts[r.Intn(i)]) // exact duplicate
		default:
			for d := range pts[i] {
				pts[i][d] = float64(r.Intn(4)) + 0.25*float64(r.Intn(3))
			}
		}
	}
	return pts
}

// TestLOFScoreMatchesOracle is the scratch rewrite's equivalence
// property: over random histories (grid-valued, so duplicates and
// k-distance ties abound, plus continuous ones), every score is
// bit-identical to the allocate-per-call oracle — one scratch reused
// across every size, query and k, as the detector reuses it.
func TestLOFScoreMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	var s LOFScratch
	for trial := 0; trial < 3000; trial++ {
		n := r.Intn(21)
		dim := 1 + r.Intn(4)
		history := randomHistory(r, n, dim)
		if trial%3 == 0 {
			for _, p := range history {
				for d := range p {
					p[d] = 10 + r.NormFloat64()
				}
			}
		}
		var query []float64
		if n > 0 && r.Intn(4) == 0 {
			query = append(query, history[r.Intn(n)]...)
		} else {
			query = randomHistory(r, 1, dim)[0]
		}
		k := r.Intn(n+3) - 1
		want := lofScoreOracle(query, history, k)
		got := lofScore(&s, query, history, k)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (n=%d dim=%d k=%d): scratch %v, oracle %v\nquery %v\nhistory %v",
				trial, n, dim, k, got, want, query, history)
		}
	}
}

// TestLOFScoreSelectionEdges holds the bounded selection to the oracle
// where it is easiest to get wrong: infinite coordinates (whose
// distances include +Inf and, for two infinite points, NaN, which
// insertion sort never moves), histories of one repeated point, k at
// and past the history size, and n = 12, 13 and 14, where the
// history rows (n-1 long) and the query row (n long) cross from
// selection to sort.
func TestLOFScoreSelectionEdges(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	var s LOFScratch
	check := func(name string, query []float64, history [][]float64, k int) {
		t.Helper()
		want := lofScoreOracle(query, history, k)
		got := lofScore(&s, query, history, k)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s (n=%d k=%d): selection %v, oracle %v\nquery %v\nhistory %v",
				name, len(history), k, got, want, query, history)
		}
	}
	specials := []float64{math.Inf(1), math.Inf(-1)}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(16)
		dim := 1 + r.Intn(3)
		k := 1 + r.Intn(n+2)

		// Infinite coordinates sprinkled over a grid history and query.
		history := randomHistory(r, n, dim)
		query := randomHistory(r, 1, dim)[0]
		for _, p := range append(history, query) {
			for d := range p {
				if r.Intn(4) == 0 {
					p[d] = specials[r.Intn(2)]
				}
			}
		}
		check("infinite", query, history, k)

		// One point repeated n times, queried on and off it.
		dup := make([][]float64, n)
		for i := range dup {
			dup[i] = history[0]
		}
		check("duplicate", history[0], dup, k)
		check("duplicate", randomHistory(r, 1, dim)[0], dup, k)

		// k at and past the history size.
		grid := randomHistory(r, n, dim)
		check("k=n", query, grid, n)
		check("k>n", randomHistory(r, 1, dim)[0], grid, n+1+r.Intn(3))
	}
	for _, n := range []int{12, 13, 14} {
		for trial := 0; trial < 500; trial++ {
			dim := 1 + r.Intn(4)
			history := randomHistory(r, n, dim)
			var query []float64
			if r.Intn(4) == 0 {
				query = append(query, history[r.Intn(n)]...)
			} else {
				query = randomHistory(r, 1, dim)[0]
			}
			check("boundary", query, history, 1+r.Intn(n+1))
		}
	}
}

// detectorHistory is the detector's steady-state shape: a full
// ten-window look-back of four robust features around a 16 µs RTT.
func detectorHistory(r *rand.Rand) (query []float64, history [][]float64) {
	point := func() []float64 {
		return []float64{16 + r.NormFloat64(), 16.5 + r.NormFloat64(), 17 + r.NormFloat64(), 16.4 + r.NormFloat64()}
	}
	for i := 0; i < 10; i++ {
		history = append(history, point())
	}
	return point(), history
}

func TestLOFScoreWarmScratchAllocatesNothing(t *testing.T) {
	query, history := detectorHistory(rand.New(rand.NewSource(31)))
	flat := flatten(history)
	var s LOFScratch
	LOFScore(&s, query, flat, len(query), 5)
	if allocs := testing.AllocsPerRun(100, func() { LOFScore(&s, query, flat, len(query), 5) }); allocs != 0 {
		t.Fatalf("warm LOFScore allocated %v times per call, want 0", allocs)
	}
}

var lofSink float64

func BenchmarkLOFScore(b *testing.B) {
	query, history := detectorHistory(rand.New(rand.NewSource(31)))
	flat := flatten(history)
	var s LOFScratch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lofSink = LOFScore(&s, query, flat, len(query), 5)
	}
}
