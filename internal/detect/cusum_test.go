package detect

import (
	"math"
	"math/rand"
	"testing"

	"skeletonhunter/internal/stats"
)

func healthyRef() (*CUSUM, stats.LogNormal) {
	d := stats.LogNormal{Mu: math.Log(16), Sigma: 0.1}
	return NewCUSUM(d.Mu, d.Sigma), d
}

func TestCUSUMStaysQuietOnHealthyStream(t *testing.T) {
	c, d := healthyRef()
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		if c.Observe(d.Sample(r)) {
			t.Fatalf("false alarm at sample %d (s=%v)", i, c.Statistic())
		}
	}
}

func TestCUSUMDetectsShiftQuickly(t *testing.T) {
	c, _ := healthyRef()
	r := rand.New(rand.NewSource(4))
	shifted := stats.LogNormal{Mu: math.Log(24), Sigma: 0.1} // 1.5× latency
	for i := 0; i < 100; i++ {
		if c.Observe(shifted.Sample(r)) {
			if i > 10 {
				t.Fatalf("detection took %d samples, want fast", i)
			}
			return
		}
	}
	t.Fatal("shift never detected")
}

func TestCUSUMDetectsSmallSustainedShift(t *testing.T) {
	// A shift of about one sigma (16 → 17.7 µs) — invisible to a
	// single-window test — accumulates and alarms.
	c, _ := healthyRef()
	r := rand.New(rand.NewSource(5))
	shifted := stats.LogNormal{Mu: math.Log(16) + 0.1, Sigma: 0.1}
	for i := 0; i < 1000; i++ {
		if c.Observe(shifted.Sample(r)) {
			return
		}
	}
	t.Fatal("small sustained shift never detected")
}

func TestCUSUMResetAndGuards(t *testing.T) {
	c, _ := healthyRef()
	for i := 0; i < 100; i++ {
		c.Observe(100)
	}
	if c.Statistic() == 0 {
		t.Fatal("statistic did not accumulate")
	}
	c.Reset()
	if c.Statistic() != 0 {
		t.Fatal("reset failed")
	}
	if c.Observe(-5) {
		t.Fatal("invalid sample alarmed")
	}
	bad := &CUSUM{RefSigma: 0}
	if bad.Observe(16) {
		t.Fatal("zero-sigma reference alarmed")
	}
}

func TestCUSUMVsLOFLatency(t *testing.T) {
	// The trade-off the doc comment claims: on a moderate shift, CUSUM
	// (per-sample) fires within a few samples while the windowed LOF
	// needs a full 30-sample window to close. Both must detect.
	r := rand.New(rand.NewSource(6))
	healthy := stats.LogNormal{Mu: math.Log(16), Sigma: 0.1}
	shifted := stats.LogNormal{Mu: math.Log(22), Sigma: 0.1}

	c := NewCUSUM(healthy.Mu, healthy.Sigma)
	cusumAt := -1
	for i := 0; i < 300; i++ {
		if c.Observe(shifted.Sample(r)) {
			cusumAt = i
			break
		}
	}
	if cusumAt < 0 {
		t.Fatal("CUSUM missed the shift")
	}
	if cusumAt > 30 {
		t.Fatalf("CUSUM took %d samples", cusumAt)
	}
	// LOF path: history of healthy windows, then shifted windows.
	var d Detector
	var history []float64
	for w := 0; w < 10; w++ {
		xs := make([]float64, 30)
		for i := range xs {
			xs[i] = healthy.Sample(r)
		}
		history = append(history, d.robustVector(xs)...)
	}
	xs := make([]float64, 30)
	for i := range xs {
		xs[i] = shifted.Sample(r)
	}
	if s := stats.LOFScore(new(stats.LOFScratch), d.robustVector(xs), history, features, 5); s < 4 {
		t.Fatalf("LOF missed the shifted window: %v", s)
	}
}
