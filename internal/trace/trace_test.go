package trace

import (
	"math/rand"
	"testing"
	"time"
)

func samples(n int, f func(*rand.Rand) time.Duration) []time.Duration {
	r := rand.New(rand.NewSource(1))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = f(r)
	}
	return out
}

func TestLifetimeShapesFig2(t *testing.T) {
	// ≈50 % of small-task containers die within 60 min; ~70 % of all
	// containers within 100 min; larger tasks shift right.
	small := samples(20000, func(r *rand.Rand) time.Duration { return Lifetime(r, SizeSmall) })
	large := samples(20000, func(r *rand.Rand) time.Duration { return Lifetime(r, SizeLarge) })

	cdfS := CDF(small, []time.Duration{60 * time.Minute, 100 * time.Minute})
	cdfL := CDF(large, []time.Duration{60 * time.Minute})
	if cdfS[0] < 0.42 || cdfS[0] > 0.60 {
		t.Fatalf("P(small ≤ 60min) = %v, want ≈0.5", cdfS[0])
	}
	if cdfS[1] < 0.60 {
		t.Fatalf("P(small ≤ 100min) = %v, want ≥0.6", cdfS[1])
	}
	if cdfL[0] >= cdfS[0] {
		t.Fatalf("large tasks not longer-lived: %v vs %v", cdfL[0], cdfS[0])
	}
}

func TestLifetimeByConfigFig3(t *testing.T) {
	low := samples(20000, func(r *rand.Rand) time.Duration { return LifetimeByConfig(r, ConfigLowEnd) })
	high := samples(20000, func(r *rand.Rand) time.Duration { return LifetimeByConfig(r, ConfigHighEnd) })
	cl := CDF(low, []time.Duration{60 * time.Minute})[0]
	ch := CDF(high, []time.Duration{60 * time.Minute})[0]
	if cl <= ch {
		t.Fatalf("low-end containers should die younger: %v vs %v", cl, ch)
	}
	if cl < 0.5 {
		t.Fatalf("P(low-end ≤ 60min) = %v, want majority short-lived", cl)
	}
}

func TestStartupTimesFig4(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	st := StartupTimes(r, 512)
	if len(st) != 512 {
		t.Fatalf("startup times = %d", len(st))
	}
	// Sorted ascending, phased: the 480th container starts much later
	// than the 32nd (waves), and the minimum respects the floor.
	for i := 1; i < len(st); i++ {
		if st[i] < st[i-1] {
			t.Fatal("startup times not sorted")
		}
	}
	if st[0] < 20*time.Second {
		t.Fatalf("first startup %v below floor", st[0])
	}
	if st[480] < st[32]+2*time.Minute {
		t.Fatalf("no phased pattern: c32=%v c480=%v", st[32], st[480])
	}
	// Tail reaches minutes; with stragglers it can approach ~10 min.
	if st[len(st)-1] < 5*time.Minute {
		t.Fatalf("tail startup = %v, want multi-minute", st[len(st)-1])
	}
	// Larger tasks bear a longer tail than small ones.
	small := StartupTimes(rand.New(rand.NewSource(3)), 32)
	if st[len(st)-1] <= small[len(small)-1] {
		t.Fatal("large task tail not beyond small task tail")
	}
}

func TestRNICsPerContainerFig5(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	counts := map[int]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		v := RNICsPerContainer(r)
		counts[v]++
		switch v {
		case 1, 2, 4, 8:
		default:
			t.Fatalf("invalid RNIC count %d", v)
		}
	}
	if counts[8] <= counts[4] || counts[4] <= counts[2] {
		t.Fatalf("ordering wrong: %v", counts)
	}
	if f := float64(counts[8]) / n; f < 0.6 || f > 0.75 {
		t.Fatalf("P(8 RNICs) = %v, want ≈0.68", f)
	}
}

func TestFlowTableItemsFig6(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const n = 100000
	var sum, max int
	for i := 0; i < n; i++ {
		v := FlowTableItems(r)
		if v < 1 || v > 9300 {
			t.Fatalf("flow table items out of range: %d", v)
		}
		sum += v
		if v > max {
			max = v
		}
	}
	mean := float64(sum) / n
	if mean < 40 {
		t.Fatalf("mean flow-table items = %v, want > 40", mean)
	}
	if max < 2000 {
		t.Fatalf("max flow-table items = %d, want a heavy tail", max)
	}
}

func TestJobGPUsFig12(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	counts := map[int]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		v := JobGPUs(r)
		if v%8 != 0 {
			t.Fatalf("job GPUs %d not a multiple of 8", v)
		}
		counts[v]++
	}
	// 128, 512 and 1024 dominate.
	for _, big := range []int{128, 512, 1024} {
		for _, small := range []int{8, 16, 2048} {
			if counts[big] <= counts[small] {
				t.Fatalf("counts[%d]=%d not above counts[%d]=%d", big, counts[big], small, counts[small])
			}
		}
	}
}

func TestCDF(t *testing.T) {
	s := []time.Duration{1 * time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second}
	cdf := CDF(s, []time.Duration{2 * time.Second, 10 * time.Second, 0})
	if cdf[0] != 0.5 || cdf[1] != 1 || cdf[2] != 0 {
		t.Fatalf("cdf = %v", cdf)
	}
}
