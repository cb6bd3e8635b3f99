package detect

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"skeletonhunter/internal/stats"
)

var testKey = PairKey{Task: "t1", SrcContainer: 0, SrcRail: 0, DstContainer: 1, DstRail: 0}

// feed pushes probes at 1/s with RTTs drawn from a lognormal around
// median µs.
func feed(d *Detector, r *rand.Rand, from, dur time.Duration, medianUS float64, lossRate float64) time.Duration {
	dist := stats.LogNormal{Mu: math.Log(medianUS), Sigma: 0.08}
	for at := from; at < from+dur; at += time.Second {
		lost := r.Float64() < lossRate
		rtt := time.Duration(dist.Sample(r) * float64(time.Microsecond))
		d.ObserveMany(testKey, []Sample{{At: at, RTT: rtt, Lost: lost}})
	}
	return from + dur
}

func collect() (*[]Anomaly, func(Anomaly)) {
	var out []Anomaly
	return &out, func(a Anomaly) { out = append(out, a) }
}

func TestHealthyStreamNoAnomalies(t *testing.T) {
	out, emit := collect()
	d := New(Config{}, emit)
	r := rand.New(rand.NewSource(1))
	feed(d, r, 0, time.Hour, 16, 0)
	d.Flush(time.Hour)
	if len(*out) != 0 {
		t.Fatalf("healthy stream produced %d anomalies: %+v", len(*out), (*out)[0])
	}
	if d.Evaluated == 0 {
		t.Fatal("no windows evaluated")
	}
}

func TestAbruptLatencyShiftDetected(t *testing.T) {
	// Fig. 18: 16 µs → 120 µs must trip the short-term LOF within a
	// window or two.
	out, emit := collect()
	d := New(Config{}, emit)
	r := rand.New(rand.NewSource(2))
	at := feed(d, r, 0, 10*time.Minute, 16, 0)
	feed(d, r, at, 2*time.Minute, 120, 0)
	d.Flush(at + 2*time.Minute)
	found := false
	var detectedAt time.Duration
	for _, a := range *out {
		if a.Type == LatencyShortTerm {
			found = true
			detectedAt = a.At
			break
		}
	}
	if !found {
		t.Fatalf("abrupt shift not detected (anomalies: %+v)", *out)
	}
	// Detection latency: within two short windows of the shift.
	if detectedAt > at+time.Minute {
		t.Fatalf("detected at %v, too slow (shift at %v)", detectedAt, at)
	}
}

func TestPersistentFaultKeepsAlarming(t *testing.T) {
	out, emit := collect()
	d := New(Config{}, emit)
	r := rand.New(rand.NewSource(3))
	at := feed(d, r, 0, 10*time.Minute, 16, 0)
	feed(d, r, at, 5*time.Minute, 120, 0)
	d.Flush(at + 5*time.Minute)
	n := 0
	for _, a := range *out {
		if a.Type == LatencyShortTerm {
			n++
		}
	}
	// 5 minutes of fault = ~10 windows; anomalous windows must not be
	// absorbed into history, so nearly all should alarm.
	if n < 8 {
		t.Fatalf("persistent fault alarmed only %d times", n)
	}
}

func TestModerateShiftStillDetected(t *testing.T) {
	// A 2× latency shift (16 → 32 µs) is far outside the 8 % jitter and
	// must be caught by the short-term detector.
	out, emit := collect()
	d := New(Config{}, emit)
	r := rand.New(rand.NewSource(4))
	at := feed(d, r, 0, 10*time.Minute, 16, 0)
	feed(d, r, at, 2*time.Minute, 32, 0)
	d.Flush(at + 2*time.Minute)
	for _, a := range *out {
		if a.Type == LatencyShortTerm {
			return
		}
	}
	t.Fatalf("2× shift not detected: %+v", *out)
}

func TestTransientSpikeFiltered(t *testing.T) {
	// A single spiked probe (transient congestion) must NOT alarm: the
	// window summary absorbs it and LOF sees a near-inlier.
	out, emit := collect()
	d := New(Config{}, emit)
	r := rand.New(rand.NewSource(5))
	at := feed(d, r, 0, 10*time.Minute, 16, 0)
	// One window with a couple of spikes among normal samples.
	dist := stats.LogNormal{Mu: math.Log(16), Sigma: 0.08}
	for i := 0; i < 30; i++ {
		rtt := time.Duration(dist.Sample(r) * float64(time.Microsecond))
		if i == 7 || i == 19 {
			rtt += 40 * time.Microsecond
		}
		d.ObserveMany(testKey, []Sample{{At: at, RTT: rtt}})
		at += time.Second
	}
	at = feed(d, r, at, 5*time.Minute, 16, 0)
	d.Flush(at)
	for _, a := range *out {
		if a.Type == LatencyShortTerm {
			t.Fatalf("transient spikes raised an alarm: %+v", a)
		}
	}
}

func TestUnconnectivityDetected(t *testing.T) {
	out, emit := collect()
	d := New(Config{}, emit)
	r := rand.New(rand.NewSource(6))
	at := feed(d, r, 0, 5*time.Minute, 16, 0)
	feed(d, r, at, time.Minute, 16, 1.0) // all lost
	d.Flush(at + time.Minute)
	for _, a := range *out {
		if a.Type == Unconnectivity {
			return
		}
	}
	t.Fatal("total loss not reported as unconnectivity")
}

func TestPacketLossDetected(t *testing.T) {
	out, emit := collect()
	d := New(Config{}, emit)
	r := rand.New(rand.NewSource(7))
	at := feed(d, r, 0, 5*time.Minute, 16, 0)
	feed(d, r, at, 2*time.Minute, 16, 0.15)
	d.Flush(at + 2*time.Minute)
	for _, a := range *out {
		if a.Type == PacketLoss {
			if a.Score < 0.02 {
				t.Fatalf("loss score = %v", a.Score)
			}
			return
		}
	}
	t.Fatal("15% loss not reported")
}

func TestGradualDegradationCaughtLongTerm(t *testing.T) {
	// Latency creeping +1.5 %/window evades the short-term LOF but the
	// 30-minute Z-test must catch it (Fig. 14's purpose).
	out, emit := collect()
	cfg := Config{LOFThreshold: 1e9} // disable short-term for isolation
	d := New(cfg, emit)
	r := rand.New(rand.NewSource(8))
	// First long window: healthy reference.
	at := feed(d, r, 0, 30*time.Minute, 16, 0)
	// Creep over the next 90 minutes: 16 → 28 µs.
	median := 16.0
	for i := 0; i < 180; i++ { // 180 half-minute steps
		at = feed(d, r, at, 30*time.Second, median, 0)
		median *= 1.0031
	}
	d.Flush(at)
	for _, a := range *out {
		if a.Type == LatencyLongTerm {
			return
		}
	}
	t.Fatal("gradual degradation not caught by long-term analysis")
}

func TestLongTermNoFalsePositiveWhenStable(t *testing.T) {
	out, emit := collect()
	d := New(Config{LOFThreshold: 1e9}, emit)
	r := rand.New(rand.NewSource(9))
	at := feed(d, r, 0, 30*time.Minute, 16, 0)
	at = feed(d, r, at, 90*time.Minute, 16, 0)
	d.Flush(at)
	for _, a := range *out {
		if a.Type == LatencyLongTerm {
			t.Fatalf("stable stream failed the Z-test: %+v", a)
		}
	}
}

func TestMinSamplesGuard(t *testing.T) {
	out, emit := collect()
	d := New(Config{}, emit)
	// Two lonely probes in a window: not enough evidence to evaluate.
	d.ObserveMany(testKey, []Sample{{At: 0, RTT: 16 * time.Microsecond}})
	d.ObserveMany(testKey, []Sample{{At: time.Second, RTT: 16 * time.Microsecond, Lost: true}})
	d.Flush(time.Minute)
	if len(*out) != 0 {
		t.Fatalf("underpopulated window produced anomalies: %+v", *out)
	}
}

func TestForget(t *testing.T) {
	out, emit := collect()
	d := New(Config{}, emit)
	r := rand.New(rand.NewSource(10))
	feed(d, r, 0, 5*time.Minute, 16, 0)
	d.ForgetMatching(func(k PairKey) bool { return k.Task == "t1" })
	d.Flush(10 * time.Minute)
	if len(*out) != 0 {
		t.Fatal("forgotten pair still evaluated")
	}
	if len(d.pairs) != 0 {
		t.Fatal("state not dropped")
	}
}

// TestObserveManyMatchesObserve proves batched ingest is behaviourally
// identical to feeding one sample at a time: same samples, same anomaly
// stream.
func TestObserveManyMatchesObserve(t *testing.T) {
	sample := func(r *rand.Rand, median float64, lossRate float64, at time.Duration) Sample {
		dist := stats.LogNormal{Mu: math.Log(median), Sigma: 0.08}
		lost := r.Float64() < lossRate
		return Sample{At: at, RTT: time.Duration(dist.Sample(r) * float64(time.Microsecond)), Lost: lost}
	}
	var samples []Sample
	r := rand.New(rand.NewSource(11))
	at := time.Duration(0)
	for ; at < 10*time.Minute; at += time.Second {
		samples = append(samples, sample(r, 16, 0, at))
	}
	for ; at < 12*time.Minute; at += time.Second {
		samples = append(samples, sample(r, 120, 0.05, at))
	}

	serialOut, serialEmit := collect()
	serial := New(Config{}, serialEmit)
	for _, s := range samples {
		serial.ObserveMany(testKey, []Sample{s})
	}
	serial.Flush(at)

	batchedOut, batchedEmit := collect()
	batched := New(Config{}, batchedEmit)
	// Deliver in round-sized chunks, as the analyzer's batch path does.
	for i := 0; i < len(samples); i += 7 {
		end := i + 7
		if end > len(samples) {
			end = len(samples)
		}
		batched.ObserveMany(testKey, samples[i:end])
	}
	batched.Flush(at)

	if len(*serialOut) == 0 {
		t.Fatal("scenario produced no anomalies; test has no teeth")
	}
	if len(*serialOut) != len(*batchedOut) {
		t.Fatalf("anomaly counts diverge: serial %d, batched %d", len(*serialOut), len(*batchedOut))
	}
	for i := range *serialOut {
		a, b := (*serialOut)[i], (*batchedOut)[i]
		if a.Type != b.Type || a.At != b.At || a.Score != b.Score {
			t.Fatalf("anomaly %d diverges: serial %+v, batched %+v", i, a, b)
		}
	}
	if serial.Evaluated != batched.Evaluated {
		t.Fatalf("evaluated windows diverge: %d vs %d", serial.Evaluated, batched.Evaluated)
	}
}

func TestObserveManyEmpty(t *testing.T) {
	_, emit := collect()
	d := New(Config{}, emit)
	d.ObserveMany(testKey, nil)
	if len(d.pairs) != 0 {
		t.Fatal("empty batch created pair state")
	}
}

// TestFlushEmitsInSortedPairOrder is the regression for nondeterministic
// flush: anomalies from a final Flush must arrive in canonical pair-key
// order regardless of the (random) map insertion order.
func TestFlushEmitsInSortedPairOrder(t *testing.T) {
	run := func(insertion []int) []PairKey {
		out, emit := collect()
		d := New(Config{}, emit)
		// Every pair loses all probes of one window → unconnectivity on
		// flush, one anomaly per pair.
		for _, c := range insertion {
			key := PairKey{Task: "t1", SrcContainer: c, DstContainer: c + 1}
			for i := 0; i < 10; i++ {
				d.ObserveMany(key, []Sample{{At: time.Duration(i) * time.Second, Lost: true}})
			}
		}
		d.Flush(time.Minute)
		keys := make([]PairKey, 0, len(*out))
		for _, a := range *out {
			keys = append(keys, a.Key)
		}
		return keys
	}
	want := run([]int{0, 2, 4, 6, 8, 10, 12, 14})
	if len(want) != 8 {
		t.Fatalf("flush emitted %d anomalies, want 8", len(want))
	}
	for i := 1; i < len(want); i++ {
		if !want[i-1].Less(want[i]) {
			t.Fatalf("flush emission not sorted: %v before %v", want[i-1], want[i])
		}
	}
	for rep := 0; rep < 5; rep++ {
		got := run([]int{14, 6, 0, 10, 2, 12, 4, 8}) // different insertion order
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rep %d: emission order depends on insertion: got %v want %v", rep, got, want)
			}
		}
	}
}

func TestPairKeyLess(t *testing.T) {
	a := PairKey{Task: "a", SrcContainer: 1, SrcRail: 2, DstContainer: 3, DstRail: 4}
	if a.Less(a) {
		t.Fatal("key less than itself")
	}
	ordered := []PairKey{
		{Task: "a"},
		{Task: "a", SrcContainer: 1},
		{Task: "a", SrcContainer: 1, SrcRail: 1},
		{Task: "a", SrcContainer: 1, SrcRail: 1, DstContainer: 1},
		{Task: "a", SrcContainer: 1, SrcRail: 1, DstContainer: 1, DstRail: 1},
		{Task: "b"},
	}
	for i := 1; i < len(ordered); i++ {
		if !ordered[i-1].Less(ordered[i]) || ordered[i].Less(ordered[i-1]) {
			t.Fatalf("ordering broken between %v and %v", ordered[i-1], ordered[i])
		}
	}
}

func TestPairKeyString(t *testing.T) {
	got := testKey.String()
	if got != "t1:c0/r0→c1/r0" {
		t.Fatalf("key string = %q", got)
	}
}

func TestAnomalyTypeString(t *testing.T) {
	for typ, want := range map[AnomalyType]string{
		Unconnectivity:   "unconnectivity",
		PacketLoss:       "packet-loss",
		LatencyShortTerm: "latency-short-term",
		LatencyLongTerm:  "latency-long-term",
		AnomalyType(9):   "anomaly(9)",
	} {
		if got := typ.String(); got != want {
			t.Errorf("AnomalyType(%d).String() = %q, want %q", int(typ), got, want)
		}
	}
}

func TestForgetPair(t *testing.T) {
	d := New(Config{}, func(Anomaly) {})
	d.ObserveMany(testKey, []Sample{{At: 0, RTT: 16 * time.Microsecond}})
	d.ForgetMatching(func(k PairKey) bool { return k == testKey })
	if len(d.pairs) != 0 {
		t.Fatal("ForgetMatching kept the pair's state")
	}
}

func TestForgetMatching(t *testing.T) {
	d := New(Config{}, func(Anomaly) {})
	other := PairKey{Task: "t1", SrcContainer: 2, DstContainer: 3}
	d.ObserveMany(testKey, []Sample{{At: 0, RTT: 16 * time.Microsecond}})
	d.ObserveMany(other, []Sample{{At: 0, RTT: 16 * time.Microsecond}})
	d.ForgetMatching(func(k PairKey) bool { return k.SrcContainer == 0 || k.DstContainer == 0 })
	if _, ok := d.pairs[testKey]; ok {
		t.Fatal("matching pair kept")
	}
	if _, ok := d.pairs[other]; !ok {
		t.Fatal("non-matching pair dropped")
	}
}

// TestHistoryRingKeepsNewestOldestFirst pins the copy-shift ring: the
// look-back holds the newest LookBack healthy vectors, oldest first,
// never outgrows its capacity, and overwrites the evicted vector in
// place instead of allocating a new one.
func TestHistoryRingKeepsNewestOldestFirst(t *testing.T) {
	d := New(Config{ShortWindow: 10 * time.Second, LookBack: 3}, func(Anomaly) {})
	window := func(w int) {
		for i := 0; i < 10; i++ {
			at := time.Duration(w*10+i) * time.Second
			d.ObserveMany(testKey, []Sample{{At: at, RTT: time.Duration(10+w) * time.Microsecond}})
		}
	}
	for w := 0; w < 7; w++ {
		window(w)
	}
	// Window 6 is still open; flushing it evicts the oldest vector.
	evicted := &d.pairs[testKey].history[0][0]
	d.Flush(70 * time.Second)
	st := d.pairs[testKey]
	if len(st.history) != 3 || cap(st.history) != 3 {
		t.Fatalf("history len %d cap %d, want 3/3", len(st.history), cap(st.history))
	}
	for i, vec := range st.history {
		if want := float64(14 + i); vec[0] != want || vec[3] != want {
			t.Fatalf("history[%d] = %v, want the window at %v µs", i, vec, want)
		}
	}
	if &st.history[2][0] != evicted {
		t.Fatal("newest vector was allocated instead of recycling the evicted one")
	}
}

// warmDetector returns a detector whose test pair has a full look-back
// of healthy 16 µs windows, and one more healthy window's RTTs (µs).
func warmDetector(tb testing.TB) (*Detector, *pairState, []float64) {
	d := New(Config{}, func(a Anomaly) { tb.Fatalf("healthy window raised %+v", a) })
	r := rand.New(rand.NewSource(37))
	at := feed(d, r, 0, 6*time.Minute, 16, 0)
	d.Flush(at)
	st := d.pairs[testKey]
	if len(st.history) != d.cfg.LookBack {
		tb.Fatalf("history %d windows, want a full look-back of %d", len(st.history), d.cfg.LookBack)
	}
	dist := stats.LogNormal{Mu: math.Log(16), Sigma: 0.08}
	window := make([]float64, 30)
	for i := range window {
		window[i] = dist.Sample(r)
	}
	return d, st, window
}

// closeWindow refills the pair's short window and closes it.
func closeWindow(d *Detector, st *pairState, window []float64) {
	st.rtts = append(st.rtts[:0], window...)
	st.total, st.lost = len(window), 0
	d.closeShort(testKey, st, st.winStart+d.cfg.ShortWindow)
}

func TestCloseShortHealthyAllocatesNothing(t *testing.T) {
	d, st, window := warmDetector(t)
	closeWindow(d, st, window)
	if allocs := testing.AllocsPerRun(100, func() { closeWindow(d, st, window) }); allocs != 0 {
		t.Fatalf("closing a healthy window allocated %v times, want 0", allocs)
	}
}

func BenchmarkDetectorWindowClose(b *testing.B) {
	d, st, window := warmDetector(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		closeWindow(d, st, window)
	}
}
