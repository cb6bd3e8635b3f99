package detect

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"skeletonhunter/internal/stats"
)

var testKey = PairKey{Task: "t1", SrcContainer: 0, SrcRail: 0, DstContainer: 1, DstRail: 0}

// feed pushes probes for testKey, whose state is st, at 1/s with RTTs
// drawn from a lognormal around median µs.
func feed(d *Detector, st *Pair, r *rand.Rand, from, dur time.Duration, medianUS float64, lossRate float64) time.Duration {
	dist := stats.LogNormal{Mu: math.Log(medianUS), Sigma: 0.08}
	for at := from; at < from+dur; at += time.Second {
		lost := r.Float64() < lossRate
		rtt := time.Duration(dist.Sample(r) * float64(time.Microsecond))
		d.ObserveMany(testKey, st, []Sample{{At: at, RTT: rtt, Lost: lost}})
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
	var st Pair
	r := rand.New(rand.NewSource(1))
	feed(d, &st, r, 0, time.Hour, 16, 0)
	d.Flush(testKey, &st, time.Hour)
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
	var st Pair
	r := rand.New(rand.NewSource(2))
	at := feed(d, &st, r, 0, 10*time.Minute, 16, 0)
	feed(d, &st, r, at, 2*time.Minute, 120, 0)
	d.Flush(testKey, &st, at+2*time.Minute)
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
	var st Pair
	r := rand.New(rand.NewSource(3))
	at := feed(d, &st, r, 0, 10*time.Minute, 16, 0)
	feed(d, &st, r, at, 5*time.Minute, 120, 0)
	d.Flush(testKey, &st, at+5*time.Minute)
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
	var st Pair
	r := rand.New(rand.NewSource(4))
	at := feed(d, &st, r, 0, 10*time.Minute, 16, 0)
	feed(d, &st, r, at, 2*time.Minute, 32, 0)
	d.Flush(testKey, &st, at+2*time.Minute)
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
	var st Pair
	r := rand.New(rand.NewSource(5))
	at := feed(d, &st, r, 0, 10*time.Minute, 16, 0)
	// One window with a couple of spikes among normal samples.
	dist := stats.LogNormal{Mu: math.Log(16), Sigma: 0.08}
	for i := 0; i < 30; i++ {
		rtt := time.Duration(dist.Sample(r) * float64(time.Microsecond))
		if i == 7 || i == 19 {
			rtt += 40 * time.Microsecond
		}
		d.ObserveMany(testKey, &st, []Sample{{At: at, RTT: rtt}})
		at += time.Second
	}
	at = feed(d, &st, r, at, 5*time.Minute, 16, 0)
	d.Flush(testKey, &st, at)
	for _, a := range *out {
		if a.Type == LatencyShortTerm {
			t.Fatalf("transient spikes raised an alarm: %+v", a)
		}
	}
}

func TestUnconnectivityDetected(t *testing.T) {
	out, emit := collect()
	d := New(Config{}, emit)
	var st Pair
	r := rand.New(rand.NewSource(6))
	at := feed(d, &st, r, 0, 5*time.Minute, 16, 0)
	feed(d, &st, r, at, time.Minute, 16, 1.0) // all lost
	d.Flush(testKey, &st, at+time.Minute)
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
	var st Pair
	r := rand.New(rand.NewSource(7))
	at := feed(d, &st, r, 0, 5*time.Minute, 16, 0)
	feed(d, &st, r, at, 2*time.Minute, 16, 0.15)
	d.Flush(testKey, &st, at+2*time.Minute)
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
	var st Pair
	r := rand.New(rand.NewSource(8))
	// First long window: healthy reference.
	at := feed(d, &st, r, 0, 30*time.Minute, 16, 0)
	// Creep over the next 90 minutes: 16 → 28 µs.
	median := 16.0
	for i := 0; i < 180; i++ { // 180 half-minute steps
		at = feed(d, &st, r, at, 30*time.Second, median, 0)
		median *= 1.0031
	}
	d.Flush(testKey, &st, at)
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
	var st Pair
	r := rand.New(rand.NewSource(9))
	at := feed(d, &st, r, 0, 30*time.Minute, 16, 0)
	at = feed(d, &st, r, at, 90*time.Minute, 16, 0)
	d.Flush(testKey, &st, at)
	for _, a := range *out {
		if a.Type == LatencyLongTerm {
			t.Fatalf("stable stream failed the Z-test: %+v", a)
		}
	}
}

func TestMinSamplesGuard(t *testing.T) {
	out, emit := collect()
	d := New(Config{}, emit)
	var st Pair
	// Two lonely probes in a window: not enough evidence to evaluate.
	d.ObserveMany(testKey, &st, []Sample{{At: 0, RTT: 16 * time.Microsecond}})
	d.ObserveMany(testKey, &st, []Sample{{At: time.Second, RTT: 16 * time.Microsecond, Lost: true}})
	d.Flush(testKey, &st, time.Minute)
	if len(*out) != 0 {
		t.Fatalf("underpopulated window produced anomalies: %+v", *out)
	}
}

// TestForget pins what forgetting a pair means now that the caller owns
// its state: a dropped (zeroed) Pair is a pair never observed, so a
// flush evaluates nothing and leaves it unanchored.
func TestForget(t *testing.T) {
	out, emit := collect()
	d := New(Config{}, emit)
	var st Pair
	r := rand.New(rand.NewSource(10))
	feed(d, &st, r, 0, 5*time.Minute, 16, 0)
	evaluated := d.Evaluated
	st = Pair{}
	d.Flush(testKey, &st, 10*time.Minute)
	if len(*out) != 0 || d.Evaluated != evaluated {
		t.Fatal("forgotten pair still evaluated")
	}
	if st.open {
		t.Fatal("flush anchored a forgotten pair's windows")
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
	var serialSt Pair
	for _, s := range samples {
		serial.ObserveMany(testKey, &serialSt, []Sample{s})
	}
	serial.Flush(testKey, &serialSt, at)

	batchedOut, batchedEmit := collect()
	batched := New(Config{}, batchedEmit)
	var batchedSt Pair
	// Deliver in round-sized chunks, as the analyzer's batch path does.
	for i := 0; i < len(samples); i += 7 {
		end := i + 7
		if end > len(samples) {
			end = len(samples)
		}
		batched.ObserveMany(testKey, &batchedSt, samples[i:end])
	}
	batched.Flush(testKey, &batchedSt, at)

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

// shiftSamples is ten healthy minutes at 16 µs followed by two minutes
// at 120 µs, at 1/s, split at the shift.
func shiftSamples(seed int64) (healthy, shifted []Sample) {
	r := rand.New(rand.NewSource(seed))
	draw := func(median float64, from, dur time.Duration) []Sample {
		dist := stats.LogNormal{Mu: math.Log(median), Sigma: 0.08}
		var out []Sample
		for at := from; at < from+dur; at += time.Second {
			out = append(out, Sample{At: at, RTT: time.Duration(dist.Sample(r) * float64(time.Microsecond))})
		}
		return out
	}
	healthy = draw(16, 0, 10*time.Minute)
	shifted = draw(120, 10*time.Minute, 2*time.Minute)
	return healthy, shifted
}

func sameAnomalies(t *testing.T, what string, got, want []Anomaly) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d anomalies, want %d (%+v vs %+v)", what, len(got), len(want), got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Key != w.Key || g.Type != w.Type || g.At != w.At || g.Score != w.Score {
			t.Fatalf("%s: anomaly %d is %+v, want %+v", what, i, g, w)
		}
	}
}

// TestForgetPair pins that forgetting one pair (dropping its Pair)
// forgets all of it: the same Pair value, zeroed and observed again,
// reports exactly what a never-observed pair reports for the same
// samples, while a pair that kept its look-back flags the shift.
func TestForgetPair(t *testing.T) {
	healthy, shifted := shiftSamples(12)
	end := shifted[len(shifted)-1].At + time.Second

	keptOut, keptEmit := collect()
	kept := New(Config{}, keptEmit)
	var keptSt Pair
	kept.ObserveMany(testKey, &keptSt, healthy)
	kept.ObserveMany(testKey, &keptSt, shifted)
	kept.Flush(testKey, &keptSt, end)
	if len(*keptOut) == 0 {
		t.Fatal("precondition: the shift is not flagged against a healthy look-back")
	}

	forgotOut, forgotEmit := collect()
	forgot := New(Config{}, forgotEmit)
	var st Pair
	forgot.ObserveMany(testKey, &st, healthy)
	st = Pair{}
	forgot.ObserveMany(testKey, &st, shifted)
	forgot.Flush(testKey, &st, end)

	freshOut, freshEmit := collect()
	fresh := New(Config{}, freshEmit)
	var freshSt Pair
	fresh.ObserveMany(testKey, &freshSt, shifted)
	fresh.Flush(testKey, &freshSt, end)

	sameAnomalies(t, "forgotten pair", *forgotOut, *freshOut)
	if len(st.history) != len(freshSt.history) || st.winStart != freshSt.winStart || st.longStart != freshSt.longStart {
		t.Fatalf("forgotten pair's windows differ from a fresh pair's: %d/%v/%v vs %d/%v/%v",
			len(st.history), st.winStart, st.longStart, len(freshSt.history), freshSt.winStart, freshSt.longStart)
	}
}

// TestForgetMatching pins that the detector keeps nothing per pair:
// with the caller dropping the pairs a predicate matches, the pairs it
// keeps report exactly what a detector that only ever saw them reports,
// and the dropped pairs report nothing.
func TestForgetMatching(t *testing.T) {
	keys := []PairKey{
		testKey,
		{Task: "t1", SrcContainer: 2, DstContainer: 3},
		{Task: "t1", SrcContainer: 3, DstContainer: 0},
		{Task: "t1", SrcContainer: 4, DstContainer: 5},
	}
	touchesZero := func(k PairKey) bool { return k.SrcContainer == 0 || k.DstContainer == 0 }
	healthy := make(map[PairKey][]Sample)
	shifted := make(map[PairKey][]Sample)
	for i, k := range keys {
		healthy[k], shifted[k] = shiftSamples(int64(20 + i))
	}
	end := 12 * time.Minute

	allOut, allEmit := collect()
	all := New(Config{}, allEmit)
	pairs := make(map[PairKey]*Pair)
	for _, k := range keys {
		pairs[k] = &Pair{}
		all.ObserveMany(k, pairs[k], healthy[k])
	}
	for k := range pairs {
		if touchesZero(k) {
			delete(pairs, k)
		}
	}
	for _, k := range keys {
		if st, ok := pairs[k]; ok {
			all.ObserveMany(k, st, shifted[k])
			all.Flush(k, st, end)
		}
	}

	keptOut, keptEmit := collect()
	kept := New(Config{}, keptEmit)
	for _, k := range keys {
		if touchesZero(k) {
			continue
		}
		var st Pair
		kept.ObserveMany(k, &st, healthy[k])
		kept.ObserveMany(k, &st, shifted[k])
		kept.Flush(k, &st, end)
	}

	if len(pairs) != 2 || len(*keptOut) == 0 {
		t.Fatalf("precondition: %d pairs kept, %d anomalies on them", len(pairs), len(*keptOut))
	}
	for _, a := range *allOut {
		if touchesZero(a.Key) && a.At >= 10*time.Minute {
			t.Fatalf("dropped pair still evaluated: %+v", a)
		}
	}
	sameAnomalies(t, "kept pairs", *allOut, *keptOut)
}

func TestObserveManyEmpty(t *testing.T) {
	_, emit := collect()
	d := New(Config{}, emit)
	var st Pair
	d.ObserveMany(testKey, &st, nil)
	if st.open {
		t.Fatal("empty batch anchored the pair's windows")
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

// TestHistoryRingKeepsNewestOldestFirst pins the copy-shift ring: the
// look-back holds the newest LookBack healthy vectors, oldest first,
// never outgrows its capacity, and overwrites the evicted vector in
// place instead of allocating a new one.
func TestHistoryRingKeepsNewestOldestFirst(t *testing.T) {
	d := New(Config{ShortWindow: 10 * time.Second, LookBack: 3}, func(Anomaly) {})
	var st Pair
	window := func(w int) {
		for i := 0; i < 10; i++ {
			at := time.Duration(w*10+i) * time.Second
			d.ObserveMany(testKey, &st, []Sample{{At: at, RTT: time.Duration(10+w) * time.Microsecond}})
		}
	}
	for w := 0; w < 7; w++ {
		window(w)
	}
	// Window 6 is still open; flushing it evicts the oldest vector.
	evicted := &st.history[0][0]
	d.Flush(testKey, &st, 70*time.Second)
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
func warmDetector(tb testing.TB) (*Detector, *Pair, []float64) {
	d := New(Config{}, func(a Anomaly) { tb.Fatalf("healthy window raised %+v", a) })
	st := new(Pair)
	r := rand.New(rand.NewSource(37))
	at := feed(d, st, r, 0, 6*time.Minute, 16, 0)
	d.Flush(testKey, st, at)
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
func closeWindow(d *Detector, st *Pair, window []float64) {
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
