package correlate

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"skeletonhunter/internal/component"
	"skeletonhunter/internal/detect"
	"skeletonhunter/internal/overlay"
	"skeletonhunter/internal/topology"
)

// --- CUSUM -----------------------------------------------------------

func testCfg() Config { return Config{Warmup: 5}.withDefaults() }

func TestCUSUMWarmupNeverFires(t *testing.T) {
	cfg := testCfg()
	c := CUSUM{Warmup: 5, SigmaFloor: 0.05}
	for i := 0; i < 5; i++ {
		if fired, _, _, _ := c.Observe(1e9, &cfg); fired {
			t.Fatalf("fired during warmup at observation %d", i)
		}
	}
	if c.Mu != 1e9 {
		t.Fatalf("mu = %g, want 1e9", c.Mu)
	}
	if c.Sig != 0.05 {
		t.Fatalf("sigma floor not applied: sig = %g", c.Sig)
	}
}

func TestCUSUMLevelShiftFires(t *testing.T) {
	cfg := testCfg()
	c := CUSUM{Warmup: 5, SigmaFloor: 0.05}
	vals := []float64{10.1, 9.9, 10.2, 9.8, 10.0}
	for _, v := range vals {
		c.Observe(v, &cfg)
	}
	// Step to 11: z ≈ 6σ, the level pair crosses on the first sample.
	fired, v, dir, stat := c.Observe(11, &cfg)
	if !fired || v != VariantLevel || dir != +1 {
		t.Fatalf("step change: fired=%v variant=%v dir=%d, want level-shift +1", fired, v, dir)
	}
	if stat <= cfg.LevelH {
		t.Fatalf("stat %g not above threshold %g", stat, cfg.LevelH)
	}
	if c.LevelPos != 0 {
		t.Fatalf("accumulator not reset after firing: %g", c.LevelPos)
	}
}

func TestCUSUMDriftFiresDriftVariant(t *testing.T) {
	cfg := testCfg()
	c := CUSUM{Warmup: 5, SigmaFloor: 0.05}
	for i := 0; i < 5; i++ {
		c.Observe(10, &cfg)
	}
	// Slow creep at 0.1σ/round: far below the level pair's reference,
	// but the drift accumulator integrates it.
	x := 10.0
	for i := 1; i <= 30; i++ {
		x += 0.005
		fired, v, dir, _ := c.Observe(x, &cfg)
		if fired {
			if v != VariantDrift || dir != +1 {
				t.Fatalf("drift fired as variant=%v dir=%d, want drift +1", v, dir)
			}
			return
		}
	}
	t.Fatal("drift never fired over 30 rounds of creep")
}

func TestCUSUMDownShiftFiresNegative(t *testing.T) {
	cfg := testCfg()
	c := CUSUM{Warmup: 5, SigmaFloor: 0.02}
	for i := 0; i < 5; i++ {
		c.Observe(1.0, &cfg)
	}
	fired, _, dir, _ := c.Observe(0.5, &cfg)
	if !fired || dir != -1 {
		t.Fatalf("droop: fired=%v dir=%d, want fired -1", fired, dir)
	}
}

func TestCUSUMQuietOnStationaryNoise(t *testing.T) {
	cfg := testCfg()
	c := CUSUM{Warmup: 5, SigmaFloor: 0.01}
	vals := []float64{10.1, 9.9, 10.2, 9.8, 10.0}
	for _, v := range vals {
		c.Observe(v, &cfg)
	}
	for i := 0; i < 100; i++ {
		if fired, v, _, stat := c.Observe(vals[i%len(vals)], &cfg); fired {
			t.Fatalf("fired on stationary noise at round %d (%v, stat %g)", i, v, stat)
		}
	}
}

// --- stable bloom ----------------------------------------------------

func TestBloomSeenThenMark(t *testing.T) {
	b := newStableBloom(256, 3, 4, 3, 1)
	if b.seenThenMark("a") {
		t.Fatal("fresh key read as present")
	}
	if !b.seenThenMark("a") {
		t.Fatal("just-inserted key read as absent")
	}
}

func TestBloomDecayForgets(t *testing.T) {
	b := newStableBloom(32, 3, 4, 3, 1)
	b.seenThenMark("victim")
	// A long run of other insertions decays the victim's cells; the
	// filter must eventually forget it so a recurrence pages again.
	forgotten := false
	for i := 0; i < 200 && !forgotten; i++ {
		b.seenThenMark("other-" + strings.Repeat("x", i%7) + string(rune('a'+i%26)))
		h1, h2 := hash2("victim")
		n := uint64(len(b.cells))
		present := true
		for k := 0; k < b.k; k++ {
			if b.cells[(h1+uint64(k)*h2)%n] == 0 {
				present = false
			}
		}
		forgotten = !present
	}
	if !forgotten {
		t.Fatal("victim key never decayed out of a 32-cell filter after 200 inserts")
	}
}

func TestBloomDeterministicAcrossInstances(t *testing.T) {
	a := newStableBloom(128, 3, 4, 3, 42)
	b := newStableBloom(128, 3, 4, 3, 42)
	keys := []string{"x", "y", "x", "z", "w", "y", "x"}
	for _, k := range keys {
		ra, rb := a.seenThenMark(k), b.seenThenMark(k)
		if ra != rb {
			t.Fatalf("divergent verdict for %q", k)
		}
	}
	if !reflect.DeepEqual(a.cells, b.cells) || a.rng != b.rng {
		t.Fatal("same seed + same inserts produced different filter state")
	}
}

// --- AppendCapped ----------------------------------------------------

func TestAppendCapped(t *testing.T) {
	var s []string
	for i := 0; i < 5; i++ {
		s = AppendCapped(s, 3, string(rune('a'+i)))
	}
	if want := []string{"c", "d", "e"}; !reflect.DeepEqual(s, want) {
		t.Fatalf("capped = %v, want %v (observation order, newest kept)", s, want)
	}
	s = nil
	for i := 0; i < 5; i++ {
		s = AppendCapped(s, 0, "n") // max 0 = uncapped
	}
	if len(s) != 5 {
		t.Fatalf("uncapped len = %d, want 5", len(s))
	}
}

// --- engine ----------------------------------------------------------

const roundLen = 10 * time.Second

// run is one pair's run of samples as the analyzer's drain hands it
// over: the pair, the endpoints it probed, and its samples.
type run struct {
	key      detect.PairKey
	src, dst overlay.Addr
	samples  []detect.Sample
}

// pairRun builds n rail-0 samples for one (src,dst) pair at the given
// RTT, with `lost` of them dropped.
func pairRun(sc, dc, sh, dh int, at, rtt time.Duration, n, lost int) run {
	r := run{
		key: detect.PairKey{SrcContainer: sc, DstContainer: dc},
		src: overlay.Addr{Host: sh},
		dst: overlay.Addr{Host: dh},
	}
	for i := 0; i < n; i++ {
		r.samples = append(r.samples, detect.Sample{At: at, RTT: rtt, Lost: i < lost})
	}
	return r
}

// driver steps an engine through analysis rounds the way the analyzer
// does: BeginRound, per-shard observe + EndRound, then the serial Fold.
type driver struct {
	e   *Engine
	now time.Duration
}

func (d *driver) round(task string, runs ...run) []Alarm {
	d.now += roundLen
	r := d.e.BeginRound()
	var cps []ChangePoint
	if task != "" {
		sh := d.e.ShardOf(task)
		for _, r := range runs {
			sh.ObserveRun(r.key, r.src, r.dst, r.samples)
		}
		cps = sh.EndRound(r, d.now)
	}
	return d.e.Fold(d.now, cps)
}

func TestEngineDroopMintsThenSuppresses(t *testing.T) {
	e := New(Config{Warmup: 4})
	e.Warm("job")
	d := &driver{e: e}
	for i := 0; i < 4; i++ {
		d.round("job", pairRun(0, 1, 0, 1, d.now+roundLen, 10*time.Microsecond, 8, 0))
	}
	// Sustained 50% loss: both endpoint RNIC delivery series droop and
	// refire every round; dedup must collapse the storm to 2 alarms.
	first := d.round("job", pairRun(0, 1, 0, 1, d.now+roundLen, 10*time.Microsecond, 8, 4))
	if len(first) != 2 {
		t.Fatalf("round 5 changed alarms = %d, want 2 (one per endpoint RNIC)", len(first))
	}
	for _, al := range first {
		if al.Kind != KindThroughput || al.Suppressed != 0 {
			t.Fatalf("minted alarm %+v, want throughput-droop with no suppression", al)
		}
	}
	d.round("job", pairRun(0, 1, 0, 1, d.now+roundLen, 10*time.Microsecond, 8, 4))
	d.round("job", pairRun(0, 1, 0, 1, d.now+roundLen, 10*time.Microsecond, 8, 4))
	alarms, suppressed, _ := e.Counts()
	if alarms != 2 {
		t.Fatalf("alarm count = %d after 3 storm rounds, want 2 (deduped)", alarms)
	}
	if suppressed < 2 {
		t.Fatalf("suppressed = %d, want ≥2", suppressed)
	}
	for _, al := range e.Alarms() {
		if got := component.ClassOf(al.Component); got != component.ClassRNIC {
			t.Fatalf("alarm component %s class %v, want RNIC", al.Component, got)
		}
	}
}

func TestEngineRTTNeedsClusterVotes(t *testing.T) {
	// One inflamed pair implicates two RNICs with one vote each: below
	// ClusterVotes, no alarm. A second pair sharing the destination
	// corroborates that RNIC — and only that RNIC alarms.
	e := New(Config{Warmup: 4})
	e.Warm("job")
	d := &driver{e: e}
	base := func(rtt time.Duration) []run {
		at := d.now + roundLen
		return []run{
			pairRun(0, 1, 0, 1, at, rtt, 4, 0),
			pairRun(2, 1, 2, 1, at, rtt, 4, 0),
		}
	}
	for i := 0; i < 4; i++ {
		d.round("job", base(10*time.Microsecond)...)
	}
	// Inflate only pair 0→1: rnic/h0 and rnic/h1 each get one vote.
	at := d.now + roundLen
	got := d.round("job",
		pairRun(0, 1, 0, 1, at, 30*time.Microsecond, 4, 0),
		pairRun(2, 1, 2, 1, at, 10*time.Microsecond, 4, 0))
	if len(got) != 0 {
		t.Fatalf("single-pair inflation alarmed: %+v", got)
	}
	// Next round the second pair corroborates inside the two-round
	// cluster window: rnic/h1/r0 (the shared destination) reaches two
	// votes; the leaf endpoints stay at one and stay silent.
	at = d.now + roundLen
	got = d.round("job",
		pairRun(0, 1, 0, 1, at, 10*time.Microsecond, 4, 0),
		pairRun(2, 1, 2, 1, at, 30*time.Microsecond, 4, 0))
	if len(got) != 1 {
		t.Fatalf("corroborated inflation changed %d alarms, want 1", len(got))
	}
	if got[0].Component != component.RNIC(1, 0) || got[0].Kind != KindRTT {
		t.Fatalf("alarm = %+v, want rtt-inflation on %s", got[0], component.RNIC(1, 0))
	}
}

func TestEngineLeadLagEmitsChain(t *testing.T) {
	tor := topology.NodeID("tor/p0/r0")
	depth := 1.0
	e := New(Config{Warmup: 4})
	e.Queues = func() []QueueSample { return []QueueSample{{Node: tor, Depth: depth}} }
	e.Warm("job")
	d := &driver{e: e}
	for i := 0; i < 4; i++ {
		d.round("job", pairRun(0, 1, 0, 1, d.now+roundLen, 10*time.Microsecond, 4, 0))
	}
	// Round 5: the queue explodes one round before RTT inflates — the
	// causal ordering the lead-lag correlator is built to surface.
	depth = 200
	d.round("job", pairRun(0, 1, 0, 1, d.now+roundLen, 10*time.Microsecond, 4, 0))
	for i := 0; i < 4; i++ {
		d.round("job", pairRun(0, 1, 0, 1, d.now+roundLen, 30*time.Microsecond, 4, 0))
	}
	var queueAlarm *Alarm
	for _, al := range e.Alarms() {
		if al.Kind == KindQueue {
			a := al
			queueAlarm = &a
		}
	}
	if queueAlarm == nil {
		t.Fatal("no queue-growth alarm minted")
	}
	if len(queueAlarm.Chains) == 0 {
		t.Fatalf("queue alarm carries no causal chain: %+v", queueAlarm)
	}
	ch := queueAlarm.Chains[0]
	if !strings.Contains(ch, "queue-growth leads task job rtt inflation") {
		t.Fatalf("chain text = %q", ch)
	}
	if _, _, chains := e.Counts(); chains == 0 {
		t.Fatal("Counts reports no chains")
	}
}

func TestEngineForgetDropsSeries(t *testing.T) {
	e := New(Config{Warmup: 4})
	e.Warm("job")
	d := &driver{e: e}
	d.round("job", pairRun(0, 1, 0, 1, d.now+roundLen, 10*time.Microsecond, 4, 0))
	if e.SeriesCount() == 0 {
		t.Fatal("no series after an observed round")
	}
	e.Forget("job")
	if e.SeriesCount() != 0 {
		t.Fatalf("series survive Forget: %d", e.SeriesCount())
	}
	if e.ShardOf("job") != nil {
		t.Fatal("shard survives Forget")
	}
}

// --- snapshot / restore ---------------------------------------------

func TestSnapshotRestoreVersionMismatch(t *testing.T) {
	e := New(Config{})
	if err := e.Restore(Snapshot{Version: SnapshotVersion + 1}); err == nil {
		t.Fatal("future snapshot version accepted")
	}
}

// TestSnapshotRoundTripExact pins the checkpoint contract: restore a
// mid-storm snapshot into a fresh engine and both must continue
// bit-identically — including the dedup RNG stream — and a replay of
// records the snapshot already covers must be a no-op.
func TestSnapshotRoundTripExact(t *testing.T) {
	tor := topology.NodeID("tor/p0/r0")
	cfg := Config{Warmup: 4, Seed: 7}
	mk := func() (*Engine, *float64) {
		depth := new(float64)
		*depth = 1.0
		e := New(cfg)
		e.Queues = func() []QueueSample { return []QueueSample{{Node: tor, Depth: *depth}} }
		return e, depth
	}
	step := func(d *driver, depth *float64, round int) {
		rtt := 10 * time.Microsecond
		loss := 0
		if round > 4 {
			*depth = 200
			rtt = 30 * time.Microsecond
			loss = 2
		}
		d.round("job", pairRun(0, 1, 0, 1, d.now+roundLen, rtt, 4, loss))
	}

	e1, depth1 := mk()
	e1.Warm("job")
	d1 := &driver{e: e1}
	for r := 1; r <= 8; r++ {
		step(d1, depth1, r)
	}
	snap := e1.Snapshot()

	e2, depth2 := mk()
	if err := e2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	*depth2 = *depth1
	if e1.Fingerprint() != e2.Fingerprint() {
		t.Fatal("fingerprint differs immediately after restore")
	}

	// Recovery replay: records at or before the snapshot's high-water
	// mark were already folded pre-crash; feeding them again must not
	// move the restored state.
	sh2 := e2.ShardOf("job")
	replay := pairRun(0, 1, 0, 1, 50*time.Second, 30*time.Microsecond, 4, 2)
	sh2.ObserveRun(replay.key, replay.src, replay.dst, replay.samples)
	if e1.Fingerprint() != e2.Fingerprint() {
		t.Fatal("replayed pre-snapshot records moved restored state")
	}

	d2 := &driver{e: e2, now: d1.now}
	for r := 9; r <= 14; r++ {
		step(d1, depth1, r)
		step(d2, depth2, r)
		if f1, f2 := e1.Fingerprint(), e2.Fingerprint(); f1 != f2 {
			t.Fatalf("fingerprints diverge at round %d", r)
		}
	}
	if !reflect.DeepEqual(e1.Alarms(), e2.Alarms()) {
		t.Fatal("alarm ledgers diverge after restore + continue")
	}
}

func TestCrashWipesState(t *testing.T) {
	e := New(Config{Warmup: 4})
	e.Warm("job")
	d := &driver{e: e}
	for i := 0; i < 6; i++ {
		d.round("job", pairRun(0, 1, 0, 1, d.now+roundLen, 10*time.Microsecond, 4, 2))
	}
	e.Crash()
	if e.SeriesCount() != 0 || len(e.Alarms()) != 0 || e.round != 0 {
		t.Fatal("crash left state behind")
	}
}
