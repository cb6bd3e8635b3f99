// Package correlate is SkeletonHunter's second detection layer: a
// per-series CUSUM change-point detector with stable-bloom alarm
// dedup and co-onset/lead-lag correlation, run beside the LOF/Z-test
// detector every analysis round.
//
// The paper's detector (§5) is tuned for hard faults — abrupt RTT
// shifts and outright loss. Gray failures (slow drift under a ramping
// queue, partial degradation on one rail, a link flapping faster than
// the blacklist reacts) sit below its thresholds, exactly the regime
// the Z-test's 30-minute long window cannot close during a short
// campaign. This layer watches three deterministic series the plane
// already produces — per-pair mean log-RTT, per-RNIC probe delivery
// ratio, and per-ToR queue depth — and flags sustained departures from
// a warmup-calibrated baseline.
//
// Pipeline per analysis round:
//
//  1. CUSUM. Each series carries two one-sided CUSUM pairs: a
//     level-shift variant (k = 1σ, h = 5σ) for step changes and a
//     drift variant (k = 0.25σ, h = 4σ) that integrates slow creep.
//     µ and σ are frozen from the first Warmup round means, so
//     thresholds are seeded-deterministic, never wall-clock-tuned.
//  2. Dedup. Change-points vote per implicated component; candidates
//     pass through a stable Bloom filter keyed by component+kind
//     (4096 cells, 3 hashes, 4 decrements per insert).
//     A flapping link refires CUSUM every dip, but only the first
//     candidate mints an alarm — later ones bump its Suppressed
//     count. Cell decay forgets old keys, bounding how long a
//     suppression shadow lasts.
//  3. Correlation. Co-onset change-points cluster by shared component
//     (an RNIC implicated by two pair series within two rounds is a
//     far stronger signal than one noisy pair), and a lead-lag
//     histogram per (leader component, follower task) emits causal
//     chains — "queue growth leads task RTT inflation by ~2 rounds" —
//     once three lags of at most five rounds accumulate.
//
// These parameters are package constants; only Warmup and the dedup
// seed are configurable.
//
// Concurrency contract: Shards are owned by the analyzer's per-task
// workers during the round fan-out (ShardOf is a pure map read; Warm
// runs only on the serial prologue paths, mirroring the analyzer's own
// shard map). Everything else — BeginRound, Fold, snapshots — runs on
// the engine goroutine. All iteration is over sorted keys, so alarms,
// chains, and fingerprints are bit-identical across worker counts.
package correlate

import (
	"fmt"
	"math"
	"sort"
	"time"

	"skeletonhunter/internal/component"
	"skeletonhunter/internal/detect"
	"skeletonhunter/internal/obs"
	"skeletonhunter/internal/overlay"
	"skeletonhunter/internal/topology"
)

// SeriesKind names the metric family a series (and the alarms it
// raises) belongs to.
type SeriesKind int

const (
	// KindRTT is per-pair mean log-RTT — inflation marks degradation.
	KindRTT SeriesKind = iota
	// KindThroughput is per-RNIC probe delivery ratio — a droop marks
	// loss the windowed detector may quantize away or misattribute.
	KindThroughput
	// KindQueue is per-switch queue depth — growth precedes the RTT
	// inflation it causes, which is what lead-lag chains surface.
	KindQueue
)

func (k SeriesKind) String() string {
	switch k {
	case KindRTT:
		return "rtt-inflation"
	case KindThroughput:
		return "throughput-droop"
	case KindQueue:
		return "queue-growth"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Variant names which CUSUM accumulator crossed its threshold.
type Variant int

const (
	// VariantLevel is the level-shift CUSUM (large k, small h): fast
	// on step changes.
	VariantLevel Variant = iota
	// VariantDrift is the drift CUSUM (small k, large h): integrates
	// slow creep the level pair's larger slack absorbs.
	VariantDrift
)

func (v Variant) String() string {
	if v == VariantDrift {
		return "drift"
	}
	return "level-shift"
}

// The detector's fixed parameters. CUSUM references and thresholds are
// in σ units.
const (
	// levelK/levelH are the level-shift pair's reference and threshold:
	// large slack, small threshold, fast on step changes.
	levelK, levelH = 1.0, 5.0
	// driftK/driftH are the drift pair's: small slack, larger
	// threshold, integrating slow creep.
	driftK, driftH = 0.25, 4.0
	// clusterVotes is how many co-onset RTT change-points must
	// implicate one component within the two-round cluster window
	// before it becomes an alarm candidate. Throughput and queue
	// change-points carry direct attribution and always qualify.
	clusterVotes = 2
	// maxLag bounds, in rounds, how far back a leader change-point can
	// sit from the RTT inflation it explains.
	maxLag = 5
	// chainSupport is how many lag observations a (leader, task) pair
	// needs before its causal chain emits.
	chainSupport = 3
	// maxChains caps the chains retained per alarm, observation order,
	// newest kept.
	maxChains = 8
	// The stable Bloom dedup filter: cells, hashes per key, decrements
	// per insert, and cell maximum.
	bloomCells, bloomHashes, bloomDecay, bloomMax = 4096, 3, 4, 3
)

// Config parameterizes the correlate engine. The zero value is usable;
// withDefaults fills unset fields.
type Config struct {
	// Warmup is how many round means calibrate a series' µ/σ before
	// its CUSUM arms (default 8). Thresholds derive only from these
	// seeded observations — the determinism contract.
	Warmup int
	// Seed seeds the dedup filter's decay RNG (deterministic and
	// checkpointed; default 1).
	Seed int64
	// Obs, when set, receives counters and the stage-correlate-ms
	// histogram. Nil-safe.
	Obs *obs.Stats
}

func (c Config) withDefaults() Config {
	if c.Warmup == 0 {
		c.Warmup = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// CUSUM is one series' change-point state: Welford warmup statistics,
// the frozen baseline, and two one-sided accumulator pairs. Fields are
// exported so checkpoints restore the state bit-exactly.
type CUSUM struct {
	Warmup     int
	SigmaFloor float64
	// Warmup accumulation (Welford), frozen into Mu/Sigma at N==Warmup.
	N        int
	Mean, M2 float64
	Mu, Sig  float64
	// One-sided accumulators, in σ units. A fired pair resets to zero,
	// so a sustained shift refires after re-accumulating — the alarm
	// storm the dedup stage collapses.
	LevelPos, LevelNeg float64
	DriftPos, DriftNeg float64
}

// Observe folds one round mean into the detector. During warmup it
// only calibrates and never fires. After warmup it returns whether a
// threshold crossed, which variant and direction (+1 above baseline,
// −1 below), and the accumulator value at the crossing.
func (c *CUSUM) Observe(x float64) (fired bool, v Variant, dir int, stat float64) {
	if c.N < c.Warmup {
		c.N++
		d := x - c.Mean
		c.Mean += d / float64(c.N)
		c.M2 += d * (x - c.Mean)
		if c.N == c.Warmup {
			c.Mu = c.Mean
			c.Sig = 0
			if c.N > 1 {
				c.Sig = math.Sqrt(c.M2 / float64(c.N-1))
			}
			if c.Sig < c.SigmaFloor {
				c.Sig = c.SigmaFloor
			}
		}
		return false, 0, 0, 0
	}
	z := (x - c.Mu) / c.Sig
	c.LevelPos = math.Max(0, c.LevelPos+z-levelK)
	c.LevelNeg = math.Max(0, c.LevelNeg-z-levelK)
	c.DriftPos = math.Max(0, c.DriftPos+z-driftK)
	c.DriftNeg = math.Max(0, c.DriftNeg-z-driftK)
	// Level wins ties: a step change trips both pairs, and the level
	// variant is the sharper description.
	switch {
	case c.LevelPos > levelH:
		stat, fired, v, dir = c.LevelPos, true, VariantLevel, +1
	case c.LevelNeg > levelH:
		stat, fired, v, dir = c.LevelNeg, true, VariantLevel, -1
	case c.DriftPos > driftH:
		stat, fired, v, dir = c.DriftPos, true, VariantDrift, +1
	case c.DriftNeg > driftH:
		stat, fired, v, dir = c.DriftNeg, true, VariantDrift, -1
	}
	if fired {
		// Restart the whole detector, not just the pair that crossed: a
		// step change loads the drift accumulators too, and leaving them
		// armed would re-report the same shift as "drift" one round
		// later. The crossing is consumed; re-detection must come from
		// fresh post-change evidence.
		c.LevelPos, c.LevelNeg, c.DriftPos, c.DriftNeg = 0, 0, 0, 0
	}
	return fired, v, dir, stat
}

// ChangePoint is one CUSUM threshold crossing.
type ChangePoint struct {
	Round   int
	At      time.Duration
	Kind    SeriesKind
	Variant Variant
	// Direction is +1 for a shift above baseline, −1 below.
	Direction int
	// Stat is the accumulator value at the crossing, in σ units.
	Stat float64
	// Task owns the series for RTT/throughput change-points; "" for
	// fabric-level queue series.
	Task string
	// Series names the series, e.g. "rtt c0.r1→c4.r1".
	Series string
	// Components are the physical components the series implicates.
	Components []component.ID
}

// adverse reports whether the change-point's direction is a
// degradation (RTT up, delivery down, queue up). Benign-direction
// crossings are recorded but never alarm.
func (cp ChangePoint) adverse() bool {
	if cp.Kind == KindThroughput {
		return cp.Direction < 0
	}
	return cp.Direction > 0
}

// Alarm is one deduplicated gray-failure alarm: the first candidate
// for a (component, kind) mints it, later candidates fold into
// Suppressed while the dedup filter remembers the key.
type Alarm struct {
	Seq       int
	Component component.ID
	Kind      SeriesKind
	// At is the first raise; LastAt the most recent fold (raise,
	// suppression, or chain attachment).
	At, LastAt time.Duration
	Round      int
	// Score is the strongest CUSUM statistic folded in, in σ units.
	Score float64
	// ChangePoints counts crossings folded into this alarm.
	ChangePoints int
	// Suppressed counts duplicate candidates collapsed by dedup.
	Suppressed int
	// Chains are the causal chains attached by the lead-lag
	// correlator, observation order, capped at maxChains (newest kept).
	Chains []string
}

func (a Alarm) clone() Alarm {
	a.Chains = append([]string(nil), a.Chains...)
	return a
}

// QueueSample is one switch queue-depth observation, sampled serially
// by the engine's Queues source each round.
type QueueSample struct {
	Node  topology.NodeID
	Depth float64
}

type pairKey struct {
	sc, sr, dc, dr int
}

func (k pairKey) less(o pairKey) bool {
	if k.sc != o.sc {
		return k.sc < o.sc
	}
	if k.sr != o.sr {
		return k.sr < o.sr
	}
	if k.dc != o.dc {
		return k.dc < o.dc
	}
	return k.dr < o.dr
}

type nicKey struct {
	host, rail int
}

func (k nicKey) less(o nicKey) bool {
	if k.host != o.host {
		return k.host < o.host
	}
	return k.rail < o.rail
}

// series is one tracked stream: a CUSUM plus the current round's mean
// accumulator.
type series struct {
	kind  SeriesKind
	name  string
	comps []component.ID
	cusum CUSUM
	sum   float64
	n     int
}

// sigmaFloorFor keeps σ away from zero when warmup happens to be
// noiseless (a lossless NIC's delivery ratio is identically 1), in the
// series' own unit: log-µs for RTT, ratio for delivery, packets for
// queue depth.
func sigmaFloorFor(kind SeriesKind) float64 {
	switch kind {
	case KindThroughput:
		return 0.02
	case KindQueue:
		return 0.5
	default:
		return 0.05
	}
}

// endRound folds the round mean (if any samples arrived) and resets
// the accumulator. Returns the change-point, if one fired.
func (s *series) endRound(round int, now time.Duration, task string) (ChangePoint, bool) {
	if s.n == 0 {
		return ChangePoint{}, false
	}
	x := s.sum / float64(s.n)
	s.sum, s.n = 0, 0
	fired, v, dir, stat := s.cusum.Observe(x)
	if !fired {
		return ChangePoint{}, false
	}
	return ChangePoint{
		Round: round, At: now, Kind: s.kind, Variant: v,
		Direction: dir, Stat: stat, Task: task, Series: s.name,
		Components: s.comps,
	}, true
}

// Shard holds one task's series. It is owned by that task's analyzer
// worker during the round fan-out and by the engine goroutine
// otherwise — the same single-owner contract as analyzer shards.
type Shard struct {
	task   string
	warmup int
	rtt    map[pairKey]*series
	nic    map[nicKey]*series
	// observedThrough is the last EndRound time: every record folded
	// into CUSUM state has At ≤ observedThrough. skipThrough is set
	// from a restored snapshot's observedThrough so the recovery
	// replay feeds the detector without double-counting here —
	// correlate state is restored exactly, not rebuilt.
	observedThrough time.Duration
	skipThrough     time.Duration
}

func newShard(task string, warmup int) *Shard {
	return &Shard{
		task: task, warmup: warmup,
		rtt: make(map[pairKey]*series),
		nic: make(map[nicKey]*series),
	}
}

func (s *Shard) rttSeries(k pairKey, src, dst overlay.Addr) *series {
	sr, ok := s.rtt[k]
	if !ok {
		comps := []component.ID{component.RNIC(src.Host, src.Rail)}
		if d := component.RNIC(dst.Host, dst.Rail); d != comps[0] {
			comps = append(comps, d)
		}
		sr = &series{
			kind:  KindRTT,
			name:  fmt.Sprintf("rtt c%d.r%d→c%d.r%d", k.sc, k.sr, k.dc, k.dr),
			comps: comps,
			cusum: CUSUM{Warmup: s.warmup, SigmaFloor: sigmaFloorFor(KindRTT)},
		}
		s.rtt[k] = sr
	}
	return sr
}

func (s *Shard) nicSeries(k nicKey) *series {
	sn, ok := s.nic[k]
	if !ok {
		id := component.RNIC(k.host, k.rail)
		sn = &series{
			kind:  KindThroughput,
			name:  "thr " + string(id),
			comps: []component.ID{id},
			cusum: CUSUM{Warmup: s.warmup, SigmaFloor: sigmaFloorFor(KindThroughput)},
		}
		s.nic[k] = sn
	}
	return sn
}

// ObserveRun folds one pair's run of samples — the contiguous layout
// the analyzer's sorted drain produces — into the round accumulators.
// src and dst are the pair's endpoints as the run probed them: a
// migrated or restarted container's newer host feeds its new RNIC's
// delivery series. Samples at or before the replay guard are already
// represented in restored CUSUM state and are skipped.
func (s *Shard) ObserveRun(key detect.PairKey, src, dst overlay.Addr, samples []detect.Sample) {
	if len(samples) == 0 {
		return
	}
	rs := s.rttSeries(pairKey{key.SrcContainer, key.SrcRail, key.DstContainer, key.DstRail}, src, dst)
	srcNIC := s.nicSeries(nicKey{src.Host, src.Rail})
	dstNIC := s.nicSeries(nicKey{dst.Host, dst.Rail})
	for _, smp := range samples {
		if smp.At <= s.skipThrough {
			continue
		}
		delivered := 0.0
		if !smp.Lost {
			delivered = 1.0
			if smp.RTT > 0 {
				rs.sum += math.Log(float64(smp.RTT) / float64(time.Microsecond))
				rs.n++
			}
		}
		srcNIC.sum += delivered
		srcNIC.n++
		if dstNIC != srcNIC {
			dstNIC.sum += delivered
			dstNIC.n++
		}
	}
}

// EndRound closes the shard's round: every series with samples feeds
// its CUSUM, and threshold crossings come back sorted by series key.
func (s *Shard) EndRound(round int, now time.Duration) []ChangePoint {
	var cps []ChangePoint
	if len(s.rtt) > 0 {
		keys := make([]pairKey, 0, len(s.rtt))
		for k := range s.rtt {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
		for _, k := range keys {
			if cp, ok := s.rtt[k].endRound(round, now, s.task); ok {
				cps = append(cps, cp)
			}
		}
	}
	if len(s.nic) > 0 {
		keys := make([]nicKey, 0, len(s.nic))
		for k := range s.nic {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
		for _, k := range keys {
			if cp, ok := s.nic[k].endRound(round, now, s.task); ok {
				cps = append(cps, cp)
			}
		}
	}
	s.observedThrough = now
	return cps
}

// leaderEvent is one adverse queue/throughput change-point retained
// for lead-lag matching against later RTT inflation.
type leaderEvent struct {
	Round     int
	Component component.ID
	Kind      SeriesKind
}

type lagKey struct {
	Component component.ID
	Task      string
}

type lagHist struct {
	Counts  []int // index = lag in rounds, 0..maxLag
	Total   int
	Emitted bool
}

// Engine is the deployment-wide correlate state: per-task shards, the
// fabric-level queue series, the dedup filter, the alarm ledger, and
// the lead-lag correlator. Single-writer from the engine goroutine
// outside the round fan-out.
type Engine struct {
	cfg Config
	// Queues, when set, samples switch queue depths once per round —
	// serially, inside Fold. The source must return samples in a
	// deterministic order.
	Queues func() []QueueSample

	shards map[string]*Shard
	queue  map[topology.NodeID]*series
	bloom  *stableBloom
	round  int

	alarms  []*Alarm
	ledger  map[string]int // component+kind → alarm index
	leaders []leaderEvent
	lags    map[lagKey]*lagHist

	// prev holds the previous round's adverse change-points: the
	// second half of the two-round co-onset cluster window.
	prev []ChangePoint
}

// New builds an engine.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:    cfg,
		shards: make(map[string]*Shard),
		queue:  make(map[topology.NodeID]*series),
		bloom:  newStableBloom(bloomCells, bloomHashes, bloomDecay, bloomMax, cfg.Seed),
		ledger: make(map[string]int),
		lags:   make(map[lagKey]*lagHist),
	}
	return e
}

// Warm ensures the task's shard exists. Serial prologue only — the
// same contract as the analyzer's shard creation.
func (e *Engine) Warm(task string) {
	if _, ok := e.shards[task]; !ok {
		e.shards[task] = newShard(task, e.cfg.Warmup)
	}
}

// ShardOf returns the task's shard, or nil. Pure map read: safe from
// round-fanout workers as long as every task was warmed first.
func (e *Engine) ShardOf(task string) *Shard { return e.shards[task] }

// Forget drops a departed task's series state.
func (e *Engine) Forget(task string) { delete(e.shards, task) }

// BeginRound advances and returns the round index. Serial, before the
// fan-out that stamps change-points with it.
func (e *Engine) BeginRound() int {
	e.round++
	return e.round
}

func (e *Engine) queueSeries(node topology.NodeID) *series {
	s, ok := e.queue[node]
	if !ok {
		s = &series{
			kind:  KindQueue,
			name:  "queue " + string(node),
			comps: []component.ID{component.Switch(node)},
			cusum: CUSUM{Warmup: e.cfg.Warmup, SigmaFloor: sigmaFloorFor(KindQueue)},
		}
		e.queue[node] = s
	}
	return s
}

// vote accumulates a component's co-onset evidence within the cluster
// window.
type vote struct {
	rttVotes int
	direct   bool // named by a queue/throughput change-point this round
	kind     SeriesKind
	stat     float64
	cps      int
}

// Fold is the serial epilogue of one analysis round: queue sampling,
// clustering, dedup, and lead-lag over the round's change-points.
// It returns the alarms that changed (new or updated), as copies.
func (e *Engine) Fold(now time.Duration, cps []ChangePoint) []Alarm {
	start := time.Now()
	defer func() {
		e.cfg.Obs.ObserveDuration("stage-correlate-ms", time.Since(start))
	}()

	// Queue depth is fabric-level, one sample per switch per round,
	// folded here so the source runs exactly once regardless of the
	// worker count.
	if e.Queues != nil {
		for _, qs := range e.Queues() {
			s := e.queueSeries(qs.Node)
			s.sum += qs.Depth
			s.n++
			if cp, ok := s.endRound(e.round, now, ""); ok {
				cps = append(cps, cp)
			}
		}
	}
	if len(cps) > 0 {
		e.cfg.Obs.Add(obs.ChangepointsRaised, uint64(len(cps)))
	}

	adverse := cps[:0:0]
	for _, cp := range cps {
		if cp.adverse() {
			adverse = append(adverse, cp)
		}
	}

	// TimeCluster: vote per component over this round plus the
	// previous one. RTT series implicate two endpoints and need
	// corroboration; queue/throughput attribution is direct.
	votes := make(map[component.ID]*vote)
	tally := func(cp ChangePoint, current bool) {
		for _, c := range cp.Components {
			v, ok := votes[c]
			if !ok {
				v = &vote{kind: cp.Kind}
				votes[c] = v
			}
			if cp.Kind == KindRTT {
				v.rttVotes++
			} else if current {
				v.direct = true
				v.kind = cp.Kind
			}
			if current {
				v.cps++
				if cp.Stat > v.stat {
					v.stat = cp.Stat
					if cp.Kind != KindRTT && v.direct {
						v.kind = cp.Kind
					}
				}
			}
		}
	}
	for _, cp := range e.prev {
		tally(cp, false)
	}
	for _, cp := range adverse {
		tally(cp, true)
	}

	comps := make([]component.ID, 0, len(votes))
	for c, v := range votes {
		if v.cps == 0 { // all evidence from the previous round: already acted on
			continue
		}
		if v.direct || v.rttVotes >= clusterVotes {
			comps = append(comps, c)
		}
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i] < comps[j] })

	changed := make(map[int]bool)
	for _, c := range comps {
		v := votes[c]
		kind := v.kind
		if !v.direct {
			kind = KindRTT
		}
		key := string(c) + "|" + kind.String()
		seen := e.bloom.seenThenMark(key)
		if idx, ok := e.ledger[key]; seen && ok {
			al := e.alarms[idx]
			al.Suppressed++
			al.ChangePoints += v.cps
			al.LastAt = now
			al.Round = e.round
			if v.stat > al.Score {
				al.Score = v.stat
			}
			e.cfg.Obs.Inc(obs.AlarmsDeduped)
			changed[idx] = true
			continue
		}
		al := &Alarm{
			Seq: len(e.alarms), Component: c, Kind: kind,
			At: now, LastAt: now, Round: e.round,
			Score: v.stat, ChangePoints: v.cps,
		}
		e.alarms = append(e.alarms, al)
		e.ledger[key] = al.Seq
		changed[al.Seq] = true
	}

	e.leadLag(now, adverse, changed)

	// Slide the cluster window and the lead-lag leader ring.
	e.prev = append(e.prev[:0], adverse...)
	e.retainLeaders(adverse)

	if len(changed) == 0 {
		return nil
	}
	out := make([]Alarm, 0, len(changed))
	idxs := make([]int, 0, len(changed))
	for idx := range changed {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		out = append(out, e.alarms[idx].clone())
	}
	return out
}

// leadLag matches this round's RTT inflation against recent
// queue/throughput leaders and emits a causal chain once a (leader,
// task) pair accumulates chainSupport lag observations.
func (e *Engine) leadLag(now time.Duration, adverse []ChangePoint, changed map[int]bool) {
	for _, cp := range adverse {
		if cp.Kind != KindRTT || cp.Task == "" {
			continue
		}
		for _, lead := range e.leaders {
			lag := cp.Round - lead.Round
			if lag < 0 || lag > maxLag {
				continue
			}
			lk := lagKey{lead.Component, cp.Task}
			h, ok := e.lags[lk]
			if !ok {
				h = &lagHist{Counts: make([]int, maxLag+1)}
				e.lags[lk] = h
			}
			h.Counts[lag]++
			h.Total++
			if h.Emitted || h.Total < chainSupport {
				continue
			}
			h.Emitted = true
			modal, best := 0, -1
			for l, n := range h.Counts {
				if n > best {
					modal, best = l, n
				}
			}
			chain := fmt.Sprintf("%s %s leads task %s rtt inflation by ~%d round(s) (support %d, confidence %.2f)",
				lead.Component, lead.Kind, cp.Task, modal, h.Total, float64(best)/float64(h.Total))
			e.cfg.Obs.Inc(obs.ChainsEmitted)
			key := string(lead.Component) + "|" + lead.Kind.String()
			if idx, ok := e.ledger[key]; ok {
				al := e.alarms[idx]
				al.Chains = AppendCapped(al.Chains, maxChains, chain)
				al.LastAt = now
				changed[idx] = true
			}
		}
	}
}

// retainLeaders appends this round's adverse queue/throughput
// change-points to the leader ring and evicts entries past maxLag.
func (e *Engine) retainLeaders(adverse []ChangePoint) {
	for _, cp := range adverse {
		if cp.Kind == KindRTT {
			continue
		}
		for _, c := range cp.Components {
			e.leaders = append(e.leaders, leaderEvent{Round: cp.Round, Component: c, Kind: cp.Kind})
		}
	}
	keep := e.leaders[:0]
	for _, lead := range e.leaders {
		if e.round-lead.Round <= maxLag {
			keep = append(keep, lead)
		}
	}
	e.leaders = keep
}

// Alarms returns a copy of the alarm ledger in raise order.
func (e *Engine) Alarms() []Alarm {
	out := make([]Alarm, len(e.alarms))
	for i, al := range e.alarms {
		out[i] = al.clone()
	}
	return out
}

// Counts returns ledger totals: alarms raised, duplicates suppressed,
// and chains attached.
func (e *Engine) Counts() (alarms, suppressed, chains int) {
	for _, al := range e.alarms {
		alarms++
		suppressed += al.Suppressed
		chains += len(al.Chains)
	}
	return
}

// SeriesCount returns how many series the engine tracks (RTT +
// throughput across shards, plus queue series).
func (e *Engine) SeriesCount() int {
	n := len(e.queue)
	for _, s := range e.shards {
		n += len(s.rtt) + len(s.nic)
	}
	return n
}

// AppendCapped appends note to dst keeping observation order, capped
// at max entries with the newest kept — the one evidence-note
// appender shared by incident remediation trails and correlate
// chains, so the cap policy cannot drift between them.
func AppendCapped(dst []string, max int, note string) []string {
	dst = append(dst, note)
	if max > 0 && len(dst) > max {
		dst = append(dst[:0], dst[len(dst)-max:]...)
	}
	return dst
}
