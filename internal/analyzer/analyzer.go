// Package analyzer is SkeletonHunter's analyzer (§4, §6): it ingests
// the probe stream from every overlay agent, aggregates it into the
// detector's temporal windows, batches the anomalies of each analysis
// round, runs localization over them, and raises alarms — feeding the
// blacklist that keeps new training tasks off problematic components
// (§8, "Handling Detected Failures").
//
// In production this role is played by a log service plus a keyed
// streaming compute job (Flink) partitioned by training task; here the
// same shape runs in-process: the analyzer is a set of per-task shards,
// each owning its own detector state, pair map and healthy-observation
// ring. Agent batches land in their task's shard inbox (ingest stage);
// each analysis round fans the shards out over probe.FanOut — the same
// task-pinned worker pool the probe round runs on — where every shard
// drains its inbox through its detector (window/detect stage) and
// disentangles its pending anomalies (localize stage); then it fans
// back in with a deterministic merge:
// shards are visited in ascending task-key order and their anomalies
// and verdicts concatenated in that order (alarm stage). The merge rule
// is what makes the same seed produce bit-identical alarms at any
// GOMAXPROCS or worker count.
package analyzer

import (
	"slices"
	"sort"
	"time"

	"skeletonhunter/internal/component"
	"skeletonhunter/internal/correlate"
	"skeletonhunter/internal/detect"
	"skeletonhunter/internal/localize"
	"skeletonhunter/internal/obs"
	"skeletonhunter/internal/overlay"
	"skeletonhunter/internal/probe"
	"skeletonhunter/internal/sim"
	"skeletonhunter/internal/topology"
)

// Alarm is one analysis-round outcome: the anomalies observed and the
// localization verdicts explaining them.
type Alarm struct {
	At        time.Duration
	Anomalies []detect.Anomaly
	Verdicts  []localize.Verdict
}

// Components returns the union of component IDs named by the alarm's
// verdicts, deduplicated and in ascending ID order. The ordering is
// load-bearing: incident correlation keys off these IDs, so the fold
// order must be a pure function of the alarm's contents — never of
// merge accidents like worker count or verdict arrival order.
func (a Alarm) Components() []component.ID {
	var out []component.ID
	seen := map[component.ID]bool{}
	for _, v := range a.Verdicts {
		for _, c := range v.Components {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Config tunes the analyzer.
type Config struct {
	// Detect is the anomaly-detection configuration.
	Detect detect.Config
	// AnalysisInterval is how often batched anomalies are localized
	// (default 30 s, aligned with the short-term window).
	AnalysisInterval time.Duration
	// PathMemory bounds how many recent probe paths are kept per pair
	// (default 8) and HealthyMemory how many healthy observations are
	// kept per shard (default 512).
	PathMemory    int
	HealthyMemory int
	// Workers bounds the analysis round's fan-out across task shards
	// on the task-pinned pool (probe.FanOut); <= 0 means GOMAXPROCS.
	// Results are identical at any value; this only trades wall-clock
	// for cores.
	Workers int
	// InboxLimit bounds each shard's inbox — records waiting for the
	// next analysis round. When rounds fall behind (an injected delay,
	// a real stall) the inbox fills and further records are shed with
	// a counter bump instead of growing memory without bound: a
	// telemetry storm degrades recall gracefully rather than taking
	// the analyzer down with it. Default 65536 records per shard;
	// negative means unbounded.
	InboxLimit int
	// Obs receives the analyzer's self-monitoring counters and stage
	// timings. Nil disables collection at negligible cost.
	Obs *obs.Stats
	// Correlate, when set, runs the second-layer change-point detector
	// beside the LOF/Z-test round: shards observe their records during
	// drain, close their series at the round barrier, and the engine
	// folds the change-points serially afterwards. Nil disables the
	// layer entirely.
	Correlate *correlate.Engine
}

func (c Config) withDefaults() Config {
	if c.AnalysisInterval == 0 {
		c.AnalysisInterval = 30 * time.Second
	}
	if c.PathMemory == 0 {
		c.PathMemory = 8
	}
	if c.HealthyMemory == 0 {
		c.HealthyMemory = 512
	}
	if c.InboxLimit == 0 {
		c.InboxLimit = 65536
	}
	return c
}

type pairInfo struct {
	src, dst overlay.Addr
	// paths holds the pair's last PathMemory probe paths, oldest first:
	// a copy-shift ring, so a full memory admits a path without
	// reallocating.
	paths [][]topology.LinkID
}

// shard is the per-task analysis partition: the keyed unit of the
// streaming job. All of a task's probe records land here, and nothing
// else does, so shards never contend.
type shard struct {
	task     string
	cfg      Config
	detector *detect.Detector
	inbox    []probe.Record // records awaiting the window/detect stage
	pending  []detect.Anomaly
	pairs    map[detect.PairKey]*pairInfo
	healthy  []localize.Observation
	hIdx     int
	// samples is a reusable buffer for grouping a pair's contiguous
	// records into one ObserveMany call.
	samples []detect.Sample
	// locScratch is the shard's reusable localization workspace (vote
	// accumulator and link interner); per-shard votes merge at the round
	// barrier in task-key order, never across shards.
	locScratch localize.Scratch
}

func newShard(task string, cfg Config) *shard {
	s := &shard{task: task, cfg: cfg, pairs: make(map[detect.PairKey]*pairInfo)}
	s.detector = detect.New(cfg.Detect, func(a detect.Anomaly) {
		s.pending = append(s.pending, a)
	})
	return s
}

// enqueue admits records into the inbox up to the configured bound,
// shedding (and counting) the overflow. Newest records are shed first:
// the retained prefix preserves sample ordering, which the detector's
// windowing assumes.
func (s *shard) enqueue(recs ...probe.Record) (accepted int) {
	if limit := s.cfg.InboxLimit; limit > 0 {
		if room := limit - len(s.inbox); room < len(recs) {
			if room < 0 {
				room = 0
			}
			s.cfg.Obs.Add(obs.RecordsShed, uint64(len(recs)-room))
			recs = recs[:room]
		}
	}
	s.inbox = append(s.inbox, recs...)
	s.cfg.Obs.Add(obs.RecordsIngested, uint64(len(recs)))
	return len(recs)
}

// drain runs the window/detect stage: every inbox record flows through
// the pair map and the detector. The inbox is first restored to
// canonical order — observation time, then pair identity — so the
// round is a pure function of the window's record set, not of how
// delivery interleaved the agents' batches (arrival order between
// agents is an accident of transport scheduling; each agent's own
// records already carry ascending timestamps). The sort also groups a
// pair's records contiguously, so grouping by consecutive runs gives
// one detector lookup per pair per round.
func (s *shard) drain(cs *correlate.Shard) (records int) {
	records = len(s.inbox)
	sort.SliceStable(s.inbox, func(i, j int) bool {
		a, b := &s.inbox[i], &s.inbox[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.SrcContainer != b.SrcContainer {
			return a.SrcContainer < b.SrcContainer
		}
		if a.SrcRail != b.SrcRail {
			return a.SrcRail < b.SrcRail
		}
		if a.DstContainer != b.DstContainer {
			return a.DstContainer < b.DstContainer
		}
		return a.DstRail < b.DstRail
	})
	var (
		runKey   detect.PairKey
		runPI    *pairInfo
		have     bool
		runStart int
	)
	flush := func(end int) {
		if !have {
			return
		}
		if len(s.samples) > 0 {
			s.detector.ObserveMany(runKey, s.samples)
			s.samples = s.samples[:0]
		}
		// The correlate layer rides the same contiguous runs the
		// detector ingest exploits: one series lookup per pair per run.
		if cs != nil {
			cs.ObserveRun(s.inbox[runStart:end])
		}
	}
	for i := range s.inbox {
		rec := &s.inbox[i]
		key := detect.PairKey{
			Task:         string(rec.Task),
			SrcContainer: rec.SrcContainer, SrcRail: rec.SrcRail,
			DstContainer: rec.DstContainer, DstRail: rec.DstRail,
		}
		if !have || key != runKey {
			flush(i)
			runKey = key
			have = true
			runStart = i
			pi, ok := s.pairs[key]
			if !ok {
				pi = &pairInfo{src: rec.Src, dst: rec.Dst}
				s.pairs[key] = pi
			}
			runPI = pi
		}
		if len(rec.Path) > 0 {
			switch paths := runPI.paths; {
			case len(paths) < s.cfg.PathMemory:
				if paths == nil {
					paths = make([][]topology.LinkID, 0, s.cfg.PathMemory)
				}
				runPI.paths = append(paths, rec.Path)
			case len(paths) > 0:
				copy(paths, paths[1:])
				paths[len(paths)-1] = rec.Path
			}
		}
		if !rec.Lost && len(rec.Path) > 0 && rec.RTT < 50*time.Microsecond {
			ob := localize.Observation{Path: rec.Path}
			if len(s.healthy) < s.cfg.HealthyMemory {
				s.healthy = append(s.healthy, ob)
			} else {
				s.healthy[s.hIdx%s.cfg.HealthyMemory] = ob
				s.hIdx++
			}
		}
		s.samples = append(s.samples, detect.Sample{At: rec.At, RTT: rec.RTT, Lost: rec.Lost})
	}
	flush(len(s.inbox))
	s.inbox = s.inbox[:0]
	return records
}

// localizeRound runs the localize stage over the shard's pending
// anomalies. Evidence is assembled in sorted pair-key order so the
// verdict sequence is a pure function of the shard's state.
func (s *shard) localizeRound(loc *localize.Localizer) ([]detect.Anomaly, []localize.Verdict) {
	if len(s.pending) == 0 {
		return nil, nil
	}
	anomalies := s.pending
	s.pending = nil

	// Build localization evidence: one entry per anomalous pair with
	// its recent paths; anomaly types map onto localization symptoms.
	byPair := map[detect.PairKey]localize.Symptom{}
	for _, a := range anomalies {
		sym := localize.SymptomLatency
		switch a.Type {
		case detect.Unconnectivity:
			sym = localize.SymptomUnreachable
		case detect.PacketLoss:
			sym = localize.SymptomLoss
		}
		// Unreachability dominates loss, loss dominates latency.
		if cur, ok := byPair[a.Key]; !ok || sym < cur {
			byPair[a.Key] = sym
		}
	}
	keys := make([]detect.PairKey, 0, len(byPair))
	for key := range byPair {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	var evidence []localize.Evidence
	for _, key := range keys {
		pi, ok := s.pairs[key]
		if !ok {
			continue
		}
		evidence = append(evidence, localize.Evidence{
			Src: pi.src, Dst: pi.dst, Symptom: byPair[key], Paths: pi.paths,
		})
	}
	return anomalies, loc.LocalizeWith(&s.locScratch, evidence, s.healthy)
}

// Analyzer is the sharded streaming pipeline. Its ingest, detect,
// localize and alarm stages count into Config.Obs as records-ingested,
// records-drained, anomalies-detected and alarms-raised.
type Analyzer struct {
	Engine *sim.Engine
	// Localizer is the read-only disentanglement core shared by every
	// shard. Its LocalizeWith path (overlay trace, tomography votes,
	// offload dumps, control-plane lookups) performs no writes — see
	// the audit note on localize.Localizer — so concurrent shards may
	// call it without locking.
	Localizer *localize.Localizer
	// OnAlarm receives every alarm as it is raised.
	OnAlarm func(Alarm)
	// OnGray receives every correlate-layer alarm that changed this
	// round (newly raised, suppression-counted, or chain-extended).
	// Only called when Config.Correlate is set.
	OnGray func(correlate.Alarm)
	// OnRoundEnd runs once at the end of every round that ran (gated
	// rounds change nothing and skip it), after OnGray and OnAlarm,
	// whether or not the round raised anything: the deployment
	// publishes everything the round changed here, once.
	OnRoundEnd func(now time.Duration)
	// Gate, when set, is consulted at the top of every analysis round;
	// returning true withholds the round (telemetry-fault injection:
	// the streaming job falling behind its schedule). A withheld
	// round's records keep accumulating in the bounded shard inboxes,
	// so a long gate degrades into counted shedding, not unbounded
	// memory.
	Gate func(now time.Duration) bool

	cfg     Config
	shards  map[string]*shard
	keys    []string      // shard task keys, ascending: fan-out and merge order
	pool    probe.Pool    // per-slot fan-out scratch
	results []shardResult // per-round scratch, indexed like keys

	alarms    []Alarm
	blacklist map[component.ID]time.Duration // component → first blacklisted
}

// New builds an analyzer over an engine and a localizer.
func New(eng *sim.Engine, loc *localize.Localizer, cfg Config) *Analyzer {
	an := &Analyzer{
		Engine:    eng,
		Localizer: loc,
		cfg:       cfg.withDefaults(),
		shards:    make(map[string]*shard),
		blacklist: make(map[component.ID]time.Duration),
	}
	return an
}

// shardOf returns the task's shard, creating it on first use and
// keeping keys sorted.
func (an *Analyzer) shardOf(task string) *shard {
	if s, ok := an.shards[task]; ok {
		return s
	}
	s := newShard(task, an.cfg)
	an.shards[task] = s
	i, _ := slices.BinarySearch(an.keys, task)
	an.keys = slices.Insert(an.keys, i, task)
	return s
}

// resetShards drops every shard, counting the records still waiting in
// their inboxes as withdrawn; crash and restore start from here before
// a logstore replay repopulates the detectors.
func (an *Analyzer) resetShards() {
	for _, s := range an.shards {
		an.cfg.Obs.Add(obs.RecordsWithdrawn, uint64(len(s.inbox)))
	}
	an.shards = make(map[string]*shard)
	an.keys = an.keys[:0]
}

// Start begins periodic analysis rounds.
func (an *Analyzer) Start() {
	an.Engine.Every(an.Engine.Now()+an.cfg.AnalysisInterval, an.cfg.AnalysisInterval,
		"analysis-round", func(now time.Duration) { an.Round(now) })
}

// warmCorrelate mirrors analyzer shard creation into the correlate
// engine on the serial ingest/prepare paths, preserving the invariant
// that round-fanout shard lookups are pure map reads.
func (an *Analyzer) warmCorrelate(task string) {
	if an.cfg.Correlate != nil {
		an.cfg.Correlate.Warm(task)
	}
}

// IngestBatch consumes one agent round's records at once — the ingest
// stage. A batch belongs to a single task (one sidecar, one task), so
// this is one shard lookup per round; the records wait in the shard's
// inbox until the next round's window/detect stage drains them on the
// worker pool.
func (an *Analyzer) IngestBatch(batch probe.Batch) {
	if len(batch) == 0 {
		return
	}
	an.warmCorrelate(string(batch[0].Task))
	an.shardOf(string(batch[0].Task)).enqueue(batch...)
}

// WarmShard pre-creates a task's shard. The parallel round engine calls
// this serially (ShardSink.Prepare) before probe workers ingest
// concurrently: with every round task warmed, the workers' shard
// lookups are pure map reads and enqueue touches only shard-owned
// state plus atomic counters.
func (an *Analyzer) WarmShard(task string) {
	an.warmCorrelate(task)
	an.shardOf(task)
}

// shardResult is one shard's round output, merged in task-key order.
type shardResult struct {
	anomalies    []detect.Anomaly
	verdicts     []localize.Verdict
	changePoints []correlate.ChangePoint
}

// Round runs one analysis round: fan the shards out over the
// task-pinned pool (each drains its inbox and localizes its pending
// anomalies), fan back in by ascending task key, raise one alarm,
// update the blacklist.
func (an *Analyzer) Round(now time.Duration) {
	if an.Gate != nil && an.Gate(now) {
		an.cfg.Obs.Inc(obs.RoundsDelayed)
		return
	}
	o := an.cfg.Obs
	o.Inc(obs.RoundsRun)
	roundStart := time.Now()
	defer func() { o.ObserveDuration("analysis-round-ms", time.Since(roundStart)) }()
	if an.OnRoundEnd != nil {
		defer an.OnRoundEnd(now)
	}

	cor := an.cfg.Correlate
	var corRound int
	if cor != nil {
		corRound = cor.BeginRound()
	}
	keys := an.keys
	if cap(an.results) < len(keys) {
		an.results = make([]shardResult, len(keys))
	}
	results := an.results[:len(keys)]
	// Wall-clock stage timings are observability only: they never feed
	// back into the simulation, so alarms stay bit-identical with or
	// without an observer.
	probe.FanOut(&an.pool, an.cfg.Workers, keys, func(_, i int) {
		start := time.Now()
		task, s := keys[i], an.shards[keys[i]]
		var cs *correlate.Shard
		if cor != nil {
			cs = cor.ShardOf(task)
		}
		evalBefore := s.detector.Evaluated
		n := s.drain(cs)
		o.ObserveDuration("stage-detect-ms", time.Since(start))
		o.Add(obs.RecordsDrained, uint64(n))
		localizeStart := time.Now()
		anomalies, verdicts := s.localizeRound(an.Localizer)
		o.ObserveDuration("stage-localize-ms", time.Since(localizeStart))
		o.Add(obs.WindowsEvaluated, uint64(s.detector.Evaluated-evalBefore))
		o.Add(obs.AnomaliesDetected, uint64(len(anomalies)))
		results[i] = shardResult{anomalies: anomalies, verdicts: verdicts}
		if cs != nil {
			results[i].changePoints = cs.EndRound(corRound, now)
		}
		o.ObserveDuration("shard-round-ms", time.Since(start))
	})

	// Deterministic merge: results sit in ascending task-key order;
	// concatenation preserves it. Cross-shard duplicates (two tasks
	// blaming the same component) collapse via MergeVerdicts, exactly
	// as a single-batch LocalizeWith would have collapsed them.
	var anomalies []detect.Anomaly
	var verdicts []localize.Verdict
	var changePoints []correlate.ChangePoint
	for _, r := range results {
		anomalies = append(anomalies, r.anomalies...)
		verdicts = append(verdicts, r.verdicts...)
		changePoints = append(changePoints, r.changePoints...)
	}
	clear(results)

	// The correlate fold runs every round — its warmup, dedup decay and
	// lead-lag windows advance with round time, not with anomaly luck.
	if cor != nil {
		for _, ga := range cor.Fold(now, changePoints) {
			if an.OnGray != nil {
				an.OnGray(ga)
			}
		}
	}

	if len(anomalies) == 0 {
		return
	}
	verdicts = localize.MergeVerdicts(verdicts)

	alarm := Alarm{At: now, Anomalies: anomalies, Verdicts: verdicts}
	an.alarms = append(an.alarms, alarm)
	o.Inc(obs.AlarmsRaised)
	for _, c := range alarm.Components() {
		if _, ok := an.blacklist[c]; !ok {
			an.blacklist[c] = now
		}
	}
	if an.OnAlarm != nil {
		an.OnAlarm(alarm)
	}
}

// Flush forces open detector windows closed and runs a final round.
func (an *Analyzer) Flush(now time.Duration) {
	// Drain inboxes first so every record reaches its window, then
	// close the windows; Round would drain too, but by then the flush
	// must already have evaluated the half-open windows.
	for _, task := range an.keys {
		s := an.shards[task]
		var cs *correlate.Shard
		if an.cfg.Correlate != nil {
			cs = an.cfg.Correlate.ShardOf(task)
		}
		evalBefore := s.detector.Evaluated
		n := s.drain(cs)
		an.cfg.Obs.Add(obs.RecordsDrained, uint64(n))
		s.detector.Flush(now)
		an.cfg.Obs.Add(obs.WindowsEvaluated, uint64(s.detector.Evaluated-evalBefore))
	}
	an.Round(now)
}

// Alarms returns every alarm raised so far.
func (an *Analyzer) Alarms() []Alarm { return an.alarms }

// Blacklisted reports whether a component is on the blacklist and when
// it got there.
func (an *Analyzer) Blacklisted(c component.ID) (time.Duration, bool) {
	at, ok := an.blacklist[c]
	return at, ok
}

// Blacklist returns a copy of the blacklist.
func (an *Analyzer) Blacklist() map[component.ID]time.Duration {
	out := make(map[component.ID]time.Duration, len(an.blacklist))
	for k, v := range an.blacklist {
		out[k] = v
	}
	return out
}

// Shards returns the number of live task shards.
func (an *Analyzer) Shards() int { return len(an.shards) }

// ForgetTask drops the finished task's entire shard, including its
// correlate series; records still in its inbox count as withdrawn.
func (an *Analyzer) ForgetTask(task string) {
	if s, ok := an.shards[task]; ok {
		an.cfg.Obs.Add(obs.RecordsWithdrawn, uint64(len(s.inbox)))
		delete(an.shards, task)
		i, _ := slices.BinarySearch(an.keys, task)
		an.keys = slices.Delete(an.keys, i, i+1)
	}
	if an.cfg.Correlate != nil {
		an.cfg.Correlate.Forget(task)
	}
}

// ForgetContainer drops state for every pair touching a gracefully
// stopped container. Without this, the half-open windows of pairs that
// probed the container in its final second would read as loss.
func (an *Analyzer) ForgetContainer(task string, containerIdx int) {
	s, ok := an.shards[task]
	if !ok {
		return
	}
	match := func(k detect.PairKey) bool {
		return k.Task == task && (k.SrcContainer == containerIdx || k.DstContainer == containerIdx)
	}
	s.detector.ForgetMatching(match)
	for k := range s.pairs {
		if match(k) {
			delete(s.pairs, k)
		}
	}
	// Inbox records touching the container are withdrawn before they
	// ever reach a window, and pending anomalies from those pairs are
	// withdrawn too: the control plane told us the container left on
	// purpose. They count as withdrawn.
	kept := s.inbox[:0]
	for _, rec := range s.inbox {
		if rec.SrcContainer != containerIdx && rec.DstContainer != containerIdx {
			kept = append(kept, rec)
		}
	}
	an.cfg.Obs.Add(obs.RecordsWithdrawn, uint64(len(s.inbox)-len(kept)))
	s.inbox = kept
	var keptPending []detect.Anomaly
	for _, a := range s.pending {
		if !match(a.Key) {
			keptPending = append(keptPending, a)
		}
	}
	s.pending = keptPending
}
