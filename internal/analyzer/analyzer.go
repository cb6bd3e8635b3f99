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
// each owning one pair table (per pair: detector windows, recent paths
// and overlay endpoints) and a healthy-observation ring. Agent batches
// land in their task's shard inbox as pointer-free 48-byte entries that
// index their pair's slot and a shard-owned pool of path ordinals
// (ingest stage); each analysis round fans the shards
// out over probe.FanOut — the same task-pinned worker pool the probe
// round runs on — where every shard drains its inbox into its slots and
// detector (window/detect stage) and disentangles its pending anomalies
// (localize stage); then it fans back in with a deterministic merge:
// shards are visited in ascending task-key order and their anomalies
// and verdicts concatenated in that order (alarm stage). The merge rule
// is what makes the same seed produce bit-identical alarms at any
// GOMAXPROCS or worker count.
package analyzer

import (
	"cmp"
	"fmt"
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
	// (default 8).
	PathMemory int
	// Workers bounds the analysis round's fan-out across task shards
	// on the task-pinned pool (probe.FanOut); <= 0 means GOMAXPROCS.
	// Results are identical at any value; this only trades wall-clock
	// for cores.
	Workers int
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
	return c
}

// healthyMemory bounds how many healthy observations a shard keeps.
const healthyMemory = 512

// pathStride is the ordinals a healthy observation holds in place: one
// tunnel leg's longest route.
const pathStride = topology.MaxPathNodes - 1

// pairKey is a pair's shard-local key: its task-local coordinates (src
// container, src rail, dst container, dst rail), 16 bits each, packed so
// that integer order is the canonical (lexicographic) pair order.
type pairKey uint64

func keyOf(sc, sr, dc, dr int) pairKey {
	if uint(sc|sr|dc|dr) > 0xffff {
		panic(fmt.Sprintf("analyzer: pair c%d/r%d→c%d/r%d outside 16-bit coordinates", sc, sr, dc, dr))
	}
	return pairKey(sc)<<48 | pairKey(sr)<<32 | pairKey(dc)<<16 | pairKey(dr)
}

// detectKey expands k into the detector's task-qualified pair key.
func (k pairKey) detectKey(task string) detect.PairKey {
	return detect.PairKey{
		Task:         task,
		SrcContainer: int(k >> 48), SrcRail: int(k >> 32 & 0xffff),
		DstContainer: int(k >> 16 & 0xffff), DstRail: int(k & 0xffff),
	}
}

// touches reports whether the pair has container c at either end.
func (k pairKey) touches(c int) bool {
	return int(k>>48) == c || int(k>>16&0xffff) == c
}

// slot is one pair's entry in its shard's pair table: everything the
// analyzer keeps per pair, stored once.
type slot struct {
	det detect.Pair
	// src and dst are the endpoints as the pair's newest drained run
	// probed them, so evidence follows a migrated or restarted container.
	src, dst overlay.Addr
	// paths holds the pair's last PathMemory probe paths, oldest first,
	// each as its length followed by its link ordinals; npaths counts
	// them. It is a copy-shift ring the slot owns, so a full memory
	// admits a path without reallocating.
	paths  []int32
	npaths int
}

// remember admits one probe path into the slot's path memory, dropping
// the oldest once memory paths are held.
func (sl *slot) remember(path []int32, memory int) {
	if memory <= 0 {
		return
	}
	if sl.paths == nil {
		// A pair's ECMP paths share one length, so this sizes the
		// memory for good.
		sl.paths = make([]int32, 0, memory*(1+len(path)))
	}
	if sl.npaths == memory {
		sl.paths = append(sl.paths[:0], sl.paths[1+sl.paths[0]:]...)
		sl.npaths--
	}
	sl.paths = append(sl.paths, int32(len(path)))
	sl.paths = append(sl.paths, path...)
	sl.npaths++
}

// entry is one probe record waiting in a shard inbox, cut down to what
// drain reads — including the endpoint hosts, which a migration or
// restart can change mid-round: 48 bytes against a probe.Record's 176,
// and nothing for the GC to scan. Its path is the pathLen ordinals at
// pathOff in the shard's path pool.
type entry struct {
	At, RTT          time.Duration
	key              pairKey
	slot             int32
	srcHost, dstHost int32
	pathOff, pathLen int32
	lost             bool
}

// shard is the per-task analysis partition: the keyed unit of the
// streaming job. All of a task's probe records land here, and nothing
// else does, so shards never contend.
type shard struct {
	task     string
	cfg      Config
	detector *detect.Detector
	// index and slots are the pair table; free lists slots a forgotten
	// pair left for reuse. Slot positions never reach an output.
	index    map[pairKey]int32
	slots    []slot
	free     []int32
	inbox    []entry // records awaiting the window/detect stage
	pathPool []int32 // the inbox entries' path ordinals
	pending  []detect.Anomaly
	// healthy is the ring of recent healthy observations; their paths
	// live in healthyLinks (see observeHealthy).
	healthy      []localize.Observation
	healthyLinks []int32
	hIdx         int
	// samples is a reusable buffer for one pair run's samples: the
	// detector and the correlate layer both read it.
	samples []detect.Sample
	// locScratch is the shard's reusable localization workspace (the
	// vote accumulator); per-shard votes merge at the round barrier in
	// task-key order, never across shards.
	locScratch localize.Scratch
}

func newShard(task string, cfg Config) *shard {
	s := &shard{task: task, cfg: cfg, index: make(map[pairKey]int32)}
	s.detector = detect.New(cfg.Detect, func(a detect.Anomaly) {
		s.pending = append(s.pending, a)
	})
	return s
}

// slotOf returns the pair's slot, taking a free one (or a new one) for
// a pair seen for the first time, with rec's endpoints.
func (s *shard) slotOf(k pairKey, rec *probe.Record) int32 {
	if i, ok := s.index[k]; ok {
		return i
	}
	var i int32
	if n := len(s.free); n > 0 {
		i, s.free = s.free[n-1], s.free[:n-1]
	} else {
		i = int32(len(s.slots))
		s.slots = append(s.slots, slot{})
	}
	s.slots[i].src, s.slots[i].dst = rec.Src, rec.Dst
	s.index[k] = i
	return i
}

// enqueue admits one agent round's records into the inbox, resolving
// each pair run's slot once and copying the borrowed paths into the
// shard's path pool. Nothing is refused: an entry is small enough that
// a stalled round's backlog fits.
func (s *shard) enqueue(recs probe.Batch) {
	runKey, runIdx := pairKey(0), int32(-1)
	for i := range recs {
		rec := &recs[i]
		k := keyOf(rec.SrcContainer, rec.SrcRail, rec.DstContainer, rec.DstRail)
		if runIdx < 0 || k != runKey {
			runKey, runIdx = k, s.slotOf(k, rec)
		}
		s.inbox = append(s.inbox, entry{
			At: rec.At, RTT: rec.RTT,
			key: k, slot: runIdx,
			srcHost: int32(rec.Src.Host), dstHost: int32(rec.Dst.Host),
			pathOff: int32(len(s.pathPool)), pathLen: int32(len(rec.Path)),
			lost: rec.Lost,
		})
		s.pathPool = append(s.pathPool, rec.Path...)
	}
	s.cfg.Obs.Add(obs.RecordsIngested, uint64(len(recs)))
}

// canonical orders inbox entries by observation time, then pair.
func canonical(a, b entry) int {
	if c := cmp.Compare(a.At, b.At); c != 0 {
		return c
	}
	return cmp.Compare(a.key, b.key)
}

// drain runs the window/detect stage: every inbox entry flows into its
// pair's slot and the detector. The inbox is first restored to
// canonical order — observation time, then pair — so the round is a
// pure function of the window's record set, not of how delivery
// interleaved the agents' batches (arrival order between agents is an
// accident of transport scheduling; each agent's own records already
// carry ascending timestamps). The order also groups a pair's records
// contiguously, so each run of one pair is one detector call.
func (s *shard) drain(cs *correlate.Shard) (records int) {
	records = len(s.inbox)
	slices.SortStableFunc(s.inbox, canonical)
	for lo := 0; lo < len(s.inbox); {
		hi := lo + 1
		for hi < len(s.inbox) && s.inbox[hi].key == s.inbox[lo].key {
			hi++
		}
		s.observeRun(cs, s.inbox[lo:hi])
		lo = hi
	}
	s.inbox = s.inbox[:0]
	s.pathPool = s.pathPool[:0]
	return records
}

// observeRun feeds one pair's run of entries into its slot: the
// endpoints the run probed, its paths, the healthy ring, then the
// detector and the correlate layer.
func (s *shard) observeRun(cs *correlate.Shard, run []entry) {
	sl := &s.slots[run[0].slot]
	sl.src.Host, sl.dst.Host = int(run[0].srcHost), int(run[0].dstHost)
	s.samples = s.samples[:0]
	for i := range run {
		e := &run[i]
		path := s.pathPool[e.pathOff : e.pathOff+e.pathLen]
		if len(path) > 0 {
			sl.remember(path, s.cfg.PathMemory)
		}
		if !e.lost && len(path) > 0 && e.RTT < 50*time.Microsecond {
			s.observeHealthy(path)
		}
		s.samples = append(s.samples, detect.Sample{At: e.At, RTT: e.RTT, Lost: e.lost})
	}
	key := run[0].key.detectKey(s.task)
	s.detector.ObserveMany(key, &sl.det, s.samples)
	if cs != nil {
		cs.ObserveRun(key, sl.src, sl.dst, s.samples)
	}
}

// observeHealthy records one healthy probe path in the shard's ring,
// copied into storage the ring owns: each entry's stride of one shared
// array, or a buffer of the entry's own once a longer path lands there.
func (s *shard) observeHealthy(path []int32) {
	i := len(s.healthy)
	if i < healthyMemory {
		if s.healthy == nil {
			s.healthy = make([]localize.Observation, 0, healthyMemory)
			s.healthyLinks = make([]int32, healthyMemory*pathStride)
		}
		lo := i * pathStride
		s.healthy = append(s.healthy, localize.Observation{Path: s.healthyLinks[lo : lo : lo+pathStride]})
	} else {
		i = s.hIdx % healthyMemory
		s.hIdx++
	}
	ob := &s.healthy[i]
	ob.Path = append(ob.Path[:0], path...)
}

// flush closes every pair's open windows at now, walking the pair
// table in key order so the flush-path anomaly sequence is a pure
// function of the shard's state.
func (s *shard) flush(now time.Duration) {
	keys := make([]pairKey, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		s.detector.Flush(k.detectKey(s.task), &s.slots[s.index[k]].det, now)
	}
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
	return anomalies, loc.LocalizeWith(&s.locScratch, s.evidence(anomalies), s.healthy)
}

// evidence builds the localization evidence for a round's anomalies:
// one entry per anomalous pair, in pair-key order, with the endpoints
// and recent paths its slot holds (views into the slot's path memory,
// read before the next drain moves it); anomaly types map onto
// localization symptoms.
func (s *shard) evidence(anomalies []detect.Anomaly) []localize.Evidence {
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
		i, ok := s.index[keyOf(key.SrcContainer, key.SrcRail, key.DstContainer, key.DstRail)]
		if !ok {
			continue
		}
		sl := &s.slots[i]
		var paths [][]int32
		if sl.npaths > 0 {
			paths = make([][]int32, 0, sl.npaths)
			for off := int32(0); int(off) < len(sl.paths); {
				lo, hi := off+1, off+1+sl.paths[off]
				paths = append(paths, sl.paths[lo:hi:hi])
				off = hi
			}
		}
		evidence = append(evidence, localize.Evidence{
			Src: sl.src, Dst: sl.dst, Symptom: byPair[key], Paths: paths,
		})
	}
	return evidence
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
	// round's records stay queued in the shard inboxes, 48 bytes each,
	// and the next round that runs drains them all.
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
// this is one shard lookup per round and one slot lookup per pair run;
// the records wait in the shard's inbox as compact entries until the
// next round's window/detect stage drains them on the worker pool.
func (an *Analyzer) IngestBatch(batch probe.Batch) {
	if len(batch) == 0 {
		return
	}
	an.warmCorrelate(string(batch[0].Task))
	an.shardOf(string(batch[0].Task)).enqueue(batch)
}

// WarmShard pre-creates a task's shard. The parallel round engine calls
// this serially (ShardSink.Prepare) before probe workers ingest
// concurrently: with every round task warmed, the workers' shard
// lookups are pure map reads and enqueue touches only shard-owned
// state (its inbox and pair table) plus atomic counters.
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
		s.flush(now)
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
	for k, i := range s.index {
		if k.touches(containerIdx) {
			delete(s.index, k)
			s.slots[i] = slot{}
			s.free = append(s.free, i)
		}
	}
	// Inbox records touching the container are withdrawn before they
	// ever reach a window, and pending anomalies from those pairs are
	// withdrawn too: the control plane told us the container left on
	// purpose. They count as withdrawn.
	kept := s.inbox[:0]
	for _, e := range s.inbox {
		if !e.key.touches(containerIdx) {
			kept = append(kept, e)
		}
	}
	an.cfg.Obs.Add(obs.RecordsWithdrawn, uint64(len(s.inbox)-len(kept)))
	s.inbox = kept
	var keptPending []detect.Anomaly
	for _, a := range s.pending {
		if a.Key.SrcContainer != containerIdx && a.Key.DstContainer != containerIdx {
			keptPending = append(keptPending, a)
		}
	}
	s.pending = keptPending
}
