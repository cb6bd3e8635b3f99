package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"

	"skeletonhunter/internal/analyzer"
	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/controller"
	"skeletonhunter/internal/correlate"
	"skeletonhunter/internal/faults"
	"skeletonhunter/internal/hunter"
	"skeletonhunter/internal/netsim"
	"skeletonhunter/internal/obs"
	"skeletonhunter/internal/scenario"
)

// Quick-mode sizes: a smoke run that exercises every code path of the
// harness in well under a second per workload.
const (
	quickHosts  = 64
	quickTicks  = 20
	quickWarmup = 10
	minTicks    = 30
)

// inferWindow is the synthesized traffic window skeleton inference
// observes; it must cover at least one STFT frame of the 1 Hz series.
const inferWindow = 900 * time.Second

type runConfig struct {
	seed    int64
	seconds int
	quick   bool
	workers int
}

func (c runConfig) size(w *workload) (hosts, warmup, ticks int) {
	if c.quick {
		return quickHosts, quickWarmup, quickTicks
	}
	ticks = w.ticksPerSecond * c.seconds
	if ticks < minTicks {
		ticks = minTicks
	}
	return w.hosts, w.warmup, ticks
}

// outcome is everything one run of one workload measured.
type outcome struct {
	workload *workload
	seed     int64
	ticks    int
	workers  int

	newMs, fillMs, warmupMs float64
	setupS                  float64

	tickMs     []float64 // probe-only ticks
	analysisMs []float64 // ticks that carry an analysis round
	wall       time.Duration

	probes               uint64
	allocObjs, allocByte uint64
	peakHeap, liveHeap   uint64

	score         scenario.PackScore
	fingerprint   string
	fingerprintMs float64

	// counts holds every metric that must repeat exactly: stats deltas
	// over the window and harness ledgers. Traced and untraced runs of
	// one workload and seed must agree on all of them.
	counts map[string]float64
	// histMs holds the obs histogram sums copied through (window
	// deltas, ms); a histogram a later change removes is absent.
	histMs map[string]float64

	busyNs, capNs uint64 // probe worker busy time and offered capacity

	api        *apiLoad
	agentsPeak int

	gcCycles  uint64
	gcCPUPct  float64
	gcPauseMs float64

	ops      int
	failures []string

	// Traced run only.
	rec             *recorder
	replayProbes    int
	replayLost      int
	replayNs        int64
	pinglistNs      int64
	pinglistAgents  int
	pinglistTargets int
}

func (o *outcome) failf(format string, args ...interface{}) {
	o.failures = append(o.failures, o.workload.name+": "+fmt.Sprintf(format, args...))
}

// harness carries the state harness-scheduled events share.
type harness struct {
	d   *hunter.Deployment
	log *scenario.RunLog
	rec *recorder
	out *outcome

	infers, inferErrs int
	replayed          uint64 // records re-ingested by recovery replay
}

func (h *harness) accepted() uint64 {
	return h.d.Obs.Get(obs.RecordsIngested) + h.d.Obs.Get(obs.RecordsShed)
}

func (h *harness) schedule(e extra) {
	h.d.Engine.Schedule(e.at, "bench/extra", func(time.Duration) {
		switch e.kind {
		case extraInfer:
			task := h.log.Tasks[e.ref]
			if task == nil {
				h.out.failf("infer: action %d never submitted", e.ref)
				return
			}
			id := h.rec.begin(spanInfer)
			_, err := h.d.InferSkeleton(task, inferWindow)
			h.rec.end(id)
			if err != nil {
				h.inferErrs++
			} else {
				h.infers++
			}
		case extraGray:
			id := h.rec.begin(spanGrayInject)
			_, err := h.d.Injector.InjectGray(e.gray, e.target)
			h.rec.end(id)
			if err != nil {
				h.out.failf("gray inject: %v", err)
			}
		case extraCrash:
			id := h.rec.begin(spanCrash)
			h.d.CrashController()
			h.rec.end(id)
		case extraRecover:
			before := h.accepted()
			id := h.rec.begin(spanRecover)
			err := h.d.RecoverFromLast()
			h.rec.end(id)
			h.replayed += h.accepted() - before
			if err != nil {
				h.out.failf("recover: %v", err)
			}
		}
	})
}

// wrapFanout times hunter's alarm handlers from outside: the exported
// OnAlarm/OnGray fields of the analyzer hold them.
func (h *harness) wrapFanout() {
	if onAlarm := h.d.Analyzer.OnAlarm; onAlarm != nil {
		h.d.Analyzer.OnAlarm = func(al analyzer.Alarm) {
			id := h.rec.begin(spanAlarmFanout)
			onAlarm(al)
			h.rec.end(id)
		}
	}
	if onGray := h.d.Analyzer.OnGray; onGray != nil {
		h.d.Analyzer.OnGray = func(al correlate.Alarm) {
			id := h.rec.begin(spanGrayFanout)
			onGray(al)
			h.rec.end(id)
		}
	}
}

const (
	mAllocObjs = "/gc/heap/allocs:objects"
	mAllocByte = "/gc/heap/allocs:bytes"
	mHeapObjs  = "/memory/classes/heap/objects:bytes"
	mGCCycles  = "/gc/cycles/total:gc-cycles"
	mGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU  = "/cpu/classes/total:cpu-seconds"
)

// heapSampler reads allocation totals and live heap without stopping
// the world, so it can run around every tick.
type heapSampler struct{ s []metrics.Sample }

func newHeapSampler() *heapSampler {
	return &heapSampler{s: []metrics.Sample{{Name: mAllocObjs}, {Name: mAllocByte}, {Name: mHeapObjs}}}
}

func (h *heapSampler) read() (objs, bytes, heap uint64) {
	metrics.Read(h.s)
	return h.s[0].Value.Uint64(), h.s[1].Value.Uint64(), h.s[2].Value.Uint64()
}

type gcSample struct {
	cycles        uint64
	gcCPU, allCPU float64
	pauseNs       uint64
}

func readGC() gcSample {
	s := []metrics.Sample{{Name: mGCCycles}, {Name: mGCCPU}, {Name: mTotalCPU}}
	metrics.Read(s)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcSample{cycles: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), allCPU: s[2].Value.Float64(), pauseNs: m.PauseTotalNs}
}

// run executes one workload once. rec is nil for the untraced run.
func run(w *workload, cfg runConfig, rec *recorder) (*outcome, error) {
	hosts, warmup, ticks := cfg.size(w)
	out := &outcome{workload: w, seed: cfg.seed, ticks: ticks,
		counts: map[string]float64{}, histMs: map[string]float64{}}
	runtime.GC()
	debug.FreeOSMemory()

	// Setup: build, plan, install, fill, warm up.
	setup0 := time.Now()
	id := rec.begin("hunter.new")
	opts := w.options(cfg.seed, hosts, cfg.workers)
	out.workers = opts.Workers
	d, err := hunter.New(opts)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	defer d.API.Close()
	out.newMs = ms(time.Since(setup0))

	fill0 := time.Now()
	id = rec.begin("hunter.fill")
	camp := w.plan(d.Fabric, cfg.seed, warmup, ticks)
	if err := camp.check(w, hosts); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	log, err := scenario.Install(d, camp.sched)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	h := &harness{d: d, log: log, rec: rec, out: out}
	for _, e := range camp.extras {
		h.schedule(e)
	}
	if rec != nil {
		h.wrapFanout()
	}
	d.Run(0) // fire the t=0 actions: the fleet fill
	rec.end(id)
	out.fillMs = ms(time.Since(fill0))

	warm0 := time.Now()
	id = rec.begin("hunter.warmup")
	for i := 0; i < warmup; i++ {
		d.Run(time.Second)
	}
	rec.end(id)
	out.warmupMs = ms(time.Since(warm0))
	out.setupS = time.Since(setup0).Seconds()

	// Measured window.
	api := newAPILoad(d.API)
	out.api = api
	respSink := &sink{header: make(map[string][]string)}
	out.tickMs = make([]float64, 0, ticks)
	out.analysisMs = make([]float64, 0, ticks/10+1)
	sampler := newHeapSampler()
	before := d.Stats()
	events0 := d.Engine.Processed
	runtime.GC()
	gc0 := readGC()
	sentinels := 0
	for i := 0; i < ticks; i++ {
		o0, b0, _ := sampler.read()
		t0 := time.Now()
		if rec != nil {
			rec.tick = i
			sentinels += tracedTick(d, rec)
		} else {
			d.Run(time.Second)
		}
		dt := time.Since(t0)
		o1, b1, heap := sampler.read()
		out.wall += dt
		out.allocObjs += o1 - o0
		out.allocByte += b1 - b0
		if heap > out.peakHeap {
			out.peakHeap = heap
		}
		if d.Engine.Now()%interval == 0 {
			out.analysisMs = append(out.analysisMs, ms(dt))
		} else {
			out.tickMs = append(out.tickMs, ms(dt))
		}
		api.tick(respSink)
		if n := d.Agents(); n > out.agentsPeak {
			out.agentsPeak = n
		}
	}
	if rec != nil {
		rec.tick = -1
	}
	gc1 := readGC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	out.liveHeap = m.HeapAlloc
	out.gcCycles = gc1.cycles - gc0.cycles
	if cpu := gc1.allCPU - gc0.allCPU; cpu > 0 {
		out.gcCPUPct = 100 * (gc1.gcCPU - gc0.gcCPU) / cpu
	}
	out.gcPauseMs = float64(gc1.pauseNs-gc0.pauseNs) / 1e6

	// Close the campaign: flush at the horizon, fingerprint, score.
	events := d.Engine.Processed - events0 - uint64(sentinels)
	d.Analyzer.Flush(d.Engine.Now())
	after := d.Stats()
	fp0 := time.Now()
	out.fingerprint = d.Fingerprint()
	out.fingerprintMs = ms(time.Since(fp0))
	var hard []*faults.Injection
	for _, in := range d.Injector.Injections() {
		if !in.IsGray() {
			hard = append(hard, in)
		}
	}
	out.score = scenario.ScorePack(log, hard, d.Analyzer.Alarms())

	out.collect(h, before, after, events)
	out.verify(h, camp, after)
	if rec != nil {
		out.rec = rec
		out.replay(d, log)
	}
	api.srv = nil // the samples outlive the run; the server must not
	return out, nil
}

// collect fills the exact-repeat counts and the histogram sums.
func (o *outcome) collect(h *harness, before, after obs.Snapshot, events uint64) {
	delta := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	abs := func(name string) float64 { return float64(after.Counters[name]) }
	c := o.counts
	o.probes = after.Counters[obs.ProbesSent.String()] - before.Counters[obs.ProbesSent.String()]
	o.busyNs = after.Counters[obs.WorkerBusyNanos.String()] - before.Counters[obs.WorkerBusyNanos.String()]
	o.capNs = after.Counters[obs.WorkerWallNanos.String()] - before.Counters[obs.WorkerWallNanos.String()]

	c["sim.events"] = float64(events)
	c["probe.rounds"] = delta(obs.ProbeRounds.String())
	c["probe.probes"] = float64(o.probes)
	c["probe.groups_per_tick"] = delta(obs.ProbeRoundsGrouped.String()) / float64(o.ticks)
	c["cluster.tasks"] = float64(len(h.log.Tasks))
	c["cluster.agents_peak"] = float64(o.agentsPeak)
	c["skeleton.infers"] = float64(h.infers)
	c["skeleton.infer_errs"] = float64(h.inferErrs)
	c["logstore.records_logged"] = delta(obs.RecordsLogged.String())
	c["logstore.index_keys"] = abs("logstore-index-keys")
	c["logstore.index_entries"] = abs("logstore-index-entries")
	c["logstore.index_keys_dropped"] = delta(obs.IndexKeysDropped.String())
	c["analyzer.rounds"] = delta(obs.RoundsRun.String())
	c["analyzer.records_ingested"] = delta(obs.RecordsIngested.String())
	c["analyzer.records_shed"] = delta(obs.RecordsShed.String())
	c["analyzer.alarms"] = delta(obs.AlarmsRaised.String())
	c["detect.windows"] = delta(obs.WindowsEvaluated.String())
	c["detect.anomalies"] = delta(obs.AnomaliesDetected.String())
	c["localize.anomalies_in"] = delta("pipeline-localize")
	c["correlate.changepoints"] = delta(obs.ChangepointsRaised.String())
	c["correlate.deduped"] = delta(obs.AlarmsDeduped.String())
	c["correlate.chains"] = delta(obs.ChainsEmitted.String())
	c["correlate.series"] = abs("correlate-series")
	c["incident.opened"] = delta(obs.IncidentsOpened.String())
	c["incident.reopened"] = delta(obs.IncidentsReopened.String())
	c["incident.resolved"] = delta(obs.IncidentsResolved.String())
	c["incident.live"] = abs("incidents-open") + abs("incidents-mitigating")
	c["remedy.executed"] = delta(obs.RemedyActionsExecuted.String())
	c["remedy.committed"] = delta(obs.RemedyActionsCommitted.String())
	c["remedy.deferred"] = delta(obs.RemedyActionsDeferred.String())
	c["remedy.escalated"] = delta(obs.RemedyActionsEscalated.String())
	epochs := delta("api-epoch")
	c["apiserver.epochs"] = epochs
	c["apiserver.epochs_per_alarm"] = 0
	if alarms := c["analyzer.alarms"] + delta("correlate-alarms"); alarms > 0 {
		c["apiserver.epochs_per_alarm"] = epochs / alarms
	}
	c["apiserver.not_modified_pct"] = 0
	if o.api.conditional > 0 {
		c["apiserver.not_modified_pct"] = 100 * float64(o.api.notModified) / float64(o.api.conditional)
	}
	c["apiserver.body_kib_p50"] = percentile(o.api.bodyKiB, 0.5)
	c["apiserver.watch_resyncs"] = float64(o.api.resyncs)

	for _, name := range []string{"stage-probe-ms", "stage-ingest-ms", "stage-detect-ms", "stage-localize-ms", "stage-correlate-ms"} {
		if hs, ok := after.Histograms[name]; ok {
			o.histMs[name] = hs.Sum - before.Histograms[name].Sum
		}
	}
}

// verify runs the built-in output checks; each violation is one
// failed operation.
func (o *outcome) verify(h *harness, camp *campaign, after obs.Snapshot) {
	o.ops = o.ticks + len(camp.sched.Actions) + len(camp.extras) + o.api.requests
	for _, e := range h.log.Errs {
		o.failf("schedule: %s", e)
	}
	if o.api.bad > 0 {
		o.failf("%d API reads answered other than 200/304 (or 410 on a watch catch-up)", o.api.bad)
	}
	sent := after.Counters[obs.ProbesSent.String()]
	landed := after.Counters[obs.RecordsIngested.String()] + after.Counters[obs.RecordsShed.String()]
	if sent+h.replayed != landed {
		o.failf("conservation: %d probes sent + %d replayed != %d records ingested or shed", sent, h.replayed, landed)
	}
}

// replay times the two layers a step span cannot split, after the
// window and the fingerprint: the controller's ping-list fetch and the
// network simulator's probe, over one tick's worth of probes on a
// fresh probe context. It is the floor under probe.round_ms.
func (o *outcome) replay(d *hunter.Deployment, log *scenario.RunLog) {
	refs := make([]int, 0, len(log.Tasks))
	for ref := range log.Tasks {
		refs = append(refs, ref)
	}
	sort.Ints(refs)
	type agent struct {
		task    *cluster.Task
		ct      *cluster.Container
		targets []controller.Target
	}
	var agents []agent
	for _, ref := range refs {
		task := log.Tasks[ref]
		for _, ct := range task.Containers {
			if ct.State == cluster.Running {
				agents = append(agents, agent{task: task, ct: ct})
			}
		}
	}
	// Two passes, as an agent's rounds do: the first sizes each agent's
	// buffer, the timed second one reuses it.
	for pass := 0; pass < 2; pass++ {
		t0 := time.Now()
		for i := range agents {
			a := &agents[i]
			a.targets = d.Controller.PingListInto(a.task.ID, a.ct.Index, a.targets)
		}
		o.pinglistNs = int64(time.Since(t0))
	}
	o.pinglistAgents = len(agents)
	for _, a := range agents {
		o.pinglistTargets += len(a.targets)
	}

	ctx := d.Net.NewProbeCtx()
	var res netsim.Result
	var entropy uint64
	t0 := time.Now()
	for _, a := range agents {
		for _, tg := range a.targets {
			entropy++
			d.Net.ProbeIntoCtx(ctx, &res, a.ct.Addrs[tg.SrcRail], a.task.Containers[tg.DstContainer].Addrs[tg.DstRail], entropy)
			o.replayProbes++
			if res.Lost {
				o.replayLost++
			}
		}
	}
	o.replayNs = int64(time.Since(t0))
}
