// Package hunter assembles a complete SkeletonHunter deployment over a
// simulated containerized training cloud: fabric + overlay + control
// plane (the infrastructure), controller + sidecar agents + analyzer
// (the monitoring system), and the fault injector (the evaluation
// harness). It is the public entry point examples and benchmarks use.
package hunter

import (
	"fmt"
	"sort"
	"time"

	"skeletonhunter/internal/analyzer"
	"skeletonhunter/internal/apiserver"
	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/component"
	"skeletonhunter/internal/controller"
	"skeletonhunter/internal/correlate"
	"skeletonhunter/internal/detect"
	"skeletonhunter/internal/faults"
	"skeletonhunter/internal/incident"
	"skeletonhunter/internal/localize"
	"skeletonhunter/internal/logstore"
	"skeletonhunter/internal/netsim"
	"skeletonhunter/internal/obs"
	"skeletonhunter/internal/overlay"
	"skeletonhunter/internal/parallelism"
	"skeletonhunter/internal/probe"
	"skeletonhunter/internal/remedy"
	"skeletonhunter/internal/sim"
	"skeletonhunter/internal/skeleton"
	"skeletonhunter/internal/topology"
	"skeletonhunter/internal/traffic"
)

// Options configures a deployment.
type Options struct {
	// Seed drives every random stream (default 1).
	Seed int64
	// Hosts sizes the fabric via topology.Production (default 16).
	// Set Spec to override entirely.
	Hosts int
	Spec  topology.Spec
	// Detect tunes anomaly detection.
	Detect detect.Config
	// AnalysisInterval is the analyzer round period (default 30 s).
	AnalysisInterval time.Duration
	// Workers sizes the one task-pinned worker pool (probe.FanOut) that
	// both the probe round and the analysis round fan their task shards
	// out on; <= 0 means GOMAXPROCS. Alarms are bit-identical at any
	// value; this only trades wall-clock for cores.
	Workers int
	// Lag overrides the container lifecycle delays (default: the
	// production-shaped model).
	Lag cluster.LagModel
	// DisableFeedback turns the alarm → blacklist loop off:
	// alarms are still raised and recorded, but operations do not act
	// on them. Used by impact comparisons ("what would the month have
	// looked like without SkeletonHunter acting").
	DisableFeedback bool
	// CheckpointInterval enables periodic control-plane checkpoints on
	// the sim engine (0 disables; checkpoints can still be taken
	// explicitly with Deployment.Checkpoint). An injected controller
	// crash recovers from the most recent one.
	CheckpointInterval time.Duration
	// Incidents tunes the alarm→incident correlator (zero values take
	// the incident package defaults).
	Incidents incident.Config
	// Correlate, when non-nil, enables the second-layer gray-failure
	// detector: CUSUM change-points over per-pair RTT, per-RNIC
	// delivery-ratio and per-ToR queue-depth series, with stable-bloom
	// dedup and lead-lag causal chains. Gray alarms flow into the
	// incident plane as a distinct source (page-with-evidence; the
	// remediation plane never acts on them) and the engine's state is
	// carried in checkpoint v4. Zero-value config takes the correlate
	// package defaults (the engine's own seed defaults to Options.Seed).
	Correlate *correlate.Config
	// Remedy, when non-nil, enables the self-healing remediation plane:
	// the policy engine consumes the incident stream each sweep and
	// repairs localized faults behind the configured safety rails
	// (Config.Hosts is filled in from the fabric if zero).
	Remedy *remedy.Config
	// HTTPAddr, when non-empty, serves the operator query API on that
	// address ("127.0.0.1:0" picks a free port; read it back from
	// Deployment.API.Addr()). API tunes the server's self-protection.
	HTTPAddr string
	API      apiserver.Config
}

// probeInterval is the agents' probing round period.
const probeInterval = time.Second

// Deployment is a wired SkeletonHunter instance over a simulated cloud.
type Deployment struct {
	Engine     *sim.Engine
	Fabric     *topology.Fabric
	Overlay    *overlay.Network
	Net        *netsim.Net
	CP         *cluster.ControlPlane
	Controller *controller.Controller
	Analyzer   *analyzer.Analyzer
	Injector   *faults.Injector
	// Localizer is the three-stage disentangler the analyzer's shards
	// share. Exposed so scenario packs can corrupt and refresh its
	// topology View (the flap+ghost campaign); swap View only from an
	// engine event, never mid-round.
	Localizer *localize.Localizer
	// Log retains recent probe records, queryable by task/container/
	// RNIC/switch (§6's log service).
	Log *logstore.Store
	// Incidents folds alarms into long-lived operator incidents with
	// evidence bundles.
	Incidents *incident.Correlator
	// Remedy is the self-healing policy engine (nil unless
	// Options.Remedy was set).
	Remedy *remedy.Engine
	// Correlate is the second-layer gray-failure detector (nil unless
	// Options.Correlate was set).
	Correlate *correlate.Engine
	// API is the HTTP read plane over the deployment's monitoring
	// state (nil unless Options.HTTPAddr was set).
	API *apiserver.Server
	// Obs is the deployment-wide self-monitoring surface: one Stats
	// shared by the agents, the log store, and the analyzer. Read it
	// via Stats(), which repeats the analyzer's per-stage counts under
	// "pipeline-<stage>" keys.
	Obs *obs.Stats

	// OnAlarm, when set, receives every alarm after the deployment's
	// own feedback handling (blacklist propagation).
	OnAlarm func(analyzer.Alarm)
	// OnGray, when set, receives every changed correlate alarm after
	// the deployment folds it into the incident plane.
	OnGray func(correlate.Alarm)

	sweepInterval time.Duration
	feedbackOff   bool
	telemetry     *faults.TelemetryInjector
	rounds        *probe.RoundEngine
	agents        map[cluster.ContainerID]*probe.OverlayAgent
	stopped       map[cluster.TaskID]int
	blockedHosts  map[int]bool
	overrides     map[cluster.TaskID]parallelism.Config
	inferences    map[cluster.TaskID]skeleton.Inference
	secrets       map[cluster.TaskID]string
	lastCkpt      *Checkpoint

	// Cached snapshot inputs, rebuilt only when their sources changed.
	// incidents is the immutable incident snapshot the remediation
	// sweep and refreshAPI share, current as of correlator revision
	// incidentsRev (see incidentSnapshot). The alarm copy and rendered
	// blacklist key on length: both only grow inside an analysis round,
	// which publishes at its end, and shrink only at a crash or
	// recovery, which publish too — so no two publishes see different
	// contents at the same length.
	incidents    []incident.Incident
	incidentsRev uint64
	apiAlarms    []analyzer.Alarm
	apiBlacklist []apiserver.BlacklistEntry
}

// New builds and wires a deployment.
func New(opts Options) (*Deployment, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Hosts == 0 {
		opts.Hosts = 16
	}
	spec := opts.Spec
	if spec == (topology.Spec{}) {
		spec = topology.Production(opts.Hosts)
	}
	eng := sim.NewEngine(opts.Seed)
	fab, err := topology.New(spec)
	if err != nil {
		return nil, err
	}
	ovl := overlay.NewNetwork()
	cp := cluster.NewControlPlane(eng, fab, ovl, opts.Lag)
	net := netsim.New(eng, fab, ovl)
	ctl := controller.New()
	ctl.Attach(cp)
	ctl.UseClock(eng.Now)
	loc := localize.NewWithControlPlane(net, cp)
	st := obs.New()
	var cor *correlate.Engine
	if opts.Correlate != nil {
		cc := *opts.Correlate
		if cc.Seed == 0 {
			cc.Seed = opts.Seed
		}
		cc.Obs = st
		cor = correlate.New(cc)
		// Queue-depth series: one sample per ToR per round, enumerated
		// in (pod, rail) order so the sampling — and everything CUSUM
		// derives from it — is deterministic.
		cor.Queues = func() []correlate.QueueSample {
			out := make([]correlate.QueueSample, 0, spec.Pods*spec.Rails)
			for p := 0; p < spec.Pods; p++ {
				for r := 0; r < spec.Rails; r++ {
					n := fab.ToR(p, r)
					out = append(out, correlate.QueueSample{Node: n, Depth: net.QueueLength(n)})
				}
			}
			return out
		}
	}
	an := analyzer.New(eng, loc, analyzer.Config{
		Detect:           opts.Detect,
		AnalysisInterval: opts.AnalysisInterval,
		Workers:          opts.Workers,
		Obs:              st,
		Correlate:        cor,
	})
	an.Start()
	log := logstore.New(1<<16, fab)
	log.Obs = st

	d := &Deployment{
		Engine: eng, Fabric: fab, Overlay: ovl, Net: net,
		CP: cp, Controller: ctl, Analyzer: an,
		Localizer:    loc,
		Injector:     faults.NewInjector(net, cp),
		Log:          log,
		Obs:          st,
		feedbackOff:  opts.DisableFeedback,
		agents:       make(map[cluster.ContainerID]*probe.OverlayAgent),
		stopped:      make(map[cluster.TaskID]int),
		blockedHosts: make(map[int]bool),
		overrides:    make(map[cluster.TaskID]parallelism.Config),
		inferences:   make(map[cluster.TaskID]skeleton.Inference),
		secrets:      make(map[cluster.TaskID]string),
	}
	// Parallel round engine: every sidecar agent enrolls here. Same-phase
	// agents fire as one event, sharded by task across Workers
	// goroutines; the deployment itself is the shard sink (see
	// roundSink).
	d.rounds = &probe.RoundEngine{
		Sim:     eng,
		Net:     net,
		Workers: opts.Workers,
		Sink:    roundSink{d},
		Obs:     st,
	}
	cp.Subscribe(d.onClusterEvent)
	// Feedback loop: alarms blacklist hosts out of scheduling.
	cp.HostSchedulable = func(h int) bool { return !d.blockedHosts[h] }
	an.OnAlarm = d.handleAlarm
	if cor != nil {
		d.Correlate = cor
		an.OnGray = d.handleGrayAlarm
	}
	// The alarm handlers only fold; what a round changed is published
	// once, at its end.
	an.OnRoundEnd = func(time.Duration) { d.refreshAPI() }
	if opts.CheckpointInterval > 0 {
		eng.Every(opts.CheckpointInterval, opts.CheckpointInterval, "checkpoint",
			func(time.Duration) { d.Checkpoint() })
	}
	d.Incidents = incident.New(opts.Incidents, incident.Sources{
		Records:     d.evidenceRecords,
		QueueLength: net.QueueLength,
		Offload:     ovl.DumpOffload,
		LinkName:    fab.LinkByIndex,
	})
	d.Incidents.Obs = st
	// Resolution sweeps ride the analysis-round cadence. Incidents
	// change only in analysis rounds, sweeps, crashes and
	// recoveries, and each of those publishes once at its end.
	sweep := opts.AnalysisInterval
	if sweep == 0 {
		sweep = 30 * time.Second
	}
	d.sweepInterval = sweep
	if opts.Remedy != nil {
		rc := *opts.Remedy
		if rc.Hosts == 0 {
			rc.Hosts = fab.Hosts()
		}
		d.Remedy = remedy.NewEngine(rc, d.remedyOps())
		d.Remedy.Obs = st
	}
	eng.Every(sweep, sweep, "incident-sweep", func(now time.Duration) {
		d.Incidents.Sweep(now)
		if d.Remedy != nil {
			d.Remedy.Tick(now, d.incidentSnapshot())
		}
		d.refreshAPI()
	})
	if opts.HTTPAddr != "" {
		d.API = apiserver.New(opts.API)
		d.refreshAPI()
		if err := d.API.Start(opts.HTTPAddr); err != nil {
			return nil, fmt.Errorf("hunter: query API: %w", err)
		}
	}
	return d, nil
}

// roundSink is the deployment's probe.ShardSink, the one path grouped
// probe rounds land through.
//
// Worker-side (Consume, one goroutine per task shard): batches feed the
// analyzer's pre-warmed shard inboxes — no global lock on the hot path.
// Barrier-side (Land, serial): each agent's batch is appended to the
// log in the round's sorted order, so log content is deterministic at
// any worker count. An installed telemetry injector is a stage of both
// sides: each side passes every batch through the same keyed fate, so
// the analyzer and the log see one delivered stream per task.
type roundSink struct{ d *Deployment }

// Prepare pre-creates the analyzer shard and the telemetry-fault state
// of every task probing this round, serially, so Consume callers only
// ever read the shard and fault maps.
func (rs roundSink) Prepare(tasks []cluster.TaskID) {
	for _, t := range tasks {
		rs.d.Analyzer.WarmShard(string(t))
	}
	rs.d.telemetry.Prepare(tasks)
}

// Consume feeds one agent round's batch to its task's analyzer shard.
// Runs on a worker goroutine; the round engine guarantees one goroutine
// per task, so the shard inbox is single-writer.
func (rs roundSink) Consume(b probe.Batch) {
	if ti := rs.d.telemetry; ti != nil {
		ti.Deliver(faults.Primary, b, rs.d.analyze)
		return
	}
	rs.d.analyze(b)
}

// Land appends one agent round's batch to the retained log.
func (rs roundSink) Land(b probe.Batch) {
	if ti := rs.d.telemetry; ti != nil {
		ti.Deliver(faults.Mirror, b, rs.d.Log.AppendBatch)
		return
	}
	rs.d.Log.AppendBatch(b)
}

// analyze queues one delivered batch in its task's analyzer shard.
func (d *Deployment) analyze(b probe.Batch) {
	if len(b) == 0 {
		return
	}
	d.Obs.Inc(obs.BatchesIngested)
	d.Analyzer.IngestBatch(b)
}

// SetTelemetryFaults installs (or, with zero options, effectively
// clears) telemetry-plane fault injection: batch drop/duplication/
// reordering as a stage of the sharded probe round, probabilistic analysis-round delays,
// and frozen controller ping lists. Safe to call mid-run; campaigns
// typically enable it after the deployment reaches steady state.
func (d *Deployment) SetTelemetryFaults(opts faults.TelemetryOptions) {
	d.telemetry = faults.NewTelemetryInjector(d.Engine, opts, d.Obs)
	d.Analyzer.Gate = d.telemetry.GateRound
	d.Controller.SetFrozen(opts.StalePingLists)
}

// AgentRestartStorm kills the given fraction of live sidecar agents
// and schedules each for restart downFor later — the crash/restart
// storm of a bad agent rollout. Selection draws from a named engine
// stream over sorted container IDs, so storms replay deterministically.
// The containers themselves keep running: peers still probe their
// endpoints successfully, so a storm costs probing coverage without
// manufacturing network alarms. An agent is only restarted if its
// container is still Running and no newer agent exists. Returns the
// number of agents killed.
func (d *Deployment) AgentRestartStorm(frac float64, downFor time.Duration) int {
	ids := make([]cluster.ContainerID, 0, len(d.agents))
	for id := range d.agents {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	rng := d.Engine.Rand("telemetry/agent-storm")
	killed := 0
	for _, id := range ids {
		if rng.Float64() >= frac {
			continue
		}
		a := d.agents[id]
		a.Kill()
		delete(d.agents, id)
		d.Obs.Inc(obs.AgentCrashes)
		killed++
		task, ct := a.Task, a.Container
		d.Engine.After(downFor, "agent-restart", func(time.Duration) {
			if ct.State != cluster.Running {
				return
			}
			if _, live := d.agents[ct.ID]; live {
				return
			}
			d.startAgent(task, ct)
			d.Obs.Inc(obs.AgentRestarts)
		})
	}
	return killed
}

// handleGrayAlarm folds one correlate-layer alarm into the incident
// plane. Deliberately no feedback: gray signals never blacklist hosts
// or drain them — they page with evidence (chains included)
// and wait for an operator or for the hard detector to confirm.
func (d *Deployment) handleGrayAlarm(al correlate.Alarm) {
	d.Incidents.ObserveGray(al)
	if d.OnGray != nil {
		d.OnGray(al)
	}
}

// handleAlarm folds the alarm into the incident plane and propagates
// verdicts into the scheduling blacklist. Moving containers off a bad
// host is the remediation plane's drain-host action (Options.Remedy).
func (d *Deployment) handleAlarm(al analyzer.Alarm) {
	d.Incidents.ObserveAlarm(al)
	if d.feedbackOff {
		// Alarms are recorded (and incidents opened) but operations do
		// not act, so nothing is ever marked mitigated.
		if d.OnAlarm != nil {
			d.OnAlarm(al)
		}
		return
	}
	for _, c := range al.Components() {
		if host, ok := component.HostOf(c); ok {
			d.blockedHosts[host] = true
		}
		// The analyzer put the component on the §8 blacklist the moment
		// the alarm raised; that is the mitigation the incident's SLO
		// clock stops on.
		d.Incidents.NoteMitigated(c, al.At, "blacklist")
	}
	if d.OnAlarm != nil {
		d.OnAlarm(al)
	}
}

// BlockedHosts returns the hosts currently barred from scheduling.
func (d *Deployment) BlockedHosts() []int {
	var out []int
	for h := range d.blockedHosts {
		out = append(out, h)
	}
	sort.Ints(out)
	return out
}

// startAgent deploys a sidecar agent for a running container — both
// the with-container path (EvContainerRunning) and the restart path
// after an agent-only crash.
func (d *Deployment) startAgent(task *cluster.Task, ct *cluster.Container) {
	a := &probe.OverlayAgent{
		Net:        d.Net,
		Controller: d.Controller,
		Task:       task,
		Container:  ct,
		Driver:     d.rounds,
		Interval:   probeInterval,
		Obs:        d.Obs,
	}
	a.Start()
	d.agents[ct.ID] = a
}

// onClusterEvent starts/stops sidecar agents with their containers.
func (d *Deployment) onClusterEvent(ev cluster.Event) {
	switch ev.Kind {
	case cluster.EvContainerRunning:
		// A container with a StoppedAt stamp is a remediation restart of
		// a crashed container, not a first start: its earlier departure
		// was counted, so the departure ledger rolls back one.
		if ev.Container.StoppedAt > 0 && d.stopped[ev.Task.ID] > 0 {
			d.stopped[ev.Task.ID]--
		}
		d.startAgent(ev.Task, ev.Container)
	case cluster.EvContainerStopped:
		if a, ok := d.agents[ev.Container.ID]; ok {
			a.Stop()
			delete(d.agents, ev.Container.ID)
		}
		// Graceful stop: the control plane vouches for the departure, so
		// the analyzer drops the container's half-open windows.
		d.Analyzer.ForgetContainer(string(ev.Task.ID), ev.Container.Index)
		d.countStopped(ev)
	case cluster.EvContainerCrashed:
		// Ungraceful: the sidecar dies with the container but nothing
		// deregisters — peers keep probing and raise unconnectivity.
		if a, ok := d.agents[ev.Container.ID]; ok {
			a.Kill()
			delete(d.agents, ev.Container.ID)
		}
		d.countStopped(ev)
	}
}

// countStopped tracks container departures and tears a task's
// monitoring state down once every container is gone — however it
// went. A task whose containers all crash never flips Finished, so
// gating cleanup on it leaked the stopped-count entry, the analyzer's
// per-pair detector shard, and the controller's registry entry for
// every crashed-out task.
func (d *Deployment) countStopped(ev cluster.Event) {
	d.stopped[ev.Task.ID]++
	if d.stopped[ev.Task.ID] == len(ev.Task.Containers) {
		d.forgetTask(ev.Task.ID)
		delete(d.stopped, ev.Task.ID)
	}
}

// forgetTask tears a departed task's monitoring state down: its
// analyzer shard, its telemetry-fault state and its controller entry.
func (d *Deployment) forgetTask(t cluster.TaskID) {
	d.Analyzer.ForgetTask(string(t))
	d.telemetry.Forget(t)
	d.Controller.RemoveTask(t)
}

// SubmitTask submits a training task to the simulated cloud.
func (d *Deployment) SubmitTask(spec cluster.TaskSpec) (*cluster.Task, error) {
	return d.CP.Submit(spec)
}

// Run advances the simulation by the given duration.
func (d *Deployment) Run(dur time.Duration) {
	d.Engine.RunUntil(d.Engine.Now() + dur)
}

// CollectSeries gathers the per-endpoint throughput series the
// production system reads from RNIC counters. The simulation
// synthesizes them from the task's (tenant-private) parallelism — the
// inference below must not peek at cfg, only at the series.
func (d *Deployment) CollectSeries(task *cluster.Task, dur time.Duration) []skeleton.EndpointSeries {
	par := task.Par
	if ov, ok := d.overrides[task.ID]; ok {
		par = ov
	}
	gen := &traffic.Generator{
		Par:              par,
		GPUsPerContainer: task.GPUsPerContainer,
		Seed:             d.Engine.Rand("traffic-seed/" + string(task.ID)).Int63(),
	}
	var eps []skeleton.EndpointSeries
	for _, c := range controller.EndpointOrder(task) {
		for r := 0; r < task.GPUsPerContainer; r++ {
			eps = append(eps, skeleton.EndpointSeries{
				Container: c.Index,
				Rail:      r,
				Host:      c.Host,
				Series:    gen.Series(parallelism.Endpoint{Container: c.Index, Rail: r}, dur),
			})
		}
	}
	return eps
}

// InferSkeleton observes a task's traffic for obsWindow, infers its
// traffic skeleton, and installs the pruned ping list on the
// controller. It returns the inference for inspection.
func (d *Deployment) InferSkeleton(task *cluster.Task, obsWindow time.Duration) (skeleton.Inference, error) {
	eps := d.CollectSeries(task, obsWindow)
	inf, err := skeleton.Infer(eps, skeleton.Options{})
	if err != nil {
		return skeleton.Inference{}, fmt.Errorf("hunter: skeleton inference for %s: %w", task.ID, err)
	}
	if err := d.Controller.ApplySkeleton(task.ID, inf); err != nil {
		return skeleton.Inference{}, err
	}
	d.inferences[task.ID] = inf
	return inf, nil
}

// OverrideWorkload changes what traffic a task emits from now on —
// the simulation hook for a tenant switching models or parallelism
// strategies mid-task (§7.3's "users' uncertain workloads"). The
// override only affects the synthesized RNIC counters; the monitoring
// system is not told.
func (d *Deployment) OverrideWorkload(id cluster.TaskID, par parallelism.Config) {
	d.overrides[id] = par
}

// FidelityThreshold is the revalidation cut-off: an installed skeleton
// scoring below it no longer matches the observed traffic and the task
// reverts to its basic ping list.
const FidelityThreshold = 0.5

// RevalidateSkeleton re-checks an installed skeleton against a fresh
// observation window (§7.3's mitigation). It returns the fidelity
// score and whether the task was reverted to the basic list.
func (d *Deployment) RevalidateSkeleton(task *cluster.Task, obsWindow time.Duration) (float64, bool) {
	inf, ok := d.inferences[task.ID]
	if !ok {
		return 0, false
	}
	eps := d.CollectSeries(task, obsWindow)
	score := skeleton.Fidelity(eps, inf.Groups)
	if score < FidelityThreshold {
		d.Controller.RevertToBasic(task.ID)
		delete(d.inferences, task.ID)
		return score, true
	}
	return score, false
}

// Agents returns the number of live sidecar agents.
func (d *Deployment) Agents() int { return len(d.agents) }

// pipelineStages maps each analyzer stage to the obs counter it counts
// into.
var pipelineStages = map[string]obs.Counter{
	"ingest":   obs.RecordsIngested,
	"detect":   obs.RecordsDrained,
	"localize": obs.AnomaliesDetected,
	"alarm":    obs.AlarmsRaised,
}

// Stats snapshots the deployment's self-monitoring state: every obs
// counter and histogram, with the analyzer's per-stage counts repeated
// under "pipeline-<stage>" keys.
func (d *Deployment) Stats() obs.Snapshot {
	snap := d.Obs.Snapshot()
	for stage, c := range pipelineStages {
		snap.Counters["pipeline-"+stage] = snap.Counters[c.String()]
	}
	// Worker utilization of the parallel round engine: busy time over
	// offered capacity (wall × workers), as a percentage.
	if wall := snap.Counters[obs.WorkerWallNanos.String()]; wall > 0 {
		busy := snap.Counters[obs.WorkerBusyNanos.String()]
		snap.Counters["worker-utilization-pct"] = busy * 100 / wall
	}
	open, mitigating, resolved := d.Incidents.Counts()
	snap.Counters["incidents-open"] = uint64(open)
	snap.Counters["incidents-mitigating"] = uint64(mitigating)
	snap.Counters["incidents-resolved-now"] = uint64(resolved)
	if d.Remedy != nil {
		deferred, verifying := d.Remedy.Pending()
		snap.Counters["remedy-deferred-now"] = uint64(deferred)
		snap.Counters["remedy-verifying-now"] = uint64(verifying)
	}
	if d.Correlate != nil {
		alarms, suppressed, chains := d.Correlate.Counts()
		snap.Counters["correlate-alarms"] = uint64(alarms)
		snap.Counters["correlate-suppressed"] = uint64(suppressed)
		snap.Counters["correlate-chains"] = uint64(chains)
		snap.Counters["correlate-series"] = uint64(d.Correlate.SeriesCount())
	}
	if d.API != nil {
		for k, v := range d.API.Stats() {
			snap.Counters[k] = v
		}
	}
	return snap
}
