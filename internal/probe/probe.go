// Package probe implements SkeletonHunter's overlay agent (§6),
// deployed as a sidecar sharing the training container's network
// namespace, which fetches its ping list from the controller and
// executes RDMA probes every round.
//
// Probe results stream to a sink (the analyzer) as Records carrying
// end-to-end latency, loss, and the underlay path the probe's flow
// traversed — the traceroute-style physical path tomography needs
// (§5.3).
package probe

import (
	"math"
	"time"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/controller"
	"skeletonhunter/internal/netsim"
	"skeletonhunter/internal/obs"
	"skeletonhunter/internal/overlay"
	"skeletonhunter/internal/sim"
	"skeletonhunter/internal/topology"
)

// Record is one probe observation.
type Record struct {
	Task cluster.TaskID
	// Task-local endpoint coordinates.
	SrcContainer, SrcRail int
	DstContainer, DstRail int
	// Src and Dst are the overlay addresses probed.
	Src, Dst overlay.Addr
	At       time.Duration
	RTT      time.Duration
	Lost     bool
	// Path is the underlay links the probe's flow was routed over (the
	// view a traceroute with the same five-tuple would return).
	Path []topology.LinkID
}

// Sink consumes probe records one at a time.
type Sink func(Record)

// Batch is the records of one probing round from one agent. All
// records of a batch share the agent's task, and each target pair's
// probes are contiguous — the layout the analyzer's batched ingest
// exploits.
type Batch []Record

// BatchSink consumes a whole probing round at once. The slice is only
// valid for the duration of the call: the agent reuses its backing
// array across rounds, so a sink that retains records must copy them.
type BatchSink func(Batch)

// OverlayAgent probes on behalf of one container. One agent exists per
// training container (sidecar); it queries the controller each round so
// list updates (registration, skeleton pruning) take effect without
// agent restarts.
//
// Ownership: everything below the exported configuration — the reused
// batch, the netsim scratch result, the targets buffer, the entropy
// counter — is single-owner state. In ticker mode the owner is the
// engine goroutine; under a RoundEngine driver, exactly one worker
// executes the agent's round each tick (agents of one task always ride
// the same worker slot). Nothing here is safe to share.
type OverlayAgent struct {
	Engine     *sim.Engine
	Net        *netsim.Net
	Controller *controller.Controller
	Task       *cluster.Task
	Container  *cluster.Container
	// Sink, when set, receives every record as it is produced. The
	// batch path below is the hot one; Sink remains for tools that
	// want a per-record tap.
	Sink Sink
	// BatchSink, when set, receives each round's records in one call —
	// the per-round path the analyzer and log store ingest through.
	BatchSink BatchSink
	// Driver, when set before Start, enrolls the agent in a grouped
	// parallel round engine instead of giving it a per-agent ticker:
	// the engine fires all same-phase agents in one simulation event
	// and fans their rounds out over worker-owned probe contexts.
	Driver *RoundEngine
	// Interval is the probing round period (default 1 s).
	Interval time.Duration
	// ProbesPerTarget is how many probes (with distinct ECMP entropy)
	// each target gets per round (default 1; >1 widens path coverage).
	ProbesPerTarget int
	// Obs, when set, counts probing rounds and probes sent. Nil-safe.
	Obs *obs.Stats

	ticker  *sim.Ticker
	killed  bool
	rounds  int
	entropy uint64
	epoch   uint64              // controller epoch the agent last registered under
	batch   Batch               // reused across rounds
	targets []controller.Target // reused ping-list buffer (serial prologue only)
	soloCtx *netsim.ProbeCtx    // ticker-mode probe context

	// scratch is the reused netsim result (its path buffers are recycled
	// every probe). arena is the round's link storage: downstream sinks
	// retain Record.Path slices past the round, so the storage cannot be
	// recycled, but all of a round's paths can share one allocation —
	// fresh per round, sized by the previous round — and each record
	// gets a capacity-capped subslice of it.
	scratch   netsim.Result
	arenaSize int
}

// Start registers the agent with the controller and begins periodic
// probing rounds — on a per-agent ticker, or under the Driver's grouped
// rounds when one is set.
func (a *OverlayAgent) Start() {
	if a.Interval == 0 {
		a.Interval = time.Second
	}
	if a.ProbesPerTarget == 0 {
		a.ProbesPerTarget = 1
	}
	a.Controller.Register(a.Task.ID, a.Container.Index)
	a.epoch = a.Controller.Epoch()
	if a.Driver != nil {
		a.Driver.Add(a)
		return
	}
	a.ticker = a.Engine.Every(a.Engine.Now()+a.Interval, a.Interval, "probe-round", a.round)
}

// Stop deregisters and halts probing — the graceful teardown path.
func (a *OverlayAgent) Stop() {
	a.Kill()
	a.Controller.Deregister(a.Task.ID, a.Container.Index)
}

// Kill halts probing without deregistering — what actually happens
// when the sidecar dies with a crashing container: the controller's
// registry still lists the endpoint, so peers keep probing it and the
// unconnectivity gets detected.
func (a *OverlayAgent) Kill() {
	a.killed = true
	if a.ticker != nil {
		a.ticker.Stop()
	}
}

// Rounds returns the number of completed probing rounds.
func (a *OverlayAgent) Rounds() int { return a.rounds }

// round is one ticker-mode probing round: the same prepare → execute →
// commit → deliver sequence the RoundEngine drives, run inline.
func (a *OverlayAgent) round(now time.Duration) {
	if !a.prepareRound(now) {
		return
	}
	if a.soloCtx == nil {
		a.soloCtx = a.Net.NewProbeCtx()
	}
	a.executeRound(a.soloCtx, now)
	a.Net.CommitQueues(a.soloCtx)
	a.deliver()
}

// prepareRound is the serial prologue of one round: lifecycle and
// lease checks plus the controller ping-list fetch. It runs on the
// engine goroutine (the controller takes a mutex and the lease renewal
// mutates registration state); false means the container is not
// Running and the round is skipped entirely.
func (a *OverlayAgent) prepareRound(now time.Duration) bool {
	if a.Container.State != cluster.Running {
		return false
	}
	// Lease renewal: a restarted controller comes back on a new epoch
	// serving restored (stale) leases on borrowed time. Re-registering
	// here converts the agent's lease to the current incarnation before
	// the stale grace window expires. A down controller keeps its old
	// epoch, so agents stay quiet until the restore actually lands.
	if ep := a.Controller.Epoch(); ep != a.epoch {
		a.Controller.Register(a.Task.ID, a.Container.Index)
		a.epoch = ep
		a.Obs.Inc(obs.AgentReregisters)
	}
	a.targets = a.Controller.PingListInto(a.Task.ID, a.Container.Index, a.targets)
	return true
}

// executeRound is the compute body of one round: pure probing into
// agent-owned buffers through a caller-supplied probe context. It
// touches no locks and no shared mutable state (obs counters are
// atomic), so rounds of different agents may execute concurrently —
// each agent on exactly one worker, each worker with its own ctx.
// Delivery is separate (deliver, or a RoundEngine sink).
func (a *OverlayAgent) executeRound(ctx *netsim.ProbeCtx, now time.Duration) {
	a.batch = a.batch[:0]
	// Fresh per-round path arena, sized by the previous round: sinks
	// retain Record.Path past the round, so the storage cannot be
	// recycled, but all of a round's paths can share one allocation.
	arena := make([]topology.LinkID, 0, a.arenaSize)
	sent := 0
	for _, tg := range a.targets {
		dst := a.Task.Containers[tg.DstContainer]
		src := a.Container.Addrs[tg.SrcRail]
		dstAddr := dst.Addrs[tg.DstRail]
		for p := 0; p < a.ProbesPerTarget; p++ {
			a.entropy++
			sent++
			a.Net.ProbeIntoCtx(ctx, &a.scratch, src, dstAddr, a.entropy)
			res := &a.scratch
			var path []topology.LinkID
			if len(res.UnderlayPath) > 0 {
				start := len(arena)
				arena = append(arena, res.UnderlayPath...)
				path = arena[start:len(arena):len(arena)]
			}
			a.batch = append(a.batch, Record{
				Task:         a.Task.ID,
				SrcContainer: tg.SrcContainer, SrcRail: tg.SrcRail,
				DstContainer: tg.DstContainer, DstRail: tg.DstRail,
				Src: src, Dst: dstAddr,
				At:   now,
				RTT:  res.RTT,
				Lost: res.Lost,
				Path: path,
			})
		}
	}
	if cap(arena) > a.arenaSize {
		a.arenaSize = cap(arena)
	} else if len(arena) < a.arenaSize/2 {
		// Shrink the estimate when ping lists get pruned, so a one-off
		// large round doesn't pin oversized arenas forever.
		a.arenaSize = len(arena) * 2
	}
	a.rounds++
	a.Obs.Inc(obs.ProbeRounds)
	a.Obs.Add(obs.ProbesSent, uint64(sent))
}

// deliver hands the round's records to the agent's own sinks — the
// serial delivery path (ticker mode, and the RoundEngine's fallback
// when a round cannot use the sharded fast path).
func (a *OverlayAgent) deliver() {
	if a.Sink != nil {
		for _, rec := range a.batch {
			a.Sink(rec)
		}
	}
	if a.BatchSink != nil && len(a.batch) > 0 {
		a.BatchSink(a.batch)
	}
}

// ResourceModel reproduces the agent overhead curve of Fig. 17: CPU and
// memory converge quickly after container start and stay flat (≈1 %
// CPU, ≈35 MB) because the skeleton-pruned ping list keeps per-round
// work constant and small.
type ResourceModel struct {
	// Targets is the agent's current ping-list size.
	Targets int
}

// CPUPercent returns the agent's CPU share at a given container age.
func (m ResourceModel) CPUPercent(age time.Duration) float64 {
	// Startup transient: list fetch + registration churn, decaying to
	// the steady probing cost.
	steady := 0.6 + 0.4*math.Min(1, float64(m.Targets)/64.0)
	transient := 2.5 * math.Exp(-age.Seconds()/20)
	return steady + transient
}

// MemoryMB returns the agent's resident memory at a given container age.
func (m ResourceModel) MemoryMB(age time.Duration) float64 {
	// Buffers fill toward the 35 MB plateau.
	plateau := 35.0
	return plateau*(1-math.Exp(-age.Seconds()/30)) + 4
}
