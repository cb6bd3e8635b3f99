// Package probe implements SkeletonHunter's overlay agent (§6),
// deployed as a sidecar sharing the training container's network
// namespace, which fetches its ping list from the controller and
// executes RDMA probes every round.
//
// Agents run under a RoundEngine, which fires every same-phase agent's
// round in one simulation event. Each round's results reach the
// analyzer as one Batch of Records carrying end-to-end latency, loss,
// and the underlay path the probe's flow traversed — the
// traceroute-style physical path tomography needs (§5.3), as fabric
// link ordinals — through the engine's ShardSink, or the agent's own
// BatchSink when the sharded path is off.
//
// A delivered batch is borrowed: the records and their paths live in
// agent buffers that the next round refills. A sink that keeps a
// record or a path past its call copies it into storage it owns (or
// the whole batch, with Clone).
package probe

import (
	"math"
	"time"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/controller"
	"skeletonhunter/internal/netsim"
	"skeletonhunter/internal/obs"
	"skeletonhunter/internal/overlay"
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
	// view a traceroute with the same five-tuple would return), as
	// fabric link ordinals (topology.Fabric.LinkByIndex renders them).
	// In a delivered batch it is borrowed, like the batch itself.
	Path []int32
}

// Batch is the records of one probing round from one agent. All
// records of a batch share the agent's task, and each target pair's
// probes are contiguous — the layout the analyzer's batched ingest
// exploits.
type Batch []Record

// Clone deep-copies the batch — records and paths, the paths sharing
// one new array — for a consumer that keeps it past the sink call.
func (b Batch) Clone() Batch {
	n := 0
	for i := range b {
		n += len(b[i].Path)
	}
	out := append(Batch(nil), b...)
	paths := make([]int32, 0, n)
	for i := range out {
		if out[i].Path != nil {
			start := len(paths)
			paths = append(paths, out[i].Path...)
			out[i].Path = paths[start:len(paths):len(paths)]
		}
	}
	return out
}

// BatchSink consumes a whole probing round at once. The batch is only
// valid for the duration of the call: the agent reuses the records'
// backing array and the paths they point into across rounds, so a sink
// that retains records or paths must copy them.
type BatchSink func(Batch)

// OverlayAgent probes on behalf of one container. One agent exists per
// training container (sidecar); it queries the controller each round so
// list updates (registration, skeleton pruning) take effect without
// agent restarts.
//
// Ownership: everything below the exported configuration — the reused
// batch and its path buffer, the netsim scratch result, the targets
// buffer, the entropy counter — is single-owner state: exactly one RoundEngine worker
// executes the agent's round each tick (agents of one task always ride
// the same worker slot). Nothing here is safe to share.
type OverlayAgent struct {
	Net        *netsim.Net
	Controller *controller.Controller
	Task       *cluster.Task
	Container  *cluster.Container
	// BatchSink, when set, receives each round's records in one call
	// whenever the Driver delivers serially (its ShardSink is unset or
	// declines the sharded path).
	BatchSink BatchSink
	// Driver is the round engine the agent enrolls in at Start: it fires
	// all same-phase agents in one simulation event and fans their
	// rounds out over worker-owned probe contexts. Required.
	Driver *RoundEngine
	// Interval is the probing round period (default 1 s).
	Interval time.Duration
	// ProbesPerTarget is how many probes (with distinct ECMP entropy)
	// each target gets per round (default 1; >1 widens path coverage).
	ProbesPerTarget int
	// Obs, when set, counts probing rounds and probes sent. Nil-safe.
	Obs *obs.Stats

	killed  bool
	rounds  int
	entropy uint64
	epoch   uint64              // controller epoch the agent last registered under
	batch   Batch               // reused across rounds
	paths   []int32             // the batch's path ordinals, reused across rounds
	targets []controller.Target // reused ping-list buffer (serial prologue only)
	scratch netsim.Result       // reused netsim result (its path buffer is recycled every probe)
}

// Start registers the agent with the controller and enrolls it in the
// Driver's grouped rounds.
func (a *OverlayAgent) Start() {
	if a.Interval == 0 {
		a.Interval = time.Second
	}
	if a.ProbesPerTarget == 0 {
		a.ProbesPerTarget = 1
	}
	a.Controller.Register(a.Task.ID, a.Container.Index)
	a.epoch = a.Controller.Epoch()
	a.Driver.Add(a)
}

// Stop deregisters and halts probing — the graceful teardown path.
func (a *OverlayAgent) Stop() {
	a.Kill()
	a.Controller.Deregister(a.Task.ID, a.Container.Index)
}

// Kill halts probing without deregistering — what actually happens
// when the sidecar dies with a crashing container: the controller's
// registry still lists the endpoint, so peers keep probing it and the
// unconnectivity gets detected. The Driver drops a killed agent from
// its rotation at the agent's next round.
func (a *OverlayAgent) Kill() { a.killed = true }

// Rounds returns the number of completed probing rounds.
func (a *OverlayAgent) Rounds() int { return a.rounds }

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
// Delivery is the RoundEngine's (ShardSink, or the agent's BatchSink).
func (a *OverlayAgent) executeRound(ctx *netsim.ProbeCtx, now time.Duration) {
	a.batch = a.batch[:0]
	a.paths = a.paths[:0]
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
			var path []int32
			if len(res.UnderlayPath) > 0 {
				// A record keeps pointing at the array it was cut from
				// if a later append moves the buffer; the contents stay
				// valid until the next round refills it.
				start := len(a.paths)
				a.paths = append(a.paths, res.UnderlayPath...)
				path = a.paths[start:len(a.paths):len(a.paths)]
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
	a.rounds++
	a.Obs.Inc(obs.ProbeRounds)
	a.Obs.Add(obs.ProbesSent, uint64(sent))
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
