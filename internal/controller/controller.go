// Package controller implements SkeletonHunter's controller (§4, §5.1):
// it owns the ping-list lifecycle for every training task across the
// three phases of the paper —
//
//   - preload: on task submission (before any container exists) the
//     basic ping list is derived by rail pruning the full mesh, an 8×
//     reduction on 8-rail hosts;
//   - initialization: the list is activated incrementally in the data
//     plane — a source container only probes destinations whose agents
//     have registered as Running, avoiding the startup false positives
//     of Challenge 1;
//   - runtime: once the analyzer has inferred the traffic skeleton from
//     burst cycles, the list is pruned to skeleton pairs (>95 % total
//     reduction versus the full mesh).
//
// The controller is an always-on service, so it must survive its own
// restarts: registrations are held as epoch-stamped leases, and the
// full registry state round-trips through a versioned Snapshot (see
// snapshot.go). A restarted controller serves restored registrations
// under a bumped epoch; agents notice the epoch change and re-register,
// converting their stale leases into current ones before the stale
// grace window expires.
package controller

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/skeleton"
)

// DefaultRecoveryGrace is how long a restored (stale-epoch) lease keeps
// serving after a Restore before it expires. It must comfortably exceed
// the agents' probing interval: a live agent re-registers at its next
// round, while a lease nobody renews (the agent died with the
// controller down, so its Deregister was lost) ages out instead of
// polluting ping lists forever.
const DefaultRecoveryGrace = 2 * time.Minute

// Target is one probing assignment for an agent: probe the endpoint
// (DstContainer, DstRail) from (SrcContainer, SrcRail). Indices are
// task-local.
type Target struct {
	SrcContainer, SrcRail int
	DstContainer, DstRail int
}

// Phase reports which ping-list generation a task is on.
type Phase int

const (
	PhasePreload Phase = iota
	PhaseSkeleton
)

func (p Phase) String() string {
	if p == PhaseSkeleton {
		return "skeleton"
	}
	return "preload"
}

// lease is one container agent's registration. Epoch records which
// controller incarnation granted it. expires is zero for leases granted
// live (they last until Deregister — expiry would blind unconnectivity
// detection of crashed containers, whose peers must keep probing them);
// restored leases get a grace deadline instead, so registrations whose
// owners died during the outage age out.
type lease struct {
	epoch   uint64
	expires time.Duration // 0 = no expiry
}

type taskState struct {
	task       *cluster.Task
	registered map[int]lease // container index → agent lease
	basic      []Target      // rail-pruned full mesh
	skeleton   []Target      // skeleton-pruned list (when inferred)
	phase      Phase
}

// Controller generates and serves ping lists. It is safe for
// concurrent use (agents in a real deployment query it over the
// network; in-process tests may query from multiple goroutines).
type Controller struct {
	mu    sync.Mutex
	tasks map[cluster.TaskID]*taskState

	// epoch counts controller incarnations; it starts at 1 and bumps on
	// every Restore. Leases remember the epoch that granted them, which
	// is how a restarted controller tells live registrations from
	// restored ones.
	epoch uint64
	// down models the crashed window between Crash and Restore: every
	// mutation is dropped and PingListInto serves nothing, like a dead
	// process.
	down bool

	// now, when set, supplies the virtual clock used for lease expiry.
	// Without a clock, restored leases never expire.
	now           func() time.Duration
	recoveryGrace time.Duration

	// frozen serves stale ping lists: while set, each (task, source)
	// query is answered from cache, so registration, skeleton, and
	// lifecycle changes stop propagating to agents — the injected
	// "controller stopped updating" telemetry fault.
	frozen bool
	cache  map[frozenKey][]Target
}

type frozenKey struct {
	task cluster.TaskID
	src  int
}

// New returns an empty controller on epoch 1. Wire it to a control
// plane with Attach, or drive AddTask/Register manually.
func New() *Controller {
	return &Controller{
		tasks:         make(map[cluster.TaskID]*taskState),
		epoch:         1,
		recoveryGrace: DefaultRecoveryGrace,
	}
}

// UseClock wires a virtual-time source (e.g. sim.Engine.Now) used for
// stale-lease expiry after a Restore.
func (c *Controller) UseClock(now func() time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = now
}

// Epoch returns the controller incarnation counter. Agents compare it
// against the epoch they last registered under and re-register when it
// moves.
func (c *Controller) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Down reports whether the controller is in its crashed window.
func (c *Controller) Down() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.down
}

// Crash models the controller process dying: all in-memory state is
// lost and the controller stops serving until Restore brings it back
// from a checkpoint. The epoch does not move yet — the dead process has
// no epoch to speak of; Restore stamps the new incarnation.
func (c *Controller) Crash() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.down = true
	c.tasks = make(map[cluster.TaskID]*taskState)
	c.cache = nil
	c.frozen = false
}

// Attach subscribes the controller to a control plane's lifecycle
// events: task submission preloads the basic list, container Running
// registers the agent, container stop deregisters it.
func (c *Controller) Attach(cp *cluster.ControlPlane) {
	cp.Subscribe(func(ev cluster.Event) {
		switch ev.Kind {
		case cluster.EvTaskSubmitted:
			c.AddTask(ev.Task)
		case cluster.EvContainerRunning:
			c.Register(ev.Task.ID, ev.Container.Index)
		case cluster.EvContainerStopped:
			c.Deregister(ev.Task.ID, ev.Container.Index)
		case cluster.EvTaskFinished:
			// Containers deregister individually as they stop; the task
			// entry is dropped once every container is gone.
		}
	})
}

// AddTask preloads the basic ping list for a task. Adding a task twice
// is a no-op.
func (c *Controller) AddTask(task *cluster.Task) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return
	}
	if _, ok := c.tasks[task.ID]; ok {
		return
	}
	c.tasks[task.ID] = &taskState{
		task:       task,
		registered: make(map[int]lease),
		basic:      BasicPingList(task.NumContainers(), task.GPUsPerContainer),
	}
}

// RemoveTask drops all state for a task.
func (c *Controller) RemoveTask(id cluster.TaskID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return
	}
	delete(c.tasks, id)
}

// TaskIDs returns the registered task IDs in sorted order.
func (c *Controller) TaskIDs() []cluster.TaskID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]cluster.TaskID, 0, len(c.tasks))
	for id := range c.tasks {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Register marks a container's agent as up (the data-plane activation
// step of §5.1): its endpoints become valid probe destinations. The
// lease is stamped with the current epoch; re-registering after a
// controller restart upgrades a restored stale lease to a current one
// and clears its expiry.
func (c *Controller) Register(id cluster.TaskID, containerIdx int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return
	}
	if ts, ok := c.tasks[id]; ok {
		ts.registered[containerIdx] = lease{epoch: c.epoch}
	}
}

// Deregister removes a stopped container from the active set.
func (c *Controller) Deregister(id cluster.TaskID, containerIdx int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return
	}
	if ts, ok := c.tasks[id]; ok {
		delete(ts.registered, containerIdx)
		if len(ts.registered) == 0 && ts.task.Finished {
			delete(c.tasks, id)
		}
	}
}

// Registered reports whether a container's agent holds a live lease.
func (c *Controller) Registered(id cluster.TaskID, containerIdx int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return false
	}
	ts, ok := c.tasks[id]
	if !ok {
		return false
	}
	l, ok := ts.registered[containerIdx]
	return ok && c.leaseLive(l)
}

// Registration describes one lease for introspection (tests, the
// -stats CLI output).
type Registration struct {
	Container int
	Epoch     uint64
	Expires   time.Duration // zero for non-expiring (live-granted) leases
}

// Registrations returns a task's leases sorted by container index.
// Expired leases are excluded.
func (c *Controller) Registrations(id cluster.TaskID) []Registration {
	c.mu.Lock()
	defer c.mu.Unlock()
	ts, ok := c.tasks[id]
	if !ok || c.down {
		return nil
	}
	out := make([]Registration, 0, len(ts.registered))
	for idx, l := range ts.registered {
		if !c.leaseLive(l) {
			continue
		}
		out = append(out, Registration{Container: idx, Epoch: l.epoch, Expires: l.expires})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Container < out[j].Container })
	return out
}

// StaleRegistrations counts a task's live leases granted by an earlier
// controller incarnation — registrations restored from a checkpoint
// that their agents have not yet renewed.
func (c *Controller) StaleRegistrations(id cluster.TaskID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	ts, ok := c.tasks[id]
	if !ok || c.down {
		return 0
	}
	n := 0
	for _, l := range ts.registered {
		if c.leaseLive(l) && l.epoch < c.epoch {
			n++
		}
	}
	return n
}

// leaseLive reports whether a lease still serves; the caller holds
// c.mu. Leases without an expiry (granted live) never lapse; restored
// leases lapse once the virtual clock passes their grace deadline.
func (c *Controller) leaseLive(l lease) bool {
	if l.expires == 0 || c.now == nil {
		return true
	}
	return c.now() <= l.expires
}

// SetFrozen freezes (true) or thaws (false) ping-list serving — the
// stale-controller telemetry fault. The first frozen query per
// (task, source) computes and caches the list; every later query
// returns that snapshot unchanged, however the underlying state moves.
// Thawing drops the cache so fresh lists flow again.
func (c *Controller) SetFrozen(frozen bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frozen = frozen
	if frozen {
		if c.cache == nil {
			c.cache = make(map[frozenKey][]Target)
		}
	} else {
		c.cache = nil
	}
}

// PingListInto returns the active probe targets for one source
// container: the current-phase list filtered to leased destinations
// (and a leased source — an unregistered agent probes nothing). While
// frozen (SetFrozen) the caller gets the snapshot cached at its first
// frozen query instead. A crashed (down) controller serves nothing.
//
// Targets are appended to buf's backing array from index 0 and the
// filled slice is returned, so high-rate callers (the probe round
// engine queries once per agent per round) reuse one buffer; a nil buf
// gets a fresh slice, nil when there are no targets. The caller owns
// buf; frozen-cache snapshots are copied out, never aliased.
func (c *Controller) PingListInto(id cluster.TaskID, srcContainer int, buf []Target) []Target {
	buf = buf[:0]
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return buf
	}
	if c.frozen {
		k := frozenKey{task: id, src: srcContainer}
		list, ok := c.cache[k]
		if !ok {
			list = c.pingListIntoLocked(id, srcContainer, nil)
			c.cache[k] = list
		}
		return append(buf, list...)
	}
	return c.pingListIntoLocked(id, srcContainer, buf)
}

func (c *Controller) pingListIntoLocked(id cluster.TaskID, srcContainer int, out []Target) []Target {
	ts, ok := c.tasks[id]
	if !ok {
		return out
	}
	src, ok := ts.registered[srcContainer]
	if !ok || !c.leaseLive(src) {
		return out
	}
	list := ts.basic
	if ts.phase == PhaseSkeleton {
		list = ts.skeleton
	}
	for _, t := range list {
		if t.SrcContainer != srcContainer {
			continue
		}
		dst, ok := ts.registered[t.DstContainer]
		if ok && c.leaseLive(dst) {
			out = append(out, t)
		}
	}
	return out
}

// ApplySkeleton installs an inferred skeleton for a task, switching it
// to the runtime phase. The endpoint index convention of the inference
// must be container*GPUsPerContainer + rail (the order produced by
// EndpointOrder).
func (c *Controller) ApplySkeleton(id cluster.TaskID, inf skeleton.Inference) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return fmt.Errorf("controller: down")
	}
	ts, ok := c.tasks[id]
	if !ok {
		return fmt.Errorf("controller: unknown task %s", id)
	}
	gpc := ts.task.GPUsPerContainer
	var targets []Target
	for _, p := range inf.Pairs {
		sc, sr := p.A/gpc, p.A%gpc
		dc, dr := p.B/gpc, p.B%gpc
		if sc == dc {
			continue
		}
		// Probe both directions: connectivity failures can be
		// asymmetric (e.g. one-sided offload staleness).
		targets = append(targets,
			Target{SrcContainer: sc, SrcRail: sr, DstContainer: dc, DstRail: dr},
			Target{SrcContainer: dc, SrcRail: dr, DstContainer: sc, DstRail: sr},
		)
	}
	sortTargets(targets)
	ts.skeleton = targets
	ts.phase = PhaseSkeleton
	return nil
}

// RevertToBasic drops a task back to its basic (rail-pruned) ping
// list — the safe fallback when skeleton fidelity validation finds the
// inferred skeleton no longer matches the task's traffic (§7.3).
func (c *Controller) RevertToBasic(id cluster.TaskID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return
	}
	if ts, ok := c.tasks[id]; ok {
		ts.phase = PhasePreload
		ts.skeleton = nil
	}
}

// Stats summarizes probing scale for one task (Fig. 15's metric).
type Stats struct {
	FullMeshTargets int // all-rails all-pairs (the Pingmesh strawman)
	BasicTargets    int // rail-pruned (preload phase)
	CurrentTargets  int // what agents would actually probe now
	Phase           Phase
}

// StatsOf computes the probing-scale statistics for a task.
func (c *Controller) StatsOf(id cluster.TaskID) (Stats, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ts, ok := c.tasks[id]
	if !ok {
		return Stats{}, false
	}
	nc := ts.task.NumContainers()
	gpc := ts.task.GPUsPerContainer
	nEp := nc * gpc
	s := Stats{
		FullMeshTargets: nEp * (nEp - gpc), // every endpoint → every other container's endpoints
		BasicTargets:    len(ts.basic),
		Phase:           ts.phase,
	}
	if ts.phase == PhaseSkeleton {
		s.CurrentTargets = len(ts.skeleton)
	} else {
		s.CurrentTargets = len(ts.basic)
	}
	return s, true
}

// BasicPingList builds the preload-phase list: the same-rail full mesh.
// Every ordered (src, dst) container pair probes on each rail — the 8×
// (rails×) reduction over the full mesh, derivable before any container
// starts because it depends only on the task shape.
func BasicPingList(nContainers, rails int) []Target {
	var out []Target
	for s := 0; s < nContainers; s++ {
		for d := 0; d < nContainers; d++ {
			if s == d {
				continue
			}
			for r := 0; r < rails; r++ {
				out = append(out, Target{SrcContainer: s, SrcRail: r, DstContainer: d, DstRail: r})
			}
		}
	}
	return out
}

// EndpointOrder enumerates a task's endpoints in the index order the
// skeleton-inference input must use with ApplySkeleton.
func EndpointOrder(task *cluster.Task) []*cluster.Container {
	out := make([]*cluster.Container, 0, task.NumContainers())
	out = append(out, task.Containers...)
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

func sortTargets(ts []Target) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
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
}
