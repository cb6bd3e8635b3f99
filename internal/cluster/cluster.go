// Package cluster models the containerized training infrastructure's
// control plane (§2, §3.1): physical hosts with GPUs and rail-attached
// RNICs, training tasks made of containers, and the lifecycle dynamics
// that make container networks hard to monitor — phased creation with
// minutes of lag between the first and last container of a task
// (Fig. 4), short skewed lifetimes (Figs. 2–3), and uncoordinated state
// transitions.
//
// Containers attach overlay endpoints only once they reach Running,
// exactly like a real container finishing network-stack initialization;
// probing a container before that point fails, which is the
// false-positive source SkeletonHunter's incremental ping-list
// activation exists to avoid (§5.1).
package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"skeletonhunter/internal/overlay"
	"skeletonhunter/internal/parallelism"
	"skeletonhunter/internal/sim"
	"skeletonhunter/internal/topology"
)

// TaskID identifies a training task.
type TaskID string

// ContainerID identifies a container.
type ContainerID string

// State is a container lifecycle state.
type State int

const (
	Pending State = iota
	Starting
	Running
	Terminated
)

func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Starting:
		return "starting"
	case Running:
		return "running"
	case Terminated:
		return "terminated"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Container is one training node: a container bound to GPUs and the
// same number of rail-aligned RNIC VFs on a single host.
type Container struct {
	ID    ContainerID
	Task  TaskID
	Index int // task-local index (== parallelism container index)
	Host  int
	GPUs  int
	State State

	CreatedAt time.Duration
	RunningAt time.Duration
	StoppedAt time.Duration

	// Addrs holds the overlay address of each endpoint, indexed by rail.
	Addrs []overlay.Addr
}

// Task is a training task (a tenant workload).
type Task struct {
	ID               TaskID
	VNI              overlay.VNI
	Par              parallelism.Config
	GPUsPerContainer int
	Containers       []*Container
	SubmittedAt      time.Duration
	FinishedAt       time.Duration
	Finished         bool
}

// NumContainers returns the container count of the task.
func (t *Task) NumContainers() int { return t.Par.NumGPUs() / t.GPUsPerContainer }

// RunningContainers returns the containers currently in Running state.
func (t *Task) RunningContainers() []*Container {
	var out []*Container
	for _, c := range t.Containers {
		if c.State == Running {
			out = append(out, c)
		}
	}
	return out
}

// EventKind labels lifecycle events delivered to subscribers.
type EventKind int

const (
	EvTaskSubmitted EventKind = iota
	EvContainerCreated
	EvContainerRunning
	EvContainerStopped
	// EvContainerCrashed is an ungraceful termination: the container's
	// network endpoints vanish but nothing deregisters with the
	// monitoring controller — peers keep probing it and observe
	// unconnectivity, which is exactly how a crash gets noticed.
	EvContainerCrashed
	// EvContainerMigrated reports a live migration: the container moved
	// to a different host, its endpoints re-attached there (§8's quick
	// recovery path for containers stranded on failing hosts).
	EvContainerMigrated
	EvTaskFinished
)

func (k EventKind) String() string {
	switch k {
	case EvTaskSubmitted:
		return "task-submitted"
	case EvContainerCreated:
		return "container-created"
	case EvContainerRunning:
		return "container-running"
	case EvContainerStopped:
		return "container-stopped"
	case EvContainerCrashed:
		return "container-crashed"
	case EvContainerMigrated:
		return "container-migrated"
	case EvTaskFinished:
		return "task-finished"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is a lifecycle notification.
type Event struct {
	Kind      EventKind
	At        time.Duration
	Task      *Task
	Container *Container // nil for task-level events
}

// Handler consumes lifecycle events.
type Handler func(Event)

// LagModel provides the stochastic lifecycle delays. The defaults
// reproduce the production distributions of §3.1; tests override them
// for determinism.
type LagModel struct {
	// CreateLag returns the delay between task submission and container
	// i's creation (the phased pattern of Fig. 4).
	CreateLag func(r *rand.Rand, i int) time.Duration
	// StartupDelay returns the time a created container spends
	// initializing (network stack, image pull) before Running.
	StartupDelay func(r *rand.Rand) time.Duration
	// StopLag returns the per-container teardown skew at task finish.
	StopLag func(r *rand.Rand) time.Duration
}

// DefaultLagModel returns production-shaped delays: containers are
// created in waves of ~32 with exponential jitter, initialization takes
// tens of seconds, and teardown skews by up to a couple of minutes.
func DefaultLagModel() LagModel {
	return LagModel{
		CreateLag: func(r *rand.Rand, i int) time.Duration {
			wave := time.Duration(i/32) * 20 * time.Second
			jitter := time.Duration(r.ExpFloat64() * float64(8*time.Second))
			return wave + jitter
		},
		StartupDelay: func(r *rand.Rand) time.Duration {
			return 15*time.Second + time.Duration(r.ExpFloat64()*float64(20*time.Second))
		},
		StopLag: func(r *rand.Rand) time.Duration {
			return time.Duration(r.ExpFloat64() * float64(30*time.Second))
		},
	}
}

// ControlPlane schedules tasks onto hosts and drives container
// lifecycles on the simulation engine.
type ControlPlane struct {
	Engine  *sim.Engine
	Fabric  *topology.Fabric
	Overlay *overlay.Network

	// HostSchedulable, when set, vetoes host allocation: Submit skips
	// hosts for which it returns false. The monitoring system wires
	// this to its blacklist so no new training task lands on a host
	// with a known-bad component (§8, "Handling Detected Failures").
	HostSchedulable func(host int) bool

	lag      LagModel
	tasks    map[TaskID]*Task
	taskSeq  int
	vniSeq   overlay.VNI
	hostBusy []bool
	cordoned []bool
	handlers []Handler
}

// NewControlPlane wires a control plane to an engine, fabric and
// overlay network.
func NewControlPlane(eng *sim.Engine, fab *topology.Fabric, ovl *overlay.Network, lag LagModel) *ControlPlane {
	if lag.CreateLag == nil || lag.StartupDelay == nil || lag.StopLag == nil {
		def := DefaultLagModel()
		if lag.CreateLag == nil {
			lag.CreateLag = def.CreateLag
		}
		if lag.StartupDelay == nil {
			lag.StartupDelay = def.StartupDelay
		}
		if lag.StopLag == nil {
			lag.StopLag = def.StopLag
		}
	}
	return &ControlPlane{
		Engine:   eng,
		Fabric:   fab,
		Overlay:  ovl,
		lag:      lag,
		tasks:    make(map[TaskID]*Task),
		vniSeq:   100,
		hostBusy: make([]bool, fab.Hosts()),
		cordoned: make([]bool, fab.Hosts()),
	}
}

// CordonHost marks a host unschedulable for placement: Submit and
// MigrateContainer never land a container on it. Running containers
// stay put — draining is a separate, explicit step (DrainHost), so a
// cordon alone never disrupts workloads. Idempotent; reports whether
// the host index is valid.
func (cp *ControlPlane) CordonHost(h int) bool {
	if h < 0 || h >= len(cp.cordoned) {
		return false
	}
	cp.cordoned[h] = true
	return true
}

// UncordonHost readmits a host to placement. Idempotent.
func (cp *ControlPlane) UncordonHost(h int) {
	if h >= 0 && h < len(cp.cordoned) {
		cp.cordoned[h] = false
	}
}

// HostCordoned reports whether a host is cordoned.
func (cp *ControlPlane) HostCordoned(h int) bool {
	return h >= 0 && h < len(cp.cordoned) && cp.cordoned[h]
}

// CordonedHosts returns the cordoned host indices in ascending order.
func (cp *ControlPlane) CordonedHosts() []int {
	var out []int
	for h, c := range cp.cordoned {
		if c {
			out = append(out, h)
		}
	}
	return out
}

// placeable reports whether a host can receive a new container: free,
// not cordoned, and not vetoed by the scheduler (blacklist).
func (cp *ControlPlane) placeable(h int) bool {
	if cp.hostBusy[h] || cp.cordoned[h] {
		return false
	}
	return cp.HostSchedulable == nil || cp.HostSchedulable(h)
}

// Subscribe registers a lifecycle event handler. Handlers run
// synchronously in event order.
func (cp *ControlPlane) Subscribe(h Handler) { cp.handlers = append(cp.handlers, h) }

func (cp *ControlPlane) emit(ev Event) {
	for _, h := range cp.handlers {
		h(ev)
	}
}

// TaskSpec describes a submission.
type TaskSpec struct {
	Par              parallelism.Config
	GPUsPerContainer int           // default 8
	Lifetime         time.Duration // 0 = run until FinishTask
}

// Errors returned by Submit.
var (
	ErrNoCapacity = errors.New("cluster: not enough free hosts")
	ErrBadSpec    = errors.New("cluster: invalid task spec")
)

// Submit validates the spec, allocates one host per container
// (training containers use all of a host's GPUs and rails, the dominant
// production configuration per Fig. 5), and schedules the phased
// lifecycle. It returns the created task; containers reach Running
// asynchronously as the engine advances.
func (cp *ControlPlane) Submit(spec TaskSpec) (*Task, error) {
	if spec.GPUsPerContainer == 0 {
		spec.GPUsPerContainer = 8
	}
	if err := spec.Par.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if spec.GPUsPerContainer < 1 || spec.GPUsPerContainer > cp.Fabric.Spec.Rails ||
		spec.Par.NumGPUs()%spec.GPUsPerContainer != 0 {
		return nil, ErrBadSpec
	}
	nContainers := spec.Par.NumGPUs() / spec.GPUsPerContainer

	// First-fit host allocation, one container per host, skipping
	// hosts the scheduler veto (blacklisted) or a cordon marks
	// unschedulable.
	hosts := make([]int, 0, nContainers)
	for h := 0; h < len(cp.hostBusy) && len(hosts) < nContainers; h++ {
		if !cp.placeable(h) {
			continue
		}
		hosts = append(hosts, h)
	}
	if len(hosts) < nContainers {
		return nil, ErrNoCapacity
	}
	for _, h := range hosts {
		cp.hostBusy[h] = true
	}

	cp.taskSeq++
	cp.vniSeq++
	task := &Task{
		ID:               TaskID(fmt.Sprintf("task-%d", cp.taskSeq)),
		VNI:              cp.vniSeq,
		Par:              spec.Par,
		GPUsPerContainer: spec.GPUsPerContainer,
		SubmittedAt:      cp.Engine.Now(),
	}
	rng := cp.Engine.Rand("cluster/" + string(task.ID))
	for i := 0; i < nContainers; i++ {
		c := &Container{
			ID:    ContainerID(fmt.Sprintf("%s/c%d", task.ID, i)),
			Task:  task.ID,
			Index: i,
			Host:  hosts[i],
			GPUs:  spec.GPUsPerContainer,
			State: Pending,
			Addrs: make([]overlay.Addr, spec.GPUsPerContainer),
		}
		for rail := 0; rail < spec.GPUsPerContainer; rail++ {
			c.Addrs[rail] = overlay.Addr{
				VNI:  task.VNI,
				IP:   fmt.Sprintf("10.%d.%d.%d", task.VNI, i, rail),
				Host: c.Host,
				Rail: rail,
			}
		}
		task.Containers = append(task.Containers, c)
	}
	cp.tasks[task.ID] = task
	cp.emit(Event{Kind: EvTaskSubmitted, At: cp.Engine.Now(), Task: task})

	for _, c := range task.Containers {
		c := c
		createAt := cp.lag.CreateLag(rng, c.Index)
		cp.Engine.After(createAt, "container-create", func(now time.Duration) {
			if c.State != Pending {
				return
			}
			c.State = Starting
			c.CreatedAt = now
			cp.emit(Event{Kind: EvContainerCreated, At: now, Task: task, Container: c})
			cp.Engine.After(cp.lag.StartupDelay(rng), "container-start", func(now time.Duration) {
				if c.State != Starting {
					return
				}
				cp.startContainer(task, c, now)
			})
		})
	}
	if spec.Lifetime > 0 {
		cp.Engine.After(spec.Lifetime, "task-finish", func(now time.Duration) {
			cp.FinishTask(task.ID)
		})
	}
	return task, nil
}

func (cp *ControlPlane) startContainer(task *Task, c *Container, now time.Duration) {
	c.State = Running
	c.RunningAt = now
	for _, a := range c.Addrs {
		// Attaching registers the endpoint and fans flow rules out to
		// peer hosts — the moment the container becomes pingable.
		if err := cp.Overlay.AttachEndpoint(a); err != nil {
			// Duplicate attach indicates a lifecycle bug; fail loudly in
			// simulation rather than masking it.
			panic(fmt.Sprintf("cluster: attach %v: %v", a, err))
		}
	}
	cp.emit(Event{Kind: EvContainerRunning, At: now, Task: task, Container: c})
}

// FinishTask tears a task down with per-container stop lag. Finishing
// an unknown or already-finished task is a no-op.
func (cp *ControlPlane) FinishTask(id TaskID) {
	task, ok := cp.tasks[id]
	if !ok || task.Finished {
		return
	}
	task.Finished = true
	task.FinishedAt = cp.Engine.Now()
	rng := cp.Engine.Rand("cluster/" + string(task.ID))
	for _, c := range task.Containers {
		c := c
		cp.Engine.After(cp.lag.StopLag(rng), "container-stop", func(now time.Duration) {
			cp.stopContainer(task, c, now, false)
		})
	}
	cp.emit(Event{Kind: EvTaskFinished, At: cp.Engine.Now(), Task: task})
}

func (cp *ControlPlane) stopContainer(task *Task, c *Container, now time.Duration, crashed bool) {
	if c.State == Terminated {
		return
	}
	wasRunning := c.State == Running
	c.State = Terminated
	c.StoppedAt = now
	if wasRunning {
		for _, a := range c.Addrs {
			cp.Overlay.DetachEndpoint(a)
		}
	}
	cp.hostBusy[c.Host] = false
	kind := EvContainerStopped
	if crashed {
		kind = EvContainerCrashed
	}
	cp.emit(Event{Kind: kind, At: now, Task: task, Container: c})
}

// CrashContainer terminates one container immediately and ungracefully
// (issue 17 of Table 1: container runtime defects crash containers
// shortly after creation). Endpoints detach, so peers probing it see
// unreachability; unlike a graceful stop, nothing deregisters from the
// monitoring plane.
func (cp *ControlPlane) CrashContainer(id ContainerID) bool {
	for _, t := range cp.tasks {
		for _, c := range t.Containers {
			if c.ID == id && c.State != Terminated {
				cp.stopContainer(t, c, cp.Engine.Now(), true)
				return true
			}
		}
	}
	return false
}

// Errors returned by MigrateContainer.
var (
	ErrNotRunning  = errors.New("cluster: container not running")
	ErrNotFound    = errors.New("cluster: container not found")
	ErrNoMigration = errors.New("cluster: no schedulable host available for migration")
)

// MigrateContainer live-migrates a Running container to a free,
// schedulable host: its endpoints detach from the source host,
// re-home, and re-attach on the destination, after which peers reach
// it over the new paths. This is the quick-recovery mechanism §8
// describes for containers stranded behind a failing component.
func (cp *ControlPlane) MigrateContainer(id ContainerID) (*Container, error) {
	var task *Task
	var c *Container
	for _, t := range cp.tasks {
		for _, cc := range t.Containers {
			if cc.ID == id {
				task, c = t, cc
			}
		}
	}
	if c == nil {
		return nil, ErrNotFound
	}
	if c.State != Running {
		return nil, ErrNotRunning
	}
	dst := -1
	for h := 0; h < len(cp.hostBusy); h++ {
		if h == c.Host || !cp.placeable(h) {
			continue
		}
		dst = h
		break
	}
	if dst < 0 {
		return nil, ErrNoMigration
	}
	for _, a := range c.Addrs {
		cp.Overlay.DetachEndpoint(a)
	}
	cp.hostBusy[c.Host] = false
	cp.hostBusy[dst] = true
	c.Host = dst
	for rail := range c.Addrs {
		c.Addrs[rail].Host = dst
		if err := cp.Overlay.AttachEndpoint(c.Addrs[rail]); err != nil {
			panic(fmt.Sprintf("cluster: migrate attach %v: %v", c.Addrs[rail], err))
		}
	}
	cp.emit(Event{Kind: EvContainerMigrated, At: cp.Engine.Now(), Task: task, Container: c})
	return c, nil
}

// DrainHost live-migrates every Running container off a host, in task
// submission order. It stops at the first container that cannot be
// placed (all spares busy, cordoned or blacklisted) and returns that
// error alongside the count already moved — a partial drain leaves the
// remaining containers running where they are rather than killing
// them. Draining does not cordon; callers that want the host to stay
// empty cordon it first.
func (cp *ControlPlane) DrainHost(h int) (moved int, err error) {
	for _, t := range cp.Tasks() {
		for _, c := range t.Containers {
			if c.Host != h || c.State != Running {
				continue
			}
			if _, merr := cp.MigrateContainer(c.ID); merr != nil {
				return moved, merr
			}
			moved++
		}
	}
	return moved, nil
}

// ErrNotRestartable reports a restart attempt on a container that is
// not a crashed member of an unfinished task.
var ErrNotRestartable = errors.New("cluster: container not restartable")

// RestartContainer re-runs a crashed (Terminated) container of an
// unfinished task on the first free, schedulable host — the
// remediation path for issue 17 container-runtime crashes. The
// container re-homes, re-attaches its endpoints and emits
// EvContainerRunning so the monitoring plane picks it back up.
func (cp *ControlPlane) RestartContainer(id ContainerID) (*Container, error) {
	var task *Task
	var c *Container
	for _, t := range cp.tasks {
		for _, cc := range t.Containers {
			if cc.ID == id {
				task, c = t, cc
			}
		}
	}
	if c == nil {
		return nil, ErrNotFound
	}
	if c.State != Terminated || task.Finished {
		return nil, ErrNotRestartable
	}
	dst := -1
	for h := 0; h < len(cp.hostBusy); h++ {
		if !cp.placeable(h) {
			continue
		}
		dst = h
		break
	}
	if dst < 0 {
		return nil, ErrNoMigration
	}
	cp.hostBusy[dst] = true
	c.Host = dst
	c.State = Running
	c.RunningAt = cp.Engine.Now()
	for rail := range c.Addrs {
		c.Addrs[rail].Host = dst
		if err := cp.Overlay.AttachEndpoint(c.Addrs[rail]); err != nil {
			panic(fmt.Sprintf("cluster: restart attach %v: %v", c.Addrs[rail], err))
		}
	}
	cp.emit(Event{Kind: EvContainerRunning, At: cp.Engine.Now(), Task: task, Container: c})
	return c, nil
}

// Task returns a task by ID.
func (cp *ControlPlane) Task(id TaskID) (*Task, bool) {
	t, ok := cp.tasks[id]
	return t, ok
}

// Tasks returns all tasks (active and finished) in submission order.
func (cp *ControlPlane) Tasks() []*Task {
	out := make([]*Task, 0, len(cp.tasks))
	for i := 1; i <= cp.taskSeq; i++ {
		if t, ok := cp.tasks[TaskID(fmt.Sprintf("task-%d", i))]; ok {
			out = append(out, t)
		}
	}
	return out
}

// FreeHosts returns the number of hosts without a container.
func (cp *ControlPlane) FreeHosts() int {
	n := 0
	for _, b := range cp.hostBusy {
		if !b {
			n++
		}
	}
	return n
}
