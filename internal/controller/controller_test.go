package controller

import (
	"testing"
	"time"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/overlay"
	"skeletonhunter/internal/parallelism"
	"skeletonhunter/internal/sim"
	"skeletonhunter/internal/skeleton"
	"skeletonhunter/internal/topology"
)

func makeTask(t *testing.T) (*sim.Engine, *cluster.ControlPlane, *cluster.Task, *Controller) {
	t.Helper()
	eng := sim.NewEngine(3)
	fab, err := topology.New(topology.Spec{Pods: 1, HostsPerPod: 8, Rails: 8, AggPerPod: 2})
	if err != nil {
		t.Fatal(err)
	}
	cp := cluster.NewControlPlane(eng, fab, overlay.NewNetwork(), cluster.DefaultLagModel())
	ctl := New()
	ctl.Attach(cp)
	task, err := cp.Submit(cluster.TaskSpec{Par: parallelism.Config{TP: 8, PP: 2, DP: 2}})
	if err != nil {
		t.Fatal(err)
	}
	return eng, cp, task, ctl
}

func TestBasicPingListRailPruned(t *testing.T) {
	// 4 containers × 8 rails: full mesh = 32 endpoints × 24 foreign
	// endpoints = 768 ordered targets; basic = 4×3 container pairs × 8
	// rails = 96 — exactly 8× (rails×) smaller.
	basic := BasicPingList(4, 8)
	if len(basic) != 96 {
		t.Fatalf("basic list = %d targets, want 96", len(basic))
	}
	for _, tg := range basic {
		if tg.SrcRail != tg.DstRail {
			t.Fatalf("cross-rail target in basic list: %+v", tg)
		}
		if tg.SrcContainer == tg.DstContainer {
			t.Fatalf("self target: %+v", tg)
		}
	}
}

func TestPreloadHappensAtSubmission(t *testing.T) {
	_, _, task, ctl := makeTask(t)
	// Before any container runs, the task is known with a basic list.
	st, ok := ctl.StatsOf(task.ID)
	if !ok {
		t.Fatal("task not preloaded at submission")
	}
	if st.BasicTargets != 96 {
		t.Fatalf("basic targets = %d, want 96", st.BasicTargets)
	}
	if st.FullMeshTargets != 768 {
		t.Fatalf("full mesh targets = %d, want 768", st.FullMeshTargets)
	}
	if st.FullMeshTargets/st.BasicTargets != 8 {
		t.Fatalf("rail pruning factor = %d, want 8", st.FullMeshTargets/st.BasicTargets)
	}
}

func TestIncrementalActivation(t *testing.T) {
	eng, _, task, ctl := makeTask(t)
	// No agent registered: nothing probes.
	if got := ctl.PingListInto(task.ID, 0, nil); got != nil {
		t.Fatalf("unregistered source got %d targets", len(got))
	}
	// Run until all containers are Running (registered via events).
	eng.RunUntil(10 * time.Minute)
	for i := 0; i < 4; i++ {
		if !ctl.Registered(task.ID, i) {
			t.Fatalf("container %d not registered", i)
		}
	}
	list := ctl.PingListInto(task.ID, 0, nil)
	if len(list) != 24 { // 3 destinations × 8 rails
		t.Fatalf("active targets for c0 = %d, want 24", len(list))
	}
	// Deregistration shrinks the list.
	ctl.Deregister(task.ID, 1)
	list = ctl.PingListInto(task.ID, 0, nil)
	if len(list) != 16 {
		t.Fatalf("targets after deregister = %d, want 16", len(list))
	}
	// A deregistered source probes nothing.
	if got := ctl.PingListInto(task.ID, 1, nil); got != nil {
		t.Fatalf("deregistered source got %d targets", len(got))
	}
}

func TestPartialRegistrationAvoidsStartupFalseProbes(t *testing.T) {
	_, _, task, ctl := makeTask(t)
	// Only containers 0 and 2 registered: 0 must target only 2.
	ctl.Register(task.ID, 0)
	ctl.Register(task.ID, 2)
	list := ctl.PingListInto(task.ID, 0, nil)
	if len(list) != 8 {
		t.Fatalf("targets = %d, want 8 (one registered peer)", len(list))
	}
	for _, tg := range list {
		if tg.DstContainer != 2 {
			t.Fatalf("probing unregistered container: %+v", tg)
		}
	}
}

func TestApplySkeletonSwitchesPhase(t *testing.T) {
	eng, _, task, ctl := makeTask(t)
	eng.RunUntil(10 * time.Minute)

	// A hand-made skeleton: ring over containers on rail 0 only.
	inf := skeleton.Inference{
		Pairs: []skeleton.Pair{
			{A: 0*8 + 0, B: 1*8 + 0},
			{A: 1*8 + 0, B: 2*8 + 0},
			{A: 2*8 + 0, B: 3*8 + 0},
			{A: 3*8 + 0, B: 0*8 + 0},
		},
	}
	if err := ctl.ApplySkeleton(task.ID, inf); err != nil {
		t.Fatal(err)
	}
	st, _ := ctl.StatsOf(task.ID)
	if st.Phase != PhaseSkeleton {
		t.Fatalf("phase = %v", st.Phase)
	}
	if st.CurrentTargets != 8 { // 4 pairs × 2 directions
		t.Fatalf("skeleton targets = %d, want 8", st.CurrentTargets)
	}
	list := ctl.PingListInto(task.ID, 0, nil)
	if len(list) != 2 { // to containers 1 and 3, rail 0
		t.Fatalf("c0 skeleton targets = %d, want 2", len(list))
	}
	if err := ctl.ApplySkeleton("task-nope", inf); err == nil {
		t.Fatal("unknown task accepted")
	}
}

func TestTaskCleanupAfterFinish(t *testing.T) {
	eng, cp, task, ctl := makeTask(t)
	eng.RunUntil(10 * time.Minute)
	cp.FinishTask(task.ID)
	eng.RunUntil(20 * time.Minute)
	if _, ok := ctl.StatsOf(task.ID); ok {
		t.Fatal("finished task still tracked")
	}
}

func TestEndpointOrder(t *testing.T) {
	_, _, task, _ := makeTask(t)
	order := EndpointOrder(task)
	for i, c := range order {
		if c.Index != i {
			t.Fatalf("order[%d].Index = %d", i, c.Index)
		}
	}
}

func TestAddTaskIdempotent(t *testing.T) {
	_, _, task, ctl := makeTask(t)
	ctl.Register(task.ID, 0)
	ctl.AddTask(task) // must not reset registration
	if !ctl.Registered(task.ID, 0) {
		t.Fatal("re-adding task reset registration")
	}
}
