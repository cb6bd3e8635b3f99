package hunter

import (
	"math/rand"
	"testing"
	"time"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/component"
	"skeletonhunter/internal/controller"
	"skeletonhunter/internal/faults"
	"skeletonhunter/internal/metrics"
	"skeletonhunter/internal/parallelism"
	"skeletonhunter/internal/topology"
)

// fastLag makes container lifecycles quick and deterministic so tests
// reach steady state fast.
func fastLag() cluster.LagModel {
	return cluster.LagModel{
		CreateLag:    func(r *rand.Rand, i int) time.Duration { return time.Duration(i) * time.Second },
		StartupDelay: func(r *rand.Rand) time.Duration { return 5 * time.Second },
		StopLag:      func(r *rand.Rand) time.Duration { return time.Second },
	}
}

func newDeployment(t *testing.T) *Deployment {
	t.Helper()
	d, err := New(Options{
		Seed: 11,
		Spec: topology.Spec{Pods: 1, HostsPerPod: 8, Rails: 8, AggPerPod: 2},
		Lag:  fastLag(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func steadyTask(t *testing.T, d *Deployment) *cluster.Task {
	t.Helper()
	task, err := d.SubmitTask(cluster.TaskSpec{Par: parallelism.Config{TP: 8, PP: 2, DP: 2}})
	if err != nil {
		t.Fatal(err)
	}
	d.Run(time.Minute) // all containers running, agents probing
	if got := len(task.RunningContainers()); got != 4 {
		t.Fatalf("running containers = %d", got)
	}
	if d.Agents() != 4 {
		t.Fatalf("agents = %d", d.Agents())
	}
	return task
}

func TestHealthySteadyStateRaisesNoAlarms(t *testing.T) {
	d := newDeployment(t)
	steadyTask(t, d)
	d.Run(10 * time.Minute)
	if got := len(d.Analyzer.Alarms()); got != 0 {
		t.Fatalf("healthy deployment raised %d alarms: %+v", got, d.Analyzer.Alarms()[0])
	}
}

func TestEndToEndSwitchPortDown(t *testing.T) {
	d := newDeployment(t)
	task := steadyTask(t, d)
	d.Run(5 * time.Minute) // build detector history

	a := task.Containers[0].Addrs[3]
	nic := topology.NIC{Host: a.Host, Rail: 3}
	link := topology.MakeLinkID(nic.ID(), d.Fabric.ToR(0, 3))
	in, err := d.Injector.Inject(faults.SwitchPortDown, faults.Target{Link: link})
	if err != nil {
		t.Fatal(err)
	}
	d.Run(3 * time.Minute)
	d.Injector.Clear(in)

	rep := metrics.Score(d.Injector.Injections(), d.Analyzer.Alarms(), time.Minute)
	if rep.DetectedInjections != 1 {
		t.Fatalf("fault not detected: %+v", rep)
	}
	if rep.LocalizedInjections != 1 {
		t.Fatalf("fault not localized: alarms %+v", d.Analyzer.Alarms())
	}
	// Detection latency: within ~2 analysis rounds of onset.
	if rep.MeanDetectionLatency > 90*time.Second {
		t.Fatalf("detection latency = %v", rep.MeanDetectionLatency)
	}
	// The faulty component landed on the blacklist.
	found := false
	for _, c := range in.Components {
		if _, ok := d.Analyzer.Blacklisted(c); ok {
			found = true
		}
	}
	if !found {
		t.Fatalf("component not blacklisted; blacklist = %v", d.Analyzer.Blacklist())
	}
}

func TestEndToEndFig18CaseStudy(t *testing.T) {
	// The production case study: offloaded flow entries invalidated on
	// one RNIC; latency 16 µs → ~120 µs with a trickle of loss; the
	// system detects the latency anomaly, tomography is exonerated by
	// healthy reverse traffic, the flow-table dump pins the RNIC; after
	// isolation (clearing), metrics return to normal.
	d := newDeployment(t)
	task := steadyTask(t, d)
	d.Run(5 * time.Minute)

	a := task.Containers[0].Addrs[6]
	in, err := d.Injector.Inject(faults.OffloadingFailure, faults.Target{Host: a.Host, Rail: 6, VNI: a.VNI})
	if err != nil {
		t.Fatal(err)
	}
	d.Run(2 * time.Minute)

	rep := metrics.Score(d.Injector.Injections(), d.Analyzer.Alarms(), time.Minute)
	if rep.DetectedInjections != 1 || rep.LocalizedInjections != 1 {
		t.Fatalf("Fig.18 case: detected=%d localized=%d; alarms=%+v",
			rep.DetectedInjections, rep.LocalizedInjections, d.Analyzer.Alarms())
	}

	// Recovery: clear (isolate + reset) and verify alarms stop.
	d.Injector.Clear(in)
	before := len(d.Analyzer.Alarms())
	d.Run(90 * time.Second) // anomalous history drains
	d.Run(5 * time.Minute)
	after := d.Analyzer.Alarms()[before:]
	late := 0
	for _, al := range after {
		if al.At > d.Engine.Now()-4*time.Minute {
			late++
		}
	}
	if late > 0 {
		t.Fatalf("alarms continued %d rounds after recovery", late)
	}
}

func TestEndToEndContainerCrash(t *testing.T) {
	d := newDeployment(t)
	task := steadyTask(t, d)
	d.Run(5 * time.Minute)
	victim := task.Containers[2]
	in, err := d.Injector.Inject(faults.ContainerCrash, faults.Target{Container: victim.ID})
	if err != nil {
		t.Fatal(err)
	}
	d.Run(2 * time.Minute)
	rep := metrics.Score(d.Injector.Injections(), d.Analyzer.Alarms(), time.Minute)
	if rep.DetectedInjections != 1 {
		t.Fatalf("crash not detected")
	}
	if rep.LocalizedInjections != 1 {
		t.Fatalf("crash not localized to %v; alarms %+v", in.Components, d.Analyzer.Alarms())
	}
	// Verdict names the exact container via control-plane resolution.
	found := false
	for _, al := range d.Analyzer.Alarms() {
		for _, c := range al.Components() {
			if c == component.Container(string(victim.ID)) {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no verdict names the crashed container by ID")
	}
}

func TestSkeletonLifecyclePrunesProbing(t *testing.T) {
	d := newDeployment(t)
	task := steadyTask(t, d)
	stBefore, _ := d.Controller.StatsOf(task.ID)
	inf, err := d.InferSkeleton(task, 900*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if inf.DP != 2 || inf.TPxPP != 16 {
		t.Fatalf("inference DP=%d TPxPP=%d, want 2/16", inf.DP, inf.TPxPP)
	}
	stAfter, _ := d.Controller.StatsOf(task.ID)
	if stAfter.CurrentTargets >= stBefore.CurrentTargets {
		t.Fatalf("skeleton did not prune: %d → %d", stBefore.CurrentTargets, stAfter.CurrentTargets)
	}
	// Probing still works and detects faults on skeleton paths.
	d.Run(5 * time.Minute)
	a := task.Containers[0].Addrs[0]
	if _, err := d.Injector.Inject(faults.RNICPortDown, faults.Target{Host: a.Host, Rail: 0}); err != nil {
		t.Fatal(err)
	}
	d.Run(2 * time.Minute)
	rep := metrics.Score(d.Injector.Injections(), d.Analyzer.Alarms(), time.Minute)
	if rep.DetectedInjections != 1 {
		t.Fatal("fault on skeleton path not detected after pruning")
	}
}

func TestSkeletonRevalidation(t *testing.T) {
	d := newDeployment(t)
	task := steadyTask(t, d)
	if _, err := d.InferSkeleton(task, 900*time.Second); err != nil {
		t.Fatal(err)
	}
	// Stable workload: fidelity high, no revert.
	score, reverted := d.RevalidateSkeleton(task, 900*time.Second)
	if reverted || score < FidelityThreshold {
		t.Fatalf("stable workload reverted (score %v)", score)
	}
	if st, _ := d.Controller.StatsOf(task.ID); st.Phase != controller.PhaseSkeleton {
		t.Fatal("phase regressed despite high fidelity")
	}
	// The tenant switches parallelism strategy (same GPU count): the
	// installed skeleton goes stale and revalidation must fall back.
	d.OverrideWorkload(task.ID, parallelism.Config{TP: 8, PP: 4, DP: 1})
	score, reverted = d.RevalidateSkeleton(task, 900*time.Second)
	if !reverted {
		t.Fatalf("stale skeleton not reverted (score %v)", score)
	}
	if st, _ := d.Controller.StatsOf(task.ID); st.Phase != controller.PhasePreload {
		t.Fatal("task not back on the basic list")
	}
	// Revalidating again without an inference is a no-op.
	if _, reverted := d.RevalidateSkeleton(task, 900*time.Second); reverted {
		t.Fatal("revert reported without an installed skeleton")
	}
}

func TestStartupChurnNoFalseAlarms(t *testing.T) {
	// Challenge 1: containers start minutes apart; incremental
	// activation must keep the startup phase alarm-free.
	d, err := New(Options{
		Seed: 13,
		Spec: topology.Spec{Pods: 1, HostsPerPod: 8, Rails: 8, AggPerPod: 2},
		Lag: cluster.LagModel{
			CreateLag:    func(r *rand.Rand, i int) time.Duration { return time.Duration(i) * 45 * time.Second },
			StartupDelay: func(r *rand.Rand) time.Duration { return 30 * time.Second },
			StopLag:      func(r *rand.Rand) time.Duration { return time.Second },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.SubmitTask(cluster.TaskSpec{Par: parallelism.Config{TP: 8, PP: 2, DP: 2}}); err != nil {
		t.Fatal(err)
	}
	d.Run(10 * time.Minute) // staggered startups complete inside this
	if got := len(d.Analyzer.Alarms()); got != 0 {
		t.Fatalf("startup churn raised %d alarms", got)
	}
}

func TestMultiTenantIsolationOfAlarms(t *testing.T) {
	// Two tenants share the fabric; a fault afflicting only tenant 1's
	// host must not implicate tenant 2's pairs or components.
	d, err := New(Options{
		Seed: 23,
		Spec: topology.Spec{Pods: 1, HostsPerPod: 8, Rails: 8, AggPerPod: 2},
		Lag:  fastLag(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t1, err := d.SubmitTask(cluster.TaskSpec{Par: parallelism.Config{TP: 8, PP: 2, DP: 2}})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := d.SubmitTask(cluster.TaskSpec{Par: parallelism.Config{TP: 8, PP: 2, DP: 2}})
	if err != nil {
		t.Fatal(err)
	}
	d.Run(6 * time.Minute)
	if t1.VNI == t2.VNI {
		t.Fatal("tenants share a VNI")
	}

	// Host-board fault on one of tenant 1's hosts.
	badHost := t1.Containers[0].Host
	in, err := d.Injector.Inject(faults.PCIeNICError, faults.Target{Host: badHost})
	if err != nil {
		t.Fatal(err)
	}
	d.Run(2 * time.Minute)
	d.Injector.Clear(in)

	alarms := d.Analyzer.Alarms()
	if len(alarms) == 0 {
		t.Fatal("fault not detected")
	}
	for _, al := range alarms {
		for _, an := range al.Anomalies {
			if an.Key.Task != string(t1.ID) {
				t.Fatalf("tenant-2 pair implicated: %+v", an.Key)
			}
		}
	}
	// Tenant 2's probes stayed healthy throughout.
	a := t2.Containers[0].Addrs[0]
	b := t2.Containers[1].Addrs[0]
	if res := d.Net.Probe(a, b, 1); res.Lost || res.RTT > 40*time.Microsecond {
		t.Fatalf("tenant-2 path unhealthy: %v/%v", res.Lost, res.RTT)
	}
}

func TestTaskTeardownCleansUp(t *testing.T) {
	d := newDeployment(t)
	task := steadyTask(t, d)
	d.Run(2 * time.Minute)
	d.CP.FinishTask(task.ID)
	d.Run(2 * time.Minute)
	if d.Agents() != 0 {
		t.Fatalf("agents alive after teardown: %d", d.Agents())
	}
	// No alarms from teardown itself (agents deregister before probing
	// a dying peer for a full window).
	if got := len(d.Analyzer.Alarms()); got != 0 {
		t.Fatalf("teardown raised %d alarms", got)
	}
}

func TestLogServiceIndexesProbeStream(t *testing.T) {
	d := newDeployment(t)
	task := steadyTask(t, d)
	d.Run(2 * time.Minute)
	// Task-indexed records flowed in.
	byTask := d.Log.ByTask(string(task.ID), 0)
	if len(byTask) == 0 {
		t.Fatal("log service retained nothing")
	}
	// Per-RNIC evidence trail for an operator inspecting rail 0 of the
	// first container's host.
	c0 := task.Containers[0]
	byRNIC := d.Log.ByRNIC(c0.Host, 0, 0)
	if len(byRNIC) == 0 {
		t.Fatal("no RNIC-indexed records")
	}
	for _, r := range byRNIC {
		if r.Src.Host != c0.Host && r.Dst.Host != c0.Host {
			t.Fatalf("RNIC index returned unrelated record: %+v", r)
		}
	}
	// Switch-indexed: the rail-0 ToR saw same-rail probes.
	bySwitch := d.Log.BySwitch(d.Fabric.ToR(0, 0), 0)
	if len(bySwitch) == 0 {
		t.Fatal("no switch-indexed records")
	}
}

func TestBlacklistKeepsNewTasksOffBadHosts(t *testing.T) {
	d := newDeployment(t)
	task := steadyTask(t, d)
	d.Run(5 * time.Minute)
	badHost := task.Containers[0].Host
	in, err := d.Injector.Inject(faults.PCIeNICError, faults.Target{Host: badHost})
	if err != nil {
		t.Fatal(err)
	}
	d.Run(2 * time.Minute)
	d.Injector.Clear(in)
	blocked := d.BlockedHosts()
	found := false
	for _, h := range blocked {
		if h == badHost {
			found = true
		}
	}
	if !found {
		t.Fatalf("host %d not blocked; blocked = %v", badHost, blocked)
	}
	// Finish the first task and submit a new one: it must avoid the
	// blocked host even though that host is free again.
	d.CP.FinishTask(task.ID)
	d.Run(2 * time.Minute)
	t2, err := d.SubmitTask(cluster.TaskSpec{Par: parallelism.Config{TP: 8, PP: 2, DP: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range t2.Containers {
		if c.Host == badHost {
			t.Fatalf("new task scheduled on blacklisted host %d", badHost)
		}
	}
}

func TestChurnStressNoFalseAlarmsNoLeaks(t *testing.T) {
	// Challenge 1 at small scale: a stream of short-lived tasks churns
	// containers continuously (creations, registrations, teardowns)
	// with a healthy network. The monitoring system must stay silent
	// and must not leak per-task state.
	if testing.Short() {
		t.Skip("soak scenario; run without -short")
	}
	d, err := New(Options{
		Seed: 31,
		Spec: topology.Spec{Pods: 1, HostsPerPod: 8, Rails: 8, AggPerPod: 2},
		Lag:  fastLag(),
	})
	if err != nil {
		t.Fatal(err)
	}
	launched := 0
	for wave := 0; wave < 10; wave++ {
		// Two short tasks per wave, partially overlapping lifetimes.
		for i := 0; i < 2; i++ {
			if _, err := d.SubmitTask(cluster.TaskSpec{
				Par:      parallelism.Config{TP: 8, PP: 2, DP: 1},
				Lifetime: 90 * time.Second,
			}); err != nil {
				t.Fatalf("wave %d: %v", wave, err)
			}
			launched++
		}
		d.Run(2 * time.Minute)
	}
	d.Run(3 * time.Minute) // full drain
	if launched != 20 {
		t.Fatalf("launched %d tasks", launched)
	}
	if got := len(d.Analyzer.Alarms()); got != 0 {
		t.Fatalf("churn produced %d false alarms: %+v", got, d.Analyzer.Alarms()[0])
	}
	if d.Agents() != 0 {
		t.Fatalf("%d agents leaked", d.Agents())
	}
	if free := d.CP.FreeHosts(); free != 8 {
		t.Fatalf("hosts leaked: %d free of 8", free)
	}
}

func TestProductionScaleMultiPodSmoke(t *testing.T) {
	// A larger fabric with multiple pods (cross-pod ECMP in play),
	// three concurrent tenants, and faults at different layers —
	// the closest thing to a cluster soak test that fits in CI.
	if testing.Short() {
		t.Skip("soak scenario; run without -short")
	}
	d, err := New(Options{
		Seed: 29,
		Spec: topology.Spec{Pods: 2, HostsPerPod: 8, Rails: 8, AggPerPod: 2, Spines: 4},
		Lag:  fastLag(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var tasks []*cluster.Task
	for i := 0; i < 3; i++ {
		task, err := d.SubmitTask(cluster.TaskSpec{Par: parallelism.Config{TP: 8, PP: 2, DP: 2}})
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	d.Run(6 * time.Minute)
	if d.Agents() != 12 {
		t.Fatalf("agents = %d, want 12", d.Agents())
	}
	// Task 3 spans both pods (hosts 8..11 are pod 1).
	crossPod := false
	for _, c := range tasks[2].Containers {
		if d.Fabric.PodOf(c.Host) == 1 {
			crossPod = true
		}
	}
	if !crossPod {
		t.Fatal("third task did not spill into pod 1; scale the spec")
	}

	// Three faults at different layers, overlapping in time.
	a0 := tasks[0].Containers[0].Addrs[1]
	nic := topology.NIC{Host: a0.Host, Rail: 1}
	link := topology.MakeLinkID(nic.ID(), d.Fabric.ToR(d.Fabric.PodOf(a0.Host), 1))
	in1, err := d.Injector.Inject(faults.SwitchPortDown, faults.Target{Link: link})
	if err != nil {
		t.Fatal(err)
	}
	in2, err := d.Injector.Inject(faults.PCIeNICError, faults.Target{Host: tasks[1].Containers[1].Host})
	if err != nil {
		t.Fatal(err)
	}
	a2 := tasks[2].Containers[0].Addrs[3]
	in3, err := d.Injector.Inject(faults.OffloadingFailure, faults.Target{Host: a2.Host, Rail: 3, VNI: a2.VNI})
	if err != nil {
		t.Fatal(err)
	}
	d.Run(3 * time.Minute)
	for _, in := range []*faults.Injection{in1, in2, in3} {
		d.Injector.Clear(in)
	}
	rep := metrics.Score(d.Injector.Injections(), d.Analyzer.Alarms(), time.Minute)
	if rep.DetectedInjections != 3 {
		t.Fatalf("detected %d/3 concurrent faults", rep.DetectedInjections)
	}
	if rep.LocalizedInjections < 3 {
		t.Fatalf("localized %d/3; alarms: %+v", rep.LocalizedInjections, d.Analyzer.Alarms())
	}
}

func TestMetricsFalsePositiveAccounting(t *testing.T) {
	// An alarm with no active injection counts against precision.
	d := newDeployment(t)
	task := steadyTask(t, d)
	d.Run(5 * time.Minute)
	a := task.Containers[0].Addrs[0]
	in, _ := d.Injector.Inject(faults.RNICPortDown, faults.Target{Host: a.Host, Rail: 0})
	d.Run(2 * time.Minute)
	d.Injector.Clear(in)
	rep := metrics.Score(d.Injector.Injections(), d.Analyzer.Alarms(), time.Minute)
	if rep.Precision() < 0.99 {
		t.Fatalf("precision = %v with one real fault", rep.Precision())
	}
	if rep.Recall() != 1 {
		t.Fatalf("recall = %v", rep.Recall())
	}
	if rep.LocalizationAccuracy() != 1 {
		t.Fatalf("localization accuracy = %v", rep.LocalizationAccuracy())
	}
}
