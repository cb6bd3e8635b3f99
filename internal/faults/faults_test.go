package faults

import (
	"reflect"
	"testing"
	"time"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/component"
	"skeletonhunter/internal/netsim"
	"skeletonhunter/internal/overlay"
	"skeletonhunter/internal/parallelism"
	"skeletonhunter/internal/sim"
	"skeletonhunter/internal/topology"
)

// rig is a full little world: fabric, overlay, control plane with one
// running 4-container task, and a netsim.
type rig struct {
	eng  *sim.Engine
	net  *netsim.Net
	cp   *cluster.ControlPlane
	task *cluster.Task
	inj  *Injector
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.NewEngine(1)
	fab, err := topology.New(topology.Spec{Pods: 1, HostsPerPod: 8, Rails: 8, AggPerPod: 2})
	if err != nil {
		t.Fatal(err)
	}
	ovl := overlay.NewNetwork()
	cp := cluster.NewControlPlane(eng, fab, ovl, cluster.DefaultLagModel())
	task, err := cp.Submit(cluster.TaskSpec{Par: parallelism.Config{TP: 8, PP: 2, DP: 2}})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(10 * time.Minute) // everything running
	if len(task.RunningContainers()) != 4 {
		t.Fatalf("running containers = %d", len(task.RunningContainers()))
	}
	net := netsim.New(eng, fab, ovl)
	return &rig{eng: eng, net: net, cp: cp, task: task, inj: NewInjector(net, cp)}
}

// probePair returns the endpoints of containers 0 and 1 on rail 0.
func (r *rig) pair() (overlay.Addr, overlay.Addr) {
	return r.task.Containers[0].Addrs[0], r.task.Containers[1].Addrs[0]
}

// probeStats runs n probes and reports losses and max RTT.
func (r *rig) probeStats(n int) (lost int, maxRTT time.Duration) {
	a, b := r.pair()
	for i := 0; i < n; i++ {
		res := r.net.Probe(a, b, uint64(i))
		if res.Lost {
			lost++
		} else if res.RTT > maxRTT {
			maxRTT = res.RTT
		}
	}
	return lost, maxRTT
}

func TestCatalogComplete(t *testing.T) {
	cat := Catalog()
	if len(cat) != 19 {
		t.Fatalf("catalog has %d issues, want 19", len(cat))
	}
	seen := map[IssueType]bool{}
	for i, in := range cat {
		if int(in.Type) != i+1 {
			t.Fatalf("issue %d numbered %d", i+1, in.Type)
		}
		if seen[in.Type] {
			t.Fatalf("duplicate issue type %d", in.Type)
		}
		seen[in.Type] = true
		if in.Name == "" || in.Reason == "" {
			t.Fatalf("issue %d missing metadata", in.Type)
		}
	}
	// Class census matches Table 1's six classes.
	classes := map[component.Class]int{}
	for _, in := range cat {
		classes[in.Class]++
	}
	if len(classes) != 6 {
		t.Fatalf("catalog spans %d classes, want 6", len(classes))
	}
	if _, ok := InfoOf(IssueType(99)); ok {
		t.Fatal("InfoOf accepted unknown type")
	}
}

func TestInjectLinkLoss(t *testing.T) {
	r := newRig(t)
	a, _ := r.pair()
	nic := topology.NIC{Host: a.Host, Rail: a.Rail}
	link := topology.MakeLinkID(nic.ID(), r.net.Fabric.ToR(0, a.Rail))

	if _, err := r.inj.InjectLinkLoss("", 0.5); err == nil {
		t.Fatal("empty link accepted")
	}
	for _, rate := range []float64{-0.1, 1.1} {
		if _, err := r.inj.InjectLinkLoss(link, rate); err == nil {
			t.Fatalf("loss rate %v accepted", rate)
		}
	}
	if n := len(r.inj.Injections()); n != 0 {
		t.Fatalf("rejected injections recorded: %d", n)
	}

	in, err := r.inj.InjectLinkLoss(link, 1)
	if err != nil {
		t.Fatal(err)
	}
	if in.Type != ScenarioLinkLoss || in.Info.Symptom != SymptomPacketLoss {
		t.Fatalf("injection = %v/%v, want scenario link loss", in.Type, in.Info.Symptom)
	}
	if len(in.Components) != 1 || in.Components[0] != component.Link(link) {
		t.Fatalf("ground truth = %v", in.Components)
	}
	if lost, _ := r.probeStats(20); lost != 20 {
		t.Fatalf("full loss dropped %d/20", lost)
	}
	r.inj.Clear(in)
	if lost, _ := r.probeStats(20); lost != 0 {
		t.Fatalf("after clear lost %d/20", lost)
	}

	// A partial rate loses some probes, not all.
	in, err = r.inj.InjectLinkLoss(link, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if lost, _ := r.probeStats(200); lost == 0 || lost == 200 {
		t.Fatalf("50%% loss dropped %d/200", lost)
	}
	if in.ID != 2 {
		t.Fatalf("second injection ID = %d, want 2", in.ID)
	}
}

func TestLinkFaults(t *testing.T) {
	r := newRig(t)
	a, _ := r.pair()
	nic := topology.NIC{Host: a.Host, Rail: a.Rail}
	link := topology.MakeLinkID(nic.ID(), r.net.Fabric.ToR(0, a.Rail))

	// Healthy baseline.
	lost, _ := r.probeStats(50)
	if lost != 0 {
		t.Fatalf("baseline lost %d probes", lost)
	}

	in, err := r.inj.Inject(SwitchPortDown, Target{Link: link})
	if err != nil {
		t.Fatal(err)
	}
	lost, _ = r.probeStats(20)
	if lost != 20 {
		t.Fatalf("port-down lost %d/20", lost)
	}
	if in.Components[0] != component.Link(link) {
		t.Fatalf("ground truth = %v", in.Components)
	}
	r.inj.Clear(in)
	lost, _ = r.probeStats(20)
	if lost != 0 {
		t.Fatalf("after clear lost %d/20", lost)
	}

	// CRC error: partial loss.
	in, err = r.inj.Inject(CRCError, Target{Link: link})
	if err != nil {
		t.Fatal(err)
	}
	lost, _ = r.probeStats(500)
	if lost == 0 || lost == 500 {
		t.Fatalf("CRC error lost %d/500, want partial", lost)
	}
	r.inj.Clear(in)
}

func TestSwitchOffline(t *testing.T) {
	r := newRig(t)
	a, _ := r.pair()
	in, err := r.inj.Inject(SwitchOffline, Target{Switch: r.net.Fabric.ToR(0, a.Rail)})
	if err != nil {
		t.Fatal(err)
	}
	lost, _ := r.probeStats(10)
	if lost != 10 {
		t.Fatalf("switch offline lost %d/10", lost)
	}
	r.inj.Clear(in)
}

func TestRNICFaults(t *testing.T) {
	r := newRig(t)
	a, _ := r.pair()

	in, _ := r.inj.Inject(RNICHardwareFailure, Target{Host: a.Host, Rail: a.Rail})
	lost, _ := r.probeStats(10)
	if lost != 10 {
		t.Fatalf("RNIC hw failure lost %d/10", lost)
	}
	r.inj.Clear(in)

	in, _ = r.inj.Inject(RNICFirmwareNotResponding, Target{Host: a.Host, Rail: a.Rail})
	lost, maxRTT := r.probeStats(20)
	if lost != 0 || maxRTT < 100*time.Microsecond {
		t.Fatalf("firmware issue: lost=%d maxRTT=%v, want high latency", lost, maxRTT)
	}
	r.inj.Clear(in)
}

func TestOffloadingFailureSlowPath(t *testing.T) {
	r := newRig(t)
	a, _ := r.pair()
	in, err := r.inj.Inject(OffloadingFailure, Target{Host: a.Host, Rail: a.Rail, VNI: a.VNI})
	if err != nil {
		t.Fatal(err)
	}
	_, maxRTT := r.probeStats(20)
	if maxRTT < 100*time.Microsecond {
		t.Fatalf("offloading failure maxRTT = %v, want ≈120µs", maxRTT)
	}
	// Dump shows the inconsistency on the right rail.
	d := r.net.Overlay.DumpOffload(a.Host, a.Rail)
	if len(d.Inconsistent) == 0 {
		t.Fatal("offload dump shows no inconsistency")
	}
	r.inj.Clear(in)
	_, maxRTT = r.probeStats(20)
	if maxRTT > 40*time.Microsecond {
		t.Fatalf("slow path persists after clear: %v", maxRTT)
	}
}

func TestNotUsingRDMA(t *testing.T) {
	r := newRig(t)
	a, _ := r.pair()
	in, err := r.inj.Inject(NotUsingRDMA, Target{Host: a.Host})
	if err != nil {
		t.Fatal(err)
	}
	_, maxRTT := r.probeStats(20)
	if maxRTT < 100*time.Microsecond {
		t.Fatalf("not-using-RDMA maxRTT = %v", maxRTT)
	}
	d := r.net.Overlay.DumpOffload(a.Host, a.Rail)
	if len(d.NotOffloaded) == 0 {
		t.Fatal("dump shows no de-offloaded entries")
	}
	if in.Info.Class != component.ClassVirtualSwitch {
		t.Fatalf("class = %v", in.Info.Class)
	}
	r.inj.Clear(in)
	_, maxRTT = r.probeStats(20)
	if maxRTT > 40*time.Microsecond {
		t.Fatalf("slow path persists after clear: %v", maxRTT)
	}
}

func TestHostBoardFaults(t *testing.T) {
	r := newRig(t)
	a, _ := r.pair()

	in, _ := r.inj.Inject(PCIeNICError, Target{Host: a.Host})
	_, maxRTT := r.probeStats(20)
	if maxRTT < 80*time.Microsecond {
		t.Fatalf("PCIe-NIC error maxRTT = %v", maxRTT)
	}
	r.inj.Clear(in)

	in, _ = r.inj.Inject(GIDChange, Target{Host: a.Host})
	lost, _ := r.probeStats(10)
	if lost != 10 {
		t.Fatalf("GID change lost %d/10", lost)
	}
	r.inj.Clear(in)
}

func TestContainerCrash(t *testing.T) {
	r := newRig(t)
	victim := r.task.Containers[1]
	in, err := r.inj.Inject(ContainerCrash, Target{Container: victim.ID})
	if err != nil {
		t.Fatal(err)
	}
	lost, _ := r.probeStats(10)
	if lost != 10 {
		t.Fatalf("crash: lost %d/10 probes to dead container", lost)
	}
	if in.Components[0] != component.Container(string(victim.ID)) {
		t.Fatalf("ground truth = %v", in.Components)
	}
	// Second crash of the same container fails.
	if _, err := r.inj.Inject(ContainerCrash, Target{Container: victim.ID}); err == nil {
		t.Fatal("double crash accepted")
	}
}

func TestFlappingFaultIsIntermittent(t *testing.T) {
	r := newRig(t)
	a, _ := r.pair()
	_, err := r.inj.Inject(RNICPortFlapping, Target{Host: a.Host, Rail: a.Rail})
	if err != nil {
		t.Fatal(err)
	}
	// Sample across the flap period: some windows lose, some don't.
	b := r.task.Containers[1].Addrs[0]
	lostTimes, okTimes := 0, 0
	for i := 0; i < 16; i++ {
		r.eng.RunUntil(r.eng.Now() + time.Second)
		if r.net.Probe(a, b, uint64(i)).Lost {
			lostTimes++
		} else {
			okTimes++
		}
	}
	if lostTimes == 0 || okTimes == 0 {
		t.Fatalf("flapping not intermittent: lost=%d ok=%d", lostTimes, okTimes)
	}
}

func TestCongestionControlIssue(t *testing.T) {
	r := newRig(t)
	a, _ := r.pair()
	in, err := r.inj.Inject(CongestionControlIssue, Target{Switch: r.net.Fabric.ToR(0, a.Rail)})
	if err != nil {
		t.Fatal(err)
	}
	_, maxRTT := r.probeStats(20)
	if maxRTT < 80*time.Microsecond {
		t.Fatalf("congestion control issue maxRTT = %v", maxRTT)
	}
	if in.Components[0] != component.SwitchConfig(r.net.Fabric.ToR(0, a.Rail)) {
		t.Fatalf("ground truth = %v", in.Components)
	}
	r.inj.Clear(in)
}

func TestTargetValidation(t *testing.T) {
	r := newRig(t)
	if _, err := r.inj.Inject(CRCError, Target{}); err == nil {
		t.Fatal("CRC without link accepted")
	}
	if _, err := r.inj.Inject(SwitchOffline, Target{}); err == nil {
		t.Fatal("switch offline without switch accepted")
	}
	if _, err := r.inj.Inject(ContainerCrash, Target{}); err == nil {
		t.Fatal("crash without container accepted")
	}
	if _, err := r.inj.Inject(IssueType(42), Target{}); err == nil {
		t.Fatal("unknown type accepted")
	}
	// Offload fault against a host with no entries.
	if _, err := r.inj.Inject(OffloadingFailure, Target{Host: 7, Rail: 0}); err == nil {
		t.Fatal("offload fault on empty host accepted")
	}
}

func TestSuboptimalFlowOffloading(t *testing.T) {
	r := newRig(t)
	a, _ := r.pair()
	in, err := r.inj.Inject(SuboptimalFlowOffloading, Target{Host: a.Host})
	if err != nil {
		t.Fatal(err)
	}
	// Every other entry is stale: some flows slow, some fine.
	slow, fast := 0, 0
	for _, c := range r.task.Containers[1:] {
		for rail := 0; rail < 8; rail++ {
			res := r.net.Probe(r.task.Containers[0].Addrs[rail], c.Addrs[rail], 1)
			if res.Lost {
				continue
			}
			if res.RTT > 80*time.Microsecond {
				slow++
			} else {
				fast++
			}
		}
	}
	if slow == 0 || fast == 0 {
		t.Fatalf("suboptimal offloading not partial: slow=%d fast=%d", slow, fast)
	}
	if in.Info.Class != component.ClassVirtualSwitch {
		t.Fatalf("class = %v", in.Info.Class)
	}
	r.inj.Clear(in)
}

func TestSymptomStrings(t *testing.T) {
	if SymptomPacketLoss.String() != "packet-loss" ||
		SymptomUnconnectivity.String() != "unconnectivity" ||
		SymptomHighLatency.String() != "high-latency" {
		t.Fatal("symptom strings wrong")
	}
	if Symptom(99).String() == "" {
		t.Fatal("unknown symptom renders empty")
	}
}

// active returns the injections not yet cleared.
func active(inj *Injector) []*Injection {
	var out []*Injection
	for _, in := range inj.Injections() {
		if !in.Cleared {
			out = append(out, in)
		}
	}
	return out
}

// clearAll clears every injection, as an operator ending a drill would.
func clearAll(inj *Injector) {
	for _, in := range inj.Injections() {
		inj.Clear(in)
	}
}

func TestClearAllAndBookkeeping(t *testing.T) {
	r := newRig(t)
	a, _ := r.pair()
	r.inj.Inject(PCIeNICError, Target{Host: a.Host})
	r.inj.Inject(GPUDirectRDMAError, Target{Host: r.task.Containers[1].Host})
	if got := len(active(r.inj)); got != 2 {
		t.Fatalf("active = %d, want 2", got)
	}
	clearAll(r.inj)
	if got := len(active(r.inj)); got != 0 {
		t.Fatalf("active after ClearAll = %d", got)
	}
	if got := len(r.inj.Injections()); got != 2 {
		t.Fatalf("history = %d, want 2", got)
	}
	// Double-clear is safe.
	for _, in := range r.inj.Injections() {
		r.inj.Clear(in)
	}
}

// flowTableImage copies every entry of a host's vswitch by value, so
// later mutations can be compared against it.
func flowTableImage(r *rig, host int) map[overlay.FlowKey]overlay.FlowEntry {
	vsw := r.net.Overlay.VSwitch(host)
	img := make(map[overlay.FlowKey]overlay.FlowEntry, vsw.Len())
	for _, k := range vsw.Keys() {
		e, _ := vsw.Lookup(k)
		img[k] = *e
	}
	return img
}

// TestClearRestoresFlowTable pins the undo path of every overlay-
// mutating issue: Clear must return the vswitch flow table — keys,
// actions, offload and staleness bits — to exactly its pre-injection
// image, and clearing again must not disturb it.
func TestClearRestoresFlowTable(t *testing.T) {
	r := newRig(t)
	a, _ := r.pair()
	for _, tc := range []struct {
		issue IssueType
		tgt   Target
	}{
		{OffloadingFailure, Target{Host: a.Host, Rail: a.Rail}},
		{RepetitiveFlowOffloading, Target{Host: a.Host}},
		{SuboptimalFlowOffloading, Target{Host: a.Host}},
		{NotUsingRDMA, Target{Host: a.Host}},
	} {
		before := flowTableImage(r, a.Host)
		in, err := r.inj.Inject(tc.issue, tc.tgt)
		if err != nil {
			t.Fatalf("%v: %v", tc.issue, err)
		}
		if reflect.DeepEqual(flowTableImage(r, a.Host), before) {
			t.Fatalf("%v: injection left the flow table untouched", tc.issue)
		}
		r.inj.Clear(in)
		if got := flowTableImage(r, a.Host); !reflect.DeepEqual(got, before) {
			t.Fatalf("%v: Clear did not round-trip the flow table", tc.issue)
		}
		r.inj.Clear(in) // double-clear: still the original image
		if got := flowTableImage(r, a.Host); !reflect.DeepEqual(got, before) {
			t.Fatalf("%v: double Clear disturbed the flow table", tc.issue)
		}
	}
}

// TestDoubleClearDoesNotRerunUndo: a cleared injection's undo must not
// fire again — re-running it would clobber state that changed since
// (e.g. a later fault staling the same entries would be silently
// "repaired" by a stale undo).
func TestDoubleClearDoesNotRerunUndo(t *testing.T) {
	r := newRig(t)
	a, _ := r.pair()
	in, err := r.inj.Inject(OffloadingFailure, Target{Host: a.Host, Rail: a.Rail})
	if err != nil {
		t.Fatal(err)
	}
	r.inj.Clear(in)
	if !in.Cleared {
		t.Fatal("Cleared flag not set")
	}
	// A key the injection touched goes stale again, independently.
	vsw := r.net.Overlay.VSwitch(a.Host)
	var touched *overlay.FlowEntry
	for _, k := range vsw.Keys() {
		if e, _ := vsw.Lookup(k); e.Offloaded && e.Action.Rail == a.Rail {
			touched = e
			break
		}
	}
	if touched == nil {
		t.Fatal("no offloaded entry on the faulted rail")
	}
	touched.OffloadStale = true
	r.inj.Clear(in) // no-op: must not restore the entry
	if !touched.OffloadStale {
		t.Fatal("double Clear re-ran the undo and un-staled the entry")
	}
}

// TestClearAllRestoresFlowTables: concurrent overlay faults on
// different hosts all round-trip through one ClearAll, and a second
// ClearAll is a no-op.
func TestClearAllRestoresFlowTables(t *testing.T) {
	r := newRig(t)
	a, _ := r.pair()
	hostB := r.task.Containers[1].Host
	beforeA := flowTableImage(r, a.Host)
	beforeB := flowTableImage(r, hostB)

	if _, err := r.inj.Inject(RepetitiveFlowOffloading, Target{Host: a.Host}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.inj.Inject(NotUsingRDMA, Target{Host: hostB}); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(flowTableImage(r, a.Host), beforeA) ||
		reflect.DeepEqual(flowTableImage(r, hostB), beforeB) {
		t.Fatal("injections left a flow table untouched")
	}

	clearAll(r.inj)
	if got := flowTableImage(r, a.Host); !reflect.DeepEqual(got, beforeA) {
		t.Fatal("ClearAll did not round-trip host A's flow table")
	}
	if got := flowTableImage(r, hostB); !reflect.DeepEqual(got, beforeB) {
		t.Fatal("ClearAll did not round-trip host B's flow table")
	}
	if got := len(active(r.inj)); got != 0 {
		t.Fatalf("active after ClearAll = %d", got)
	}
	clearAll(r.inj) // idempotent
	if got := flowTableImage(r, a.Host); !reflect.DeepEqual(got, beforeA) {
		t.Fatal("second ClearAll disturbed the flow table")
	}
}
