package localize

import (
	"testing"
	"time"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/component"
	"skeletonhunter/internal/faults"
	"skeletonhunter/internal/netsim"
	"skeletonhunter/internal/overlay"
	"skeletonhunter/internal/parallelism"
	"skeletonhunter/internal/sim"
	"skeletonhunter/internal/topology"
)

type rig struct {
	eng  *sim.Engine
	net  *netsim.Net
	cp   *cluster.ControlPlane
	task *cluster.Task
	inj  *faults.Injector
	loc  *Localizer
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.NewEngine(7)
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
	eng.RunUntil(10 * time.Minute)
	net := netsim.New(eng, fab, ovl)
	return &rig{eng: eng, net: net, cp: cp, task: task,
		inj: faults.NewInjector(net, cp), loc: NewWithControlPlane(net, cp)}
}

// gatherEvidence probes the given pairs and builds evidence for the
// ones that look anomalous (lost or slow), plus healthy observations.
func (r *rig) gatherEvidence(symptomHint Symptom) ([]Evidence, []Observation) {
	var evidence []Evidence
	var healthy []Observation
	for _, src := range r.task.Containers {
		for _, dst := range r.task.Containers {
			if src == dst {
				continue
			}
			for rail := 0; rail < 8; rail++ {
				a, b := src.Addrs[rail], dst.Addrs[rail]
				var paths [][]topology.LinkID
				lost, slow := 0, 0
				const probes = 12
				for p := 0; p < probes; p++ {
					res := r.net.Probe(a, b, uint64(rail*100+p))
					if len(res.UnderlayPath) > 0 {
						paths = append(paths, res.UnderlayPath)
					}
					switch {
					case res.Lost:
						lost++
					case res.RTT > 60*time.Microsecond:
						slow++
					default:
						healthy = append(healthy, Observation{Path: res.UnderlayPath})
					}
				}
				if lost == probes {
					evidence = append(evidence, Evidence{Src: a, Dst: b, Symptom: SymptomUnreachable, Paths: paths})
				} else if lost > 0 {
					evidence = append(evidence, Evidence{Src: a, Dst: b, Symptom: SymptomLoss, Paths: paths})
				} else if slow > 0 {
					evidence = append(evidence, Evidence{Src: a, Dst: b, Symptom: SymptomLatency, Paths: paths})
				}
			}
		}
	}
	_ = symptomHint
	return evidence, healthy
}

// expectComponent asserts that some verdict names one of the wanted
// components.
func expectComponent(t *testing.T, verdicts []Verdict, want []component.ID) {
	t.Helper()
	for _, v := range verdicts {
		for _, c := range v.Components {
			for _, w := range want {
				if c == w {
					return
				}
			}
		}
	}
	t.Fatalf("no verdict names %v; got %+v", want, verdicts)
}

func TestLocalizeSwitchPortDown(t *testing.T) {
	r := newRig(t)
	a := r.task.Containers[0].Addrs[3]
	nic := topology.NIC{Host: a.Host, Rail: 3}
	link := topology.MakeLinkID(nic.ID(), r.net.Fabric.ToR(0, 3))
	in, err := r.inj.Inject(faults.SwitchPortDown, faults.Target{Link: link})
	if err != nil {
		t.Fatal(err)
	}
	ev, healthy := r.gatherEvidence(SymptomUnreachable)
	if len(ev) == 0 {
		t.Fatal("no evidence gathered")
	}
	verdicts := r.loc.LocalizeWith(nil, ev, healthy)
	expectComponent(t, verdicts, in.Components)
}

func TestLocalizeSwitchOffline(t *testing.T) {
	r := newRig(t)
	tor := r.net.Fabric.ToR(0, 2)
	in, err := r.inj.Inject(faults.SwitchOffline, faults.Target{Switch: tor})
	if err != nil {
		t.Fatal(err)
	}
	ev, healthy := r.gatherEvidence(SymptomUnreachable)
	verdicts := r.loc.LocalizeWith(nil, ev, healthy)
	expectComponent(t, verdicts, in.Components)
}

func TestLocalizeCRCErrorLink(t *testing.T) {
	r := newRig(t)
	// A ToR-adjacent link with partial loss. Use a destination NIC link
	// so multiple src pairs share it.
	b := r.task.Containers[2].Addrs[5]
	nic := topology.NIC{Host: b.Host, Rail: 5}
	link := topology.MakeLinkID(nic.ID(), r.net.Fabric.ToR(0, 5))
	in, err := r.inj.Inject(faults.CRCError, faults.Target{Link: link})
	if err != nil {
		t.Fatal(err)
	}
	ev, healthy := r.gatherEvidence(SymptomLoss)
	if len(ev) == 0 {
		t.Skip("partial loss produced no anomalous windows this seed")
	}
	verdicts := r.loc.LocalizeWith(nil, ev, healthy)
	// The RNIC verdict is acceptable too (the link IS the NIC's link);
	// ground truth allows the link.
	expectComponent(t, verdicts, append(in.Components, component.RNIC(b.Host, 5)))
}

func TestLocalizeRNICDown(t *testing.T) {
	r := newRig(t)
	a := r.task.Containers[1].Addrs[0]
	in, err := r.inj.Inject(faults.RNICPortDown, faults.Target{Host: a.Host, Rail: 0})
	if err != nil {
		t.Fatal(err)
	}
	ev, healthy := r.gatherEvidence(SymptomUnreachable)
	verdicts := r.loc.LocalizeWith(nil, ev, healthy)
	expectComponent(t, verdicts, in.Components)
}

func TestLocalizeFirmwareLatency(t *testing.T) {
	r := newRig(t)
	a := r.task.Containers[1].Addrs[2]
	in, err := r.inj.Inject(faults.RNICFirmwareNotResponding, faults.Target{Host: a.Host, Rail: 2})
	if err != nil {
		t.Fatal(err)
	}
	ev, healthy := r.gatherEvidence(SymptomLatency)
	if len(ev) == 0 {
		t.Fatal("no latency evidence")
	}
	verdicts := r.loc.LocalizeWith(nil, ev, healthy)
	expectComponent(t, verdicts, in.Components)
}

func TestLocalizeHostBoard(t *testing.T) {
	r := newRig(t)
	host := r.task.Containers[2].Host
	in, err := r.inj.Inject(faults.PCIeNICError, faults.Target{Host: host})
	if err != nil {
		t.Fatal(err)
	}
	ev, healthy := r.gatherEvidence(SymptomLatency)
	verdicts := r.loc.LocalizeWith(nil, ev, healthy)
	expectComponent(t, verdicts, in.Components)
}

func TestLocalizeCongestionConfig(t *testing.T) {
	r := newRig(t)
	tor := r.net.Fabric.ToR(0, 4)
	in, err := r.inj.Inject(faults.CongestionControlIssue, faults.Target{Switch: tor})
	if err != nil {
		t.Fatal(err)
	}
	ev, healthy := r.gatherEvidence(SymptomLatency)
	verdicts := r.loc.LocalizeWith(nil, ev, healthy)
	expectComponent(t, verdicts, in.Components)
}

func TestLocalizeOffloadInconsistencyFig18(t *testing.T) {
	// The Fig. 18 case end to end: latency anomalies, tomography
	// exonerated by healthy reverse traffic, RNIC dump names the NIC.
	r := newRig(t)
	a := r.task.Containers[0].Addrs[6]
	in, err := r.inj.Inject(faults.OffloadingFailure, faults.Target{Host: a.Host, Rail: 6, VNI: a.VNI})
	if err != nil {
		t.Fatal(err)
	}
	ev, healthy := r.gatherEvidence(SymptomLatency)
	if len(ev) == 0 {
		t.Fatal("no latency evidence")
	}
	verdicts := r.loc.LocalizeWith(nil, ev, healthy)
	expectComponent(t, verdicts, in.Components)
	// And it must have come from RNIC validation, not tomography.
	for _, v := range verdicts {
		for _, c := range v.Components {
			if c == in.Components[0] && v.Layer != LayerRNICValidation {
				t.Fatalf("offload fault localized by %v, want rnic-validation", v.Layer)
			}
		}
	}
}

func TestLocalizeNotUsingRDMA(t *testing.T) {
	r := newRig(t)
	host := r.task.Containers[0].Host
	in, err := r.inj.Inject(faults.NotUsingRDMA, faults.Target{Host: host})
	if err != nil {
		t.Fatal(err)
	}
	ev, healthy := r.gatherEvidence(SymptomLatency)
	verdicts := r.loc.LocalizeWith(nil, ev, healthy)
	expectComponent(t, verdicts, in.Components)
}

func TestLocalizeOverlayBlackhole(t *testing.T) {
	r := newRig(t)
	a := r.task.Containers[0].Addrs[1]
	b := r.task.Containers[1].Addrs[1]
	r.net.Overlay.RemoveEntry(a.Host, a.VNI, b.IP)
	ev := []Evidence{{Src: a, Dst: b, Symptom: SymptomUnreachable}}
	verdicts := r.loc.LocalizeWith(nil, ev, nil)
	if len(verdicts) != 1 || verdicts[0].Layer != LayerOverlay {
		t.Fatalf("verdicts = %+v", verdicts)
	}
	expectComponent(t, verdicts, []component.ID{component.ID("vswitch/h" + itoa(a.Host))})
}

func TestLocalizeOverlayLoop(t *testing.T) {
	r := newRig(t)
	a := r.task.Containers[0].Addrs[1]
	b := r.task.Containers[1].Addrs[1]
	r.net.Overlay.CorruptEntry(b.Host, b.VNI, b.IP, overlay.FlowAction{
		Type: overlay.ActionTunnel, RemoteHost: a.Host, Rail: b.Rail,
	})
	ev := []Evidence{{Src: a, Dst: b, Symptom: SymptomUnreachable}}
	verdicts := r.loc.LocalizeWith(nil, ev, nil)
	if len(verdicts) != 1 || verdicts[0].Layer != LayerOverlay {
		t.Fatalf("verdicts = %+v", verdicts)
	}
}

func TestLocalizeContainerCrash(t *testing.T) {
	r := newRig(t)
	victim := r.task.Containers[1]
	b := victim.Addrs[0]
	a := r.task.Containers[0].Addrs[0]
	if _, err := r.inj.Inject(faults.ContainerCrash, faults.Target{Container: victim.ID}); err != nil {
		t.Fatal(err)
	}
	ev := []Evidence{{Src: a, Dst: b, Symptom: SymptomUnreachable}}
	verdicts := r.loc.LocalizeWith(nil, ev, nil)
	if len(verdicts) != 1 || verdicts[0].Layer != LayerControlPlane {
		t.Fatalf("verdicts = %+v", verdicts)
	}
}

func TestLocalizeConcurrentFaults(t *testing.T) {
	// Two independent NIC-down faults on different hosts/rails must
	// both be localized from one evidence batch (iterative tomography).
	r := newRig(t)
	a1 := r.task.Containers[0].Addrs[2]
	a2 := r.task.Containers[2].Addrs[5]
	in1, err := r.inj.Inject(faults.RNICPortDown, faults.Target{Host: a1.Host, Rail: 2})
	if err != nil {
		t.Fatal(err)
	}
	in2, err := r.inj.Inject(faults.RNICPortDown, faults.Target{Host: a2.Host, Rail: 5})
	if err != nil {
		t.Fatal(err)
	}
	ev, healthy := r.gatherEvidence(SymptomUnreachable)
	verdicts := r.loc.LocalizeWith(nil, ev, healthy)
	expectComponent(t, verdicts, in1.Components)
	expectComponent(t, verdicts, in2.Components)
}

func TestLocalizeNothingWrong(t *testing.T) {
	r := newRig(t)
	a := r.task.Containers[0].Addrs[0]
	b := r.task.Containers[1].Addrs[0]
	// A single spurious latency evidence with healthy counterevidence:
	// every stage declines, verdict is "unknown/manual".
	res := r.net.Probe(a, b, 1)
	ev := []Evidence{{Src: a, Dst: b, Symptom: SymptomLatency, Paths: [][]topology.LinkID{res.UnderlayPath}}}
	healthy := []Observation{{Path: res.UnderlayPath}}
	verdicts := r.loc.LocalizeWith(nil, ev, healthy)
	if len(verdicts) != 1 || verdicts[0].Layer != LayerUnknown {
		t.Fatalf("verdicts = %+v", verdicts)
	}
}

func itoa(i int) string { return string(rune('0' + i)) }
