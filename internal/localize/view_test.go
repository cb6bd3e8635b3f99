package localize

import (
	"testing"

	"skeletonhunter/internal/faults"
	"skeletonhunter/internal/topology"
)

// TestStaleViewHidesFaultyLink is the flap+ghost mechanism in
// miniature: with the faulty link missing from the topology view, the
// tomography stage cannot name it; restoring the view restores the
// verdict.
func TestStaleViewHidesFaultyLink(t *testing.T) {
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

	// Ghost view: the topology service has lost the flapping link.
	r.loc.View = func(l topology.LinkID) bool { return l != link }
	verdicts := r.loc.LocalizeWith(nil, ev, healthy)
	for _, v := range verdicts {
		for _, c := range v.Components {
			for _, want := range in.Components {
				if c == want {
					t.Fatalf("stale view still named %v via %+v", want, v)
				}
			}
		}
	}

	// Refresh: the same evidence now votes on the real link.
	r.loc.View = nil
	expectComponent(t, r.loc.LocalizeWith(nil, ev, healthy), in.Components)
}

// TestFullViewIsNoOp: a view that knows every link must not perturb
// verdicts relative to no view at all.
func TestFullViewIsNoOp(t *testing.T) {
	r := newRig(t)
	tor := r.net.Fabric.ToR(0, 2)
	in, err := r.inj.Inject(faults.SwitchOffline, faults.Target{Switch: tor})
	if err != nil {
		t.Fatal(err)
	}
	ev, healthy := r.gatherEvidence(SymptomUnreachable)
	base := r.loc.LocalizeWith(nil, ev, healthy)
	r.loc.View = func(topology.LinkID) bool { return true }
	full := r.loc.LocalizeWith(nil, ev, healthy)
	if len(base) != len(full) {
		t.Fatalf("full view changed verdict count: %d vs %d", len(base), len(full))
	}
	expectComponent(t, full, in.Components)
}
