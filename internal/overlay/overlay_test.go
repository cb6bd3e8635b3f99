package overlay

import (
	"fmt"
	"testing"
	"unsafe"
)

func addr(vni VNI, host, rail int) Addr {
	return Addr{VNI: vni, IP: fmt.Sprintf("10.%d.%d.%d", vni, host, rail), Host: host, Rail: rail}
}

func buildPair(t *testing.T) (*Network, Addr, Addr) {
	t.Helper()
	n := NewNetwork()
	a, b := addr(7, 0, 1), addr(7, 3, 1)
	if err := n.AttachEndpoint(a); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachEndpoint(b); err != nil {
		t.Fatal(err)
	}
	return n, a, b
}

func TestAttachProgramsBothDirections(t *testing.T) {
	n, a, b := buildPair(t)
	// Host 0 must know how to reach b via tunnel, host 3 how to reach a.
	e, ok := n.VSwitch(a.Host).Lookup(FlowKey{VNI: 7, Dst: b.IP})
	if !ok || e.Action.Type != ActionTunnel || e.Action.RemoteHost != b.Host {
		t.Fatalf("host %d → %s entry wrong: %+v", a.Host, b.IP, e)
	}
	e, ok = n.VSwitch(b.Host).Lookup(FlowKey{VNI: 7, Dst: a.IP})
	if !ok || e.Action.Type != ActionTunnel || e.Action.RemoteHost != a.Host {
		t.Fatalf("host %d → %s entry wrong: %+v", b.Host, a.IP, e)
	}
	// Each host delivers locally to its own endpoint.
	e, ok = n.VSwitch(a.Host).Lookup(FlowKey{VNI: 7, Dst: a.IP})
	if !ok || e.Action.Type != ActionLocal {
		t.Fatalf("local entry wrong: %+v", e)
	}
}

func TestAttachDuplicateRejected(t *testing.T) {
	n := NewNetwork()
	a := addr(1, 0, 0)
	if err := n.AttachEndpoint(a); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachEndpoint(a); err == nil {
		t.Fatal("duplicate endpoint accepted")
	}
}

func TestVNIIsolation(t *testing.T) {
	n := NewNetwork()
	a1 := addr(1, 0, 0)
	b2 := addr(2, 1, 0)
	if err := n.AttachEndpoint(a1); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachEndpoint(b2); err != nil {
		t.Fatal(err)
	}
	// Host 0 must have no entry for VNI 2's endpoint.
	if _, ok := n.VSwitch(0).Lookup(FlowKey{VNI: 2, Dst: b2.IP}); ok {
		t.Fatal("cross-VNI flow entry leaked")
	}
	// A trace across VNIs breaks at the source vswitch.
	tr, err := n.TraceForward(a1, b2.IP)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Outcome != Broken {
		t.Fatalf("cross-tenant trace outcome = %v, want broken", tr.Outcome)
	}
}

func TestTraceForwardHealthy(t *testing.T) {
	n, a, b := buildPair(t)
	tr, err := n.TraceForward(a, b.IP)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Outcome != Reached {
		t.Fatalf("outcome = %v, want reached (chain %v)", tr.Outcome, tr.Chain)
	}
	if tr.SlowPath {
		t.Fatal("healthy trace flagged slow path")
	}
	// vport → vswitch → vtep → vtep → vswitch → vport.
	if len(tr.Chain) != 6 {
		t.Fatalf("chain length = %d (%v), want 6", len(tr.Chain), tr.Chain)
	}
	if len(tr.TunnelLegs) != 1 {
		t.Fatalf("tunnel legs = %d, want 1", len(tr.TunnelLegs))
	}
	leg := tr.TunnelLegs[0]
	if leg.SrcHost != a.Host || leg.DstHost != b.Host || leg.SrcRail != b.Rail {
		t.Fatalf("tunnel leg wrong: %+v", leg)
	}
}

func TestTraceForwardSameHost(t *testing.T) {
	n := NewNetwork()
	a, b := addr(4, 2, 0), addr(4, 2, 3)
	if err := n.AttachEndpoint(a); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachEndpoint(b); err != nil {
		t.Fatal(err)
	}
	tr, err := n.TraceForward(a, b.IP)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Outcome != Reached || len(tr.TunnelLegs) != 0 {
		t.Fatalf("same-host trace: outcome %v, legs %d", tr.Outcome, len(tr.TunnelLegs))
	}
}

func TestTraceForwardBrokenOnRemovedEntry(t *testing.T) {
	n, a, b := buildPair(t)
	n.RemoveEntry(a.Host, a.VNI, b.IP)
	tr, _ := n.TraceForward(a, b.IP)
	if tr.Outcome != Broken {
		t.Fatalf("outcome = %v, want broken", tr.Outcome)
	}
	last := tr.Chain[len(tr.Chain)-1]
	if last.Kind != CompVSwitch {
		t.Fatalf("break point = %v, want the source vswitch", last)
	}
}

func TestTraceForwardBrokenOnDrop(t *testing.T) {
	n, a, b := buildPair(t)
	n.CorruptEntry(a.Host, a.VNI, b.IP, FlowAction{Type: ActionDrop})
	tr, _ := n.TraceForward(a, b.IP)
	if tr.Outcome != Broken {
		t.Fatalf("outcome = %v, want broken", tr.Outcome)
	}
}

func TestTraceForwardLoop(t *testing.T) {
	n, a, b := buildPair(t)
	// Corrupt b's host to bounce the packet back to a's host instead of
	// delivering locally: classic forwarding loop.
	n.CorruptEntry(b.Host, b.VNI, b.IP, FlowAction{Type: ActionTunnel, RemoteHost: a.Host, Rail: b.Rail})
	tr, _ := n.TraceForward(a, b.IP)
	if tr.Outcome != Looped {
		t.Fatalf("outcome = %v, want looped (chain %v)", tr.Outcome, tr.Chain)
	}
	// The revisited component is appended before the loop is reported.
	want := []string{"vport/vni7/10.7.0.1", "vswitch/h0", "vtep/h0/r1", "vtep/h3/r1", "vswitch/h3", "vtep/h3/r1"}
	if len(tr.Chain) != len(want) {
		t.Fatalf("chain = %v, want %v", tr.Chain, want)
	}
	for i, c := range tr.Chain {
		if c.String() != want[i] {
			t.Fatalf("chain[%d] = %v, want %s (chain %v)", i, c, want[i], tr.Chain)
		}
	}
}

func TestTraceForwardMisdeliveredLocal(t *testing.T) {
	n, a, b := buildPair(t)
	// a's host claims b is local — the "local but absent" breakage.
	n.CorruptEntry(a.Host, a.VNI, b.IP, FlowAction{Type: ActionLocal, Rail: 0})
	tr, _ := n.TraceForward(a, b.IP)
	if tr.Outcome != Broken {
		t.Fatalf("outcome = %v, want broken", tr.Outcome)
	}
	last := tr.Chain[len(tr.Chain)-1]
	if last.Kind != CompVPort {
		t.Fatalf("break point = %v, want missing vport", last)
	}
}

func TestTraceForwardUnknownSource(t *testing.T) {
	n, _, b := buildPair(t)
	ghost := addr(7, 9, 0)
	if _, err := n.TraceForward(ghost, b.IP); err != ErrUnknownEndpoint {
		t.Fatalf("err = %v, want ErrUnknownEndpoint", err)
	}
}

func TestSlowPathDetection(t *testing.T) {
	n, a, b := buildPair(t)
	if !n.InvalidateOffload(a.Host, a.VNI, b.IP) {
		t.Fatal("invalidate failed")
	}
	tr, _ := n.TraceForward(a, b.IP)
	if tr.Outcome != Reached {
		t.Fatalf("outcome = %v, want reached", tr.Outcome)
	}
	if !tr.SlowPath {
		t.Fatal("stale offload not flagged as slow path")
	}
	if !n.RestoreOffload(a.Host, a.VNI, b.IP) {
		t.Fatal("restore failed")
	}
	tr, _ = n.TraceForward(a, b.IP)
	if tr.SlowPath {
		t.Fatal("slow path persists after restore")
	}
}

func TestDumpOffloadFindsInconsistency(t *testing.T) {
	n, a, b := buildPair(t)
	n.InvalidateOffload(a.Host, a.VNI, b.IP)
	d := n.DumpOffload(a.Host, b.Rail)
	if len(d.Inconsistent) != 1 {
		t.Fatalf("inconsistent entries = %d, want 1", len(d.Inconsistent))
	}
	if d.Inconsistent[0].Dst != b.IP {
		t.Fatalf("wrong inconsistent key: %+v", d.Inconsistent[0])
	}
	// The other rail's dump is clean.
	clean := n.DumpOffload(a.Host, b.Rail+1)
	if len(clean.Inconsistent) != 0 {
		t.Fatal("unrelated rail reported inconsistency")
	}
}

func TestDetachRemovesRules(t *testing.T) {
	n, a, b := buildPair(t)
	n.DetachEndpoint(b)
	if _, ok := n.VSwitch(a.Host).Lookup(FlowKey{VNI: 7, Dst: b.IP}); ok {
		t.Fatal("rule toward detached endpoint survived")
	}
	if _, ok := n.Endpoint(7, b.IP); ok {
		t.Fatal("detached endpoint still registered")
	}
	tr, _ := n.TraceForward(a, b.IP)
	if tr.Outcome != Broken {
		t.Fatalf("trace to detached endpoint = %v, want broken", tr.Outcome)
	}
}

func TestFlowTableGrowth(t *testing.T) {
	// k endpoints of one task on k distinct hosts ⇒ every involved host
	// has k entries (1 local + k−1 remote).
	n := NewNetwork()
	const k = 6
	for h := 0; h < k; h++ {
		if err := n.AttachEndpoint(addr(9, h, 0)); err != nil {
			t.Fatal(err)
		}
	}
	for h := 0; h < k; h++ {
		if got := n.VSwitch(h).Len(); got != k {
			t.Fatalf("host %d table size = %d, want %d", h, got, k)
		}
	}
}

func TestOffloadFlagManipulation(t *testing.T) {
	n, a, b := buildPair(t)
	// SetOffloaded(false) puts the flow on the software path.
	if !n.SetOffloaded(a.Host, a.VNI, b.IP, false) {
		t.Fatal("SetOffloaded failed")
	}
	tr, _ := n.TraceForward(a, b.IP)
	if !tr.SlowPath {
		t.Fatal("de-offloaded entry not slow")
	}
	if n.SetOffloaded(a.Host, a.VNI, "10.9.9.9", false) {
		t.Fatal("SetOffloaded on missing entry reported success")
	}
	// DeOffloadAll / ReOffloadAll round trip.
	nDeOff := n.DeOffloadAll(a.Host)
	if nDeOff == 0 {
		t.Fatal("DeOffloadAll touched nothing")
	}
	d := n.DumpOffload(a.Host, b.Rail)
	if len(d.NotOffloaded) == 0 {
		t.Fatal("dump does not show de-offloaded entries")
	}
	n.ReOffloadAll(a.Host)
	tr, _ = n.TraceForward(a, b.IP)
	if tr.SlowPath {
		t.Fatal("slow path persists after ReOffloadAll")
	}
}

func TestTraceOutcomeStrings(t *testing.T) {
	if Reached.String() != "reached" || Broken.String() != "broken" || Looped.String() != "looped" {
		t.Fatal("outcome strings wrong")
	}
	if TraceOutcome(9).String() == "" {
		t.Fatal("unknown outcome renders empty")
	}
}

func TestComponentStrings(t *testing.T) {
	a := addr(3, 1, 2)
	if got := VPortComponent(a).String(); got != "vport/vni3/10.3.1.2" {
		t.Fatalf("vport component = %q", got)
	}
	if got := VSwitchComponent(4).String(); got != "vswitch/h4" {
		t.Fatalf("vswitch component = %q", got)
	}
	if got := VTEPComponent(4, 5).String(); got != "vtep/h4/r5" {
		t.Fatalf("vtep component = %q", got)
	}
	if size := unsafe.Sizeof(Component{}); size > 32 {
		t.Fatalf("Component is %d bytes, want ≤ 32", size)
	}
}

// TestGenerationScope pins which generation each mutator moves: a
// mutation scoped to one VNI moves only that VNI's, a host-wide handout
// moves the fleet-wide one, and a VNI's last endpoint leaving retires
// the VNI.
func TestGenerationScope(t *testing.T) {
	n, a, b := buildPair(t)
	other := addr(8, 1, 0)
	if err := n.AttachEndpoint(other); err != nil {
		t.Fatal(err)
	}
	type mutation struct {
		name string
		mut  func()
	}
	scoped := []mutation{
		{"SetOffloaded", func() { n.SetOffloaded(a.Host, a.VNI, b.IP, false) }},
		{"InvalidateOffload", func() { n.InvalidateOffload(a.Host, a.VNI, b.IP) }},
		{"RestoreOffload", func() { n.RestoreOffload(a.Host, a.VNI, b.IP) }},
		{"CorruptEntry", func() { n.CorruptEntry(a.Host, a.VNI, b.IP, FlowAction{Type: ActionDrop}) }},
		{"RemoveEntry", func() { n.RemoveEntry(a.Host, a.VNI, b.IP) }},
		{"DetachEndpoint", func() { n.DetachEndpoint(b) }},
		{"AttachEndpoint", func() { _ = n.AttachEndpoint(b) }},
	}
	for _, m := range scoped {
		gen, vg, og := n.Gen(), n.VNIGen(a.VNI), n.VNIGen(other.VNI)
		m.mut()
		if n.Gen() != gen || n.VNIGen(a.VNI) == vg || n.VNIGen(other.VNI) != og {
			t.Fatalf("%s: gen %d→%d, vni %d→%d, other vni %d→%d; want only the VNI's to move",
				m.name, gen, n.Gen(), vg, n.VNIGen(a.VNI), og, n.VNIGen(other.VNI))
		}
	}
	for _, m := range []mutation{
		{"VSwitch", func() { n.VSwitch(a.Host) }},
		{"DeOffloadAll", func() { n.DeOffloadAll(a.Host) }},
		{"ReOffloadAll", func() { n.ReOffloadAll(a.Host) }},
		{"last detach", func() { n.DetachEndpoint(other) }},
	} {
		gen := n.Gen()
		m.mut()
		if n.Gen() == gen {
			t.Fatalf("%s did not move the fleet-wide generation", m.name)
		}
	}
	if n.VNIGen(other.VNI) != 0 {
		t.Fatalf("retired VNI keeps generation %d", n.VNIGen(other.VNI))
	}
}
