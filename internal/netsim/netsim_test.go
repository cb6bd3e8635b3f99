package netsim

import (
	"testing"
	"time"

	"skeletonhunter/internal/overlay"
	"skeletonhunter/internal/sim"
	"skeletonhunter/internal/topology"
)

// world builds a 2-pod fabric with two attached endpoints on the same
// rail of different hosts.
func world(t *testing.T) (*Net, overlay.Addr, overlay.Addr) {
	t.Helper()
	eng := sim.NewEngine(1)
	fab, err := topology.New(topology.Spec{Pods: 2, HostsPerPod: 4, Rails: 4, AggPerPod: 2, Spines: 2})
	if err != nil {
		t.Fatal(err)
	}
	ovl := overlay.NewNetwork()
	a := overlay.Addr{VNI: 5, IP: "10.5.0.1", Host: 0, Rail: 1}
	b := overlay.Addr{VNI: 5, IP: "10.5.3.1", Host: 3, Rail: 1}
	for _, ep := range []overlay.Addr{a, b} {
		if err := ovl.AttachEndpoint(ep); err != nil {
			t.Fatal(err)
		}
	}
	return New(eng, fab, ovl), a, b
}

func TestHealthyProbeRTT(t *testing.T) {
	n, a, b := world(t)
	for i := 0; i < 50; i++ {
		res := n.Probe(a, b, uint64(i))
		if res.Lost {
			t.Fatalf("healthy probe %d lost", i)
		}
		// Same-rail same-pod: target ≈16 µs, accept jitter band.
		if res.RTT < 8*time.Microsecond || res.RTT > 30*time.Microsecond {
			t.Fatalf("healthy RTT = %v, want ≈16µs", res.RTT)
		}
		if len(res.UnderlayPath) != 2 {
			t.Fatalf("underlay links = %d, want 2 (NIC–ToR–NIC)", len(res.UnderlayPath))
		}
	}
}

func TestLinkDownDropsProbe(t *testing.T) {
	n, a, b := world(t)
	// Kill the NIC–ToR link of the destination.
	dstNIC := topology.NIC{Host: b.Host, Rail: b.Rail}
	link := topology.MakeLinkID(dstNIC.ID(), n.Fabric.ToR(0, b.Rail))
	n.SetLinkCondition(link, &Condition{Down: true})
	res := n.Probe(a, b, 0)
	if !res.Lost {
		t.Fatal("probe survived a down link")
	}
	// Clearing restores.
	n.SetLinkCondition(link, nil)
	if res := n.Probe(a, b, 0); res.Lost {
		t.Fatal("probe lost after clearing condition")
	}
}

func TestSwitchLossRate(t *testing.T) {
	n, a, b := world(t)
	tor := n.Fabric.ToR(0, b.Rail)
	n.SetNodeCondition(tor, &Condition{LossRate: 0.3})
	lost := 0
	const probes = 2000
	for i := 0; i < probes; i++ {
		if n.Probe(a, b, uint64(i)).Lost {
			lost++
		}
	}
	// Two traversal chances per probe ⇒ ≈ 1-(0.7)² = 51 %.
	rate := float64(lost) / probes
	if rate < 0.40 || rate < 0.3 {
		t.Fatalf("loss rate = %v, want ≈0.51", rate)
	}
	if rate > 0.62 {
		t.Fatalf("loss rate = %v, want ≈0.51", rate)
	}
}

func TestExtraLatencyInflatesRTT(t *testing.T) {
	n, a, b := world(t)
	tor := n.Fabric.ToR(0, b.Rail)
	n.SetNodeCondition(tor, &Condition{ExtraLatency: 50 * time.Microsecond})
	res := n.Probe(a, b, 0)
	if res.Lost {
		t.Fatal("probe lost")
	}
	if res.RTT < 90*time.Microsecond {
		t.Fatalf("RTT = %v, want ≥ ~100µs (2×50µs extra)", res.RTT)
	}
}

func TestSlowPathLatency(t *testing.T) {
	n, a, b := world(t)
	// Fig. 18: stale offload forces software processing; ~16µs → ~120µs.
	n.Overlay.InvalidateOffload(a.Host, a.VNI, b.IP)
	var healthySeen, slowSeen time.Duration
	n2, a2, b2 := world(t)
	healthySeen = n2.Probe(a2, b2, 0).RTT
	res := n.Probe(a, b, 0)
	if res.Lost {
		t.Skip("rare slow-path loss sample; acceptable")
	}
	slowSeen = res.RTT
	if slowSeen < 100*time.Microsecond || slowSeen > 150*time.Microsecond {
		t.Fatalf("slow-path RTT = %v, want ≈120µs", slowSeen)
	}
	if slowSeen < healthySeen*4 {
		t.Fatalf("slow path (%v) not clearly above healthy (%v)", slowSeen, healthySeen)
	}
}

func TestFlappingComponent(t *testing.T) {
	n, a, b := world(t)
	dstNIC := topology.NIC{Host: b.Host, Rail: b.Rail}
	n.SetNodeCondition(dstNIC.ID(), &Condition{Flap: &Flap{Period: 10 * time.Second, DownFor: 3 * time.Second}})
	// t=0s: within the down window.
	if res := n.Probe(a, b, 0); !res.Lost {
		t.Fatal("probe survived during flap-down window")
	}
	n.Engine.RunUntil(5 * time.Second) // advance into the up window
	if res := n.Probe(a, b, 0); res.Lost {
		t.Fatal("probe lost during flap-up window")
	}
	n.Engine.RunUntil(12 * time.Second) // next period's down window
	if res := n.Probe(a, b, 0); !res.Lost {
		t.Fatal("probe survived during second flap-down window")
	}
}

func TestHostConditionAffectsAllEndpoints(t *testing.T) {
	n, a, b := world(t)
	n.SetHostCondition(a.Host, &Condition{ExtraLatency: 30 * time.Microsecond})
	res := n.Probe(a, b, 0)
	if res.Lost || res.RTT < 60*time.Microsecond {
		t.Fatalf("host condition not applied: lost=%v rtt=%v", res.Lost, res.RTT)
	}
	n.SetHostCondition(a.Host, &Condition{Down: true})
	if res := n.Probe(a, b, 0); !res.Lost {
		t.Fatal("probe survived a down host")
	}
}

func TestBrokenOverlayLosesProbe(t *testing.T) {
	n, a, b := world(t)
	n.Overlay.RemoveEntry(a.Host, a.VNI, b.IP)
	res := n.Probe(a, b, 0)
	if !res.Lost || len(res.UnderlayPath) != 0 {
		t.Fatalf("probe over a missing flow entry: lost=%v path=%v, want lost before the underlay", res.Lost, res.UnderlayPath)
	}
}

func TestUnknownSourceLost(t *testing.T) {
	n, _, b := world(t)
	ghost := overlay.Addr{VNI: 5, IP: "10.5.9.9", Host: 1, Rail: 0}
	if res := n.Probe(ghost, b, 0); !res.Lost {
		t.Fatal("probe from unknown endpoint survived")
	}
}

func TestECMPSpreadAcrossPods(t *testing.T) {
	// Cross-pod endpoints: varying entropy must exercise multiple paths.
	eng := sim.NewEngine(1)
	fab, _ := topology.New(topology.Spec{Pods: 2, HostsPerPod: 4, Rails: 4, AggPerPod: 2, Spines: 2})
	ovl := overlay.NewNetwork()
	a := overlay.Addr{VNI: 5, IP: "10.5.0.1", Host: 0, Rail: 1}
	b := overlay.Addr{VNI: 5, IP: "10.5.6.1", Host: 6, Rail: 1} // pod 1
	_ = ovl.AttachEndpoint(a)
	_ = ovl.AttachEndpoint(b)
	n := New(eng, fab, ovl)
	paths := map[string]bool{}
	for i := 0; i < 100; i++ {
		res := n.Probe(a, b, uint64(i))
		key := ""
		for _, l := range res.UnderlayPath {
			key += string(l) + "|"
		}
		paths[key] = true
	}
	if len(paths) < 4 {
		t.Fatalf("ECMP spread = %d distinct paths, want ≥ 4", len(paths))
	}
	// Fixed entropy sticks to one path.
	p1 := n.Probe(a, b, 42).UnderlayPath
	p2 := n.Probe(a, b, 42).UnderlayPath
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("same entropy took different paths")
		}
	}
}

func TestTransientCongestionOnlyInflatesSome(t *testing.T) {
	n, a, b := world(t)
	n.TransientCongestionProb = 0.05
	spikes := 0
	for i := 0; i < 1000; i++ {
		res := n.Probe(a, b, uint64(i))
		if !res.Lost && res.RTT > 40*time.Microsecond {
			spikes++
		}
	}
	if spikes == 0 {
		t.Fatal("no transient spikes generated")
	}
	if spikes > 200 {
		t.Fatalf("too many spikes: %d/1000", spikes)
	}
}

func TestQueueLengthTracksTraffic(t *testing.T) {
	n, a, b := world(t)
	tor := n.Fabric.ToR(0, b.Rail)
	if q := n.QueueLength(tor); q != 0 {
		t.Fatalf("idle queue = %v", q)
	}
	for i := 0; i < 50; i++ {
		n.Probe(a, b, uint64(i))
	}
	busy := n.QueueLength(tor)
	if busy < 10 {
		t.Fatalf("busy queue = %v, want traffic-driven depth", busy)
	}
	// Decays back toward zero once traffic stops.
	n.Engine.RunUntil(n.Engine.Now() + 30*time.Second)
	if q := n.QueueLength(tor); q > 1 {
		t.Fatalf("queue did not drain: %v", q)
	}
}

func TestQueueBacklogOnlyForCongestionBackedConditions(t *testing.T) {
	n, a, b := world(t)
	tor := n.Fabric.ToR(0, b.Rail)
	// Software-style latency (no backlog): queue stays traffic-level —
	// the Fig. 18 exculpatory signal.
	n.SetNodeCondition(tor, &Condition{ExtraLatency: 50 * time.Microsecond})
	for i := 0; i < 20; i++ {
		n.Probe(a, b, uint64(i))
	}
	flat := n.QueueLength(tor)
	if flat > 100 {
		t.Fatalf("non-congestion latency built a queue: %v", flat)
	}
	// Congestion-backed latency: queue visibly builds.
	n.SetNodeCondition(tor, &Condition{ExtraLatency: 50 * time.Microsecond, QueueBacklog: true})
	if q := n.QueueLength(tor); q < 400 {
		t.Fatalf("congestion-backed queue = %v, want elevated", q)
	}
}

// TestRampedConditionGrowsLatencyAndQueue pins the gray-congestion
// shape: a ramped condition inflates RTT a little more each sample and
// drags a proportionally growing queue behind it — no step anywhere
// for a threshold detector to trip on.
func TestRampedConditionGrowsLatencyAndQueue(t *testing.T) {
	n, a, b := world(t)
	tor := n.Fabric.ToR(0, b.Rail)
	start := n.Engine.Now()
	n.SetNodeCondition(tor, &Condition{
		RampLatencyPerSec: 200 * time.Nanosecond,
		RampStart:         start,
		QueueBacklog:      true,
	})

	var rtts []time.Duration
	var queues []float64
	for i := 0; i < 5; i++ {
		n.Engine.RunUntil(n.Engine.Now() + 30*time.Second)
		res := n.Probe(a, b, uint64(i))
		if res.Lost {
			t.Fatalf("sample %d lost", i)
		}
		rtts = append(rtts, res.RTT)
		queues = append(queues, n.QueueLength(tor))
	}
	for i := 1; i < len(rtts); i++ {
		if rtts[i] <= rtts[i-1] {
			t.Fatalf("rtt not monotonically growing: %v", rtts)
		}
		if queues[i] <= queues[i-1] {
			t.Fatalf("queue not growing with the ramp: %v", queues)
		}
	}
	// 2 minutes in, the one-way ramp is 24 µs — both directions traverse
	// the ToR, so the RTT carries roughly double that over baseline.
	if base, last := rtts[0], rtts[len(rtts)-1]; last-base < 30*time.Microsecond {
		t.Fatalf("ramp barely moved the RTT: first %v last %v", base, last)
	}
	// The proportional backlog saturates at the buffer cap.
	n.Engine.RunUntil(n.Engine.Now() + 10*time.Minute)
	if q := n.QueueLength(tor); q < 499 || q > 501 {
		t.Fatalf("saturated queue = %v, want the 500-packet cap", q)
	}
}
