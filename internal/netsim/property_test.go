package netsim

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"skeletonhunter/internal/overlay"
	"skeletonhunter/internal/sim"
	"skeletonhunter/internal/topology"
)

// propWorld builds a 2-pod fabric with one endpoint per host on a
// chosen rail.
func propWorld() (*Net, []overlay.Addr) {
	eng := sim.NewEngine(31)
	fab, _ := topology.New(topology.Spec{Pods: 2, HostsPerPod: 4, Rails: 4, AggPerPod: 2, Spines: 2})
	ovl := overlay.NewNetwork()
	var eps []overlay.Addr
	for h := 0; h < fab.Hosts(); h++ {
		a := overlay.Addr{VNI: 9, IP: fmt.Sprintf("10.9.%d.1", h), Host: h, Rail: 1}
		if err := ovl.AttachEndpoint(a); err != nil {
			panic(err)
		}
		eps = append(eps, a)
	}
	return New(eng, fab, ovl), eps
}

// TestProbePathValidity: every probe's recorded underlay path consists
// of real fabric links forming a contiguous chain between the two
// endpoints' NICs.
func TestProbePathValidity(t *testing.T) {
	net, eps := propWorld()
	f := func(si, di uint8, entropy uint64) bool {
		src := eps[int(si)%len(eps)]
		dst := eps[int(di)%len(eps)]
		if src.Host == dst.Host {
			return true
		}
		res := net.Probe(src, dst, entropy)
		if len(res.UnderlayPath) == 0 {
			return false
		}
		for _, l := range res.UnderlayPath {
			if _, ok := net.Fabric.LinkIndex(l); !ok {
				return false
			}
		}
		// Node chain consistency: consecutive nodes joined by the
		// recorded links.
		for i := 0; i+1 < len(res.UnderlayNodes); i++ {
			want := topology.MakeLinkID(res.UnderlayNodes[i], res.UnderlayNodes[i+1])
			if res.UnderlayPath[i] != want {
				return false
			}
		}
		first := res.UnderlayNodes[0]
		last := res.UnderlayNodes[len(res.UnderlayNodes)-1]
		return first == (topology.NIC{Host: src.Host, Rail: src.Rail}).ID() &&
			last == (topology.NIC{Host: dst.Host, Rail: dst.Rail}).ID()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestProbePathDeterminism: a probe's routing (not its noise) is a
// pure function of (src, dst, entropy) — the property ECMP-aware
// tomography depends on.
func TestProbePathDeterminism(t *testing.T) {
	net, eps := propWorld()
	f := func(si, di uint8, entropy uint64) bool {
		src := eps[int(si)%len(eps)]
		dst := eps[int(di)%len(eps)]
		if src.Host == dst.Host {
			return true
		}
		p1 := net.Probe(src, dst, entropy).UnderlayPath
		p2 := net.Probe(src, dst, entropy).UnderlayPath
		if len(p1) != len(p2) {
			return false
		}
		for i := range p1 {
			if p1[i] != p2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestHealthyRTTBounds: without conditions, every probe lands in the
// healthy RoCE band (§1 expects < 20 µs same-pod; cross-pod adds hops
// but stays far below failure-grade latency).
func TestHealthyRTTBounds(t *testing.T) {
	net, eps := propWorld()
	f := func(si, di uint8, entropy uint64) bool {
		src := eps[int(si)%len(eps)]
		dst := eps[int(di)%len(eps)]
		if src.Host == dst.Host {
			return true
		}
		res := net.Probe(src, dst, entropy)
		if res.Lost {
			return false
		}
		return res.RTT > 5*time.Microsecond && res.RTT < 50*time.Microsecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestConditionClearRestoresBaseline: installing then clearing any
// single condition returns the probe outcome distribution to healthy.
func TestConditionClearRestoresBaseline(t *testing.T) {
	net, eps := propWorld()
	src, dst := eps[0], eps[3]
	f := func(kind uint8, down bool) bool {
		var clear func()
		switch kind % 3 {
		case 0:
			nic := topology.NIC{Host: dst.Host, Rail: dst.Rail}
			link := topology.MakeLinkID(nic.ID(), net.Fabric.ToR(0, dst.Rail))
			net.SetLinkCondition(link, &Condition{Down: down, ExtraLatency: 40 * time.Microsecond})
			clear = func() { net.SetLinkCondition(link, nil) }
		case 1:
			tor := net.Fabric.ToR(0, dst.Rail)
			net.SetNodeCondition(tor, &Condition{Down: down, ExtraLatency: 40 * time.Microsecond})
			clear = func() { net.SetNodeCondition(tor, nil) }
		default:
			net.SetHostCondition(dst.Host, &Condition{Down: down, ExtraLatency: 40 * time.Microsecond})
			clear = func() { net.SetHostCondition(dst.Host, nil) }
		}
		faulty := net.Probe(src, dst, 1)
		if down && !faulty.Lost {
			clear()
			return false
		}
		if !down && !faulty.Lost && faulty.RTT < 60*time.Microsecond {
			clear()
			return false
		}
		clear()
		healthy := net.Probe(src, dst, 1)
		return !healthy.Lost && healthy.RTT < 50*time.Microsecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
