package netsim

import (
	"fmt"
	"testing"

	"skeletonhunter/internal/overlay"
	"skeletonhunter/internal/sim"
	"skeletonhunter/internal/topology"
)

// BenchmarkProbeUnderChurn probes every pair of a steady tenant B
// through one long-lived ProbeCtx while tenant A, in another VNI,
// attaches one endpoint per iteration (and retires its oldest, so A
// stays eight endpoints wide). A's churn should cost B's trace cache
// nothing: misses/op counts the traces B had to resolve again.
func BenchmarkProbeUnderChurn(b *testing.B) {
	fab, err := topology.New(topology.Spec{Pods: 2, HostsPerPod: 8, Rails: 8, AggPerPod: 2, Spines: 2})
	if err != nil {
		b.Fatal(err)
	}
	n := New(sim.NewEngine(1), fab, overlay.NewNetwork())
	ep := func(vni overlay.VNI, i int) overlay.Addr {
		host, rail := i%fab.Hosts(), i/fab.Hosts()%8
		return overlay.Addr{VNI: vni, IP: fmt.Sprintf("10.%d.%d.%d", vni, i/256, i%256), Host: host, Rail: rail}
	}
	const width = 8
	var tenantB []overlay.Addr
	for i := 0; i < width; i++ {
		for _, a := range []overlay.Addr{ep(1, i), ep(2, 3*i+1)} {
			if err := n.Overlay.AttachEndpoint(a); err != nil {
				b.Fatal(err)
			}
		}
		tenantB = append(tenantB, ep(2, 3*i+1))
	}
	ctx := n.NewProbeCtx()
	var res Result
	probeB := func(entropy uint64) {
		for _, src := range tenantB {
			for _, dst := range tenantB {
				if src != dst {
					n.ProbeIntoCtx(ctx, &res, src, dst, entropy)
				}
			}
		}
	}
	probeB(0) // warm the cache: misses/op counts only churn-induced refills
	ctx.TakeMisses()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Overlay.DetachEndpoint(ep(1, i))
		if err := n.Overlay.AttachEndpoint(ep(1, i+width)); err != nil {
			b.Fatal(err)
		}
		probeB(uint64(i))
	}
	b.ReportMetric(float64(ctx.TakeMisses())/float64(b.N), "misses/op")
}

// BenchmarkProbeHit is the probe hot path on a warm trace cache: one
// tenant of eight endpoints over both pods, every pair traced before
// the timer starts, then one probe per op cycling through the pairs.
// Every probe hits (the benchmark fails on a miss); allocs/op should
// stay 0.
func BenchmarkProbeHit(b *testing.B) {
	fab, err := topology.New(topology.Spec{Pods: 2, HostsPerPod: 8, Rails: 8, AggPerPod: 2, Spines: 2})
	if err != nil {
		b.Fatal(err)
	}
	n := New(sim.NewEngine(1), fab, overlay.NewNetwork())
	var eps []overlay.Addr
	for i := 0; i < 8; i++ {
		a := overlay.Addr{VNI: 1, IP: fmt.Sprintf("10.1.0.%d", i), Host: 2 * i, Rail: i % 4}
		if err := n.Overlay.AttachEndpoint(a); err != nil {
			b.Fatal(err)
		}
		eps = append(eps, a)
	}
	var pairs [][2]overlay.Addr
	for _, src := range eps {
		for _, dst := range eps {
			if src != dst {
				pairs = append(pairs, [2]overlay.Addr{src, dst})
			}
		}
	}
	ctx := n.NewProbeCtx()
	var res Result
	for _, p := range pairs {
		n.ProbeIntoCtx(ctx, &res, p[0], p[1], 0)
	}
	ctx.TakeMisses()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &pairs[i%len(pairs)]
		n.ProbeIntoCtx(ctx, &res, p[0], p[1], uint64(i))
	}
	b.StopTimer()
	if m := ctx.TakeMisses(); m != 0 {
		b.Fatalf("%d of %d probes missed a warm cache", m, b.N)
	}
}
