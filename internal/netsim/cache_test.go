package netsim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"skeletonhunter/internal/overlay"
	"skeletonhunter/internal/sim"
	"skeletonhunter/internal/topology"
)

// cacheWorld is a fabric with three tenants of four endpoints each —
// same-host, same-pod and cross-pod pairs in every VNI — and two
// two-endpoint tenants whose probes collide on the trace cache's slot
// key, the packed (host, rail) of source and destination. In the
// fourth VNI both endpoints share one (host, rail) with different IPs.
// In the fifth, the tenant lists one endpoint with a stale placement:
// its Addr names the other endpoint's host and rail. Only the cache's
// IP check keeps each of these probes from being served the other's
// trace.
func cacheWorld(t *testing.T) (*Net, [][]overlay.Addr) {
	t.Helper()
	fab, err := topology.New(topology.Spec{Pods: 2, HostsPerPod: 4, Rails: 4, AggPerPod: 2, Spines: 2})
	if err != nil {
		t.Fatal(err)
	}
	n := New(sim.NewEngine(1), fab, overlay.NewNetwork())
	placement := [][][2]int{ // per VNI: (host, rail) of each endpoint
		{{0, 0}, {0, 1}, {5, 0}, {3, 2}},
		{{0, 2}, {2, 2}, {6, 2}, {7, 3}},
		{{1, 1}, {5, 1}, {5, 3}, {0, 3}},
		{{2, 1}, {2, 1}},
		{{4, 0}, {6, 1}},
	}
	tenants := make([][]overlay.Addr, len(placement))
	for i, eps := range placement {
		vni := overlay.VNI(i + 1)
		for j, hr := range eps {
			a := overlay.Addr{VNI: vni, IP: fmt.Sprintf("10.%d.%d.%d", vni, j, 10*hr[0]+hr[1]), Host: hr[0], Rail: hr[1]}
			if err := n.Overlay.AttachEndpoint(a); err != nil {
				t.Fatal(err)
			}
			tenants[i] = append(tenants[i], a)
		}
	}
	stale := &tenants[4][0]
	stale.Host, stale.Rail = tenants[4][1].Host, tenants[4][1].Rail
	return n, tenants
}

// TestTraceCacheDifferential is the oracle for the trace cache's
// invalidation: it interleaves every overlay mutator across three VNIs
// and, after each step, probes every ordered pair of every tenant —
// detached endpoints included — through one long-lived ProbeCtx and
// through a fresh one. A generation bump missing from any mutator
// leaves the long-lived ctx serving a stale trace, and the two
// disagree.
func TestTraceCacheDifferential(t *testing.T) {
	n, tenants := cacheWorld(t)
	ovl := n.Overlay
	rng := rand.New(rand.NewSource(1))
	attached := map[overlay.Addr]bool{}
	for _, eps := range tenants {
		for _, a := range eps {
			attached[a] = true
		}
	}
	tenant := func() []overlay.Addr { return tenants[rng.Intn(len(tenants))] }
	anyEp := func() overlay.Addr { eps := tenant(); return eps[rng.Intn(len(eps))] }
	host := func() int { return rng.Intn(n.Fabric.Hosts()) }

	long := n.NewProbeCtx()
	var probes uint64
	check := func(step int, op string) {
		t.Helper()
		var got, want Result
		for _, eps := range tenants {
			for _, src := range eps {
				for _, dst := range eps {
					if src == dst {
						continue
					}
					entropy := uint64(step)
					n.ProbeIntoCtx(long, &got, src, dst, entropy)
					n.ProbeIntoCtx(n.NewProbeCtx(), &want, src, dst, entropy)
					probes++
					if got.Lost != want.Lost || got.RTT != want.RTT || !slices.Equal(got.UnderlayPath, want.UnderlayPath) {
						t.Fatalf("step %d (%s): %s→%s through the long-lived ctx = {lost %v rtt %v path %v}, fresh ctx = {lost %v rtt %v path %v}",
							step, op, src.IP, dst.IP, got.Lost, got.RTT, got.UnderlayPath, want.Lost, want.RTT, want.UnderlayPath)
					}
				}
			}
		}
	}

	ops := []struct {
		name string
		do   func()
	}{
		{"attach", func() {
			for _, a := range tenant() {
				if !attached[a] {
					_ = ovl.AttachEndpoint(a)
					attached[a] = true
					return
				}
			}
		}},
		{"detach", func() {
			a := anyEp()
			ovl.DetachEndpoint(a)
			attached[a] = false
		}},
		{"SetOffloaded", func() {
			a, b := anyEp(), anyEp()
			ovl.SetOffloaded(a.Host, a.VNI, b.IP, rng.Intn(2) == 0)
		}},
		{"InvalidateOffload", func() {
			a, b := anyEp(), anyEp()
			ovl.InvalidateOffload(a.Host, a.VNI, b.IP)
		}},
		{"RestoreOffload", func() {
			// Restore what a dump finds stale, the way the remedy does.
			a := anyEp()
			if stale := ovl.DumpOffload(a.Host, a.Rail).Inconsistent; len(stale) > 0 {
				k := stale[rng.Intn(len(stale))]
				ovl.RestoreOffload(a.Host, k.VNI, k.Dst)
			}
		}},
		{"CorruptEntry", func() {
			a, b := anyEp(), anyEp()
			actions := []overlay.FlowAction{
				{Type: overlay.ActionDrop},
				{Type: overlay.ActionLocal, Rail: rng.Intn(4)},
				{Type: overlay.ActionTunnel, RemoteHost: host(), Rail: rng.Intn(4)},
			}
			ovl.CorruptEntry(a.Host, a.VNI, b.IP, actions[rng.Intn(len(actions))])
		}},
		{"RemoveEntry", func() {
			a, b := anyEp(), anyEp()
			ovl.RemoveEntry(a.Host, a.VNI, b.IP)
		}},
		{"VSwitch handout", func() {
			// The fault injector's path: edit entries through the handle.
			vsw := ovl.VSwitch(anyEp().Host)
			if keys := vsw.Keys(); len(keys) > 0 {
				e, _ := vsw.Lookup(keys[rng.Intn(len(keys))])
				e.OffloadStale = !e.OffloadStale
			}
		}},
		{"DeOffloadAll", func() { ovl.DeOffloadAll(anyEp().Host) }},
		{"ReOffloadAll", func() { ovl.ReOffloadAll(anyEp().Host) }},
	}

	for step := 0; step < 400; step++ {
		op := ops[rng.Intn(len(ops))]
		op.do()
		check(step, op.name)
		if step%40 == 39 {
			// Retire a tenant, then bring it back on the same IPs: the
			// new incarnation must not be served the old one's traces.
			eps := tenant()
			for _, a := range eps {
				ovl.DetachEndpoint(a)
				attached[a] = false
			}
			check(step, "retire")
			for _, a := range eps {
				_ = ovl.AttachEndpoint(a)
				attached[a] = true
			}
			check(step, "re-create")
		}
	}
	if misses := long.TakeMisses(); misses == 0 || misses*2 > probes {
		t.Fatalf("long-lived ctx missed %d of %d probes; the oracle needs a cache that mostly hits", misses, probes)
	}
}

// TestTraceCacheAcrossFleetWideMove probes one VNI on both sides of a
// fleet-wide generation move: a VSwitch handout that rewrites one of the
// VNI's entries moves Gen, not the VNI's VNIGen, so only the fleet-wide
// check stands between a ctx that just served this VNI and a stale
// trace. Each step drops one of the VNI's flows through the handout,
// re-probes it, restores it the same way and re-probes again, through
// one long-lived ctx and through a fresh one; the pair must change
// outcome with each edit, and the two ctxs must agree.
func TestTraceCacheAcrossFleetWideMove(t *testing.T) {
	n, tenants := cacheWorld(t)
	eps := tenants[0]
	long := n.NewProbeCtx()
	var got, want Result
	probe := func(step int, op string, src, dst overlay.Addr) bool {
		t.Helper()
		n.ProbeIntoCtx(long, &got, src, dst, uint64(step))
		n.ProbeIntoCtx(n.NewProbeCtx(), &want, src, dst, uint64(step))
		if got.Lost != want.Lost || got.RTT != want.RTT || !slices.Equal(got.UnderlayPath, want.UnderlayPath) {
			t.Fatalf("step %d (%s): %s→%s through the long-lived ctx = {lost %v rtt %v path %v}, fresh ctx = {lost %v rtt %v path %v}",
				step, op, src.IP, dst.IP, got.Lost, got.RTT, got.UnderlayPath, want.Lost, want.RTT, want.UnderlayPath)
		}
		return got.Lost
	}
	step := 0
	for _, src := range eps {
		for _, dst := range eps {
			if src == dst {
				continue
			}
			// The fault injector's path: edit the entry through a handout.
			key := overlay.FlowKey{VNI: src.VNI, Dst: dst.IP}
			setAction := func(a overlay.FlowAction) overlay.FlowAction {
				e, ok := n.Overlay.VSwitch(src.Host).Lookup(key)
				if !ok {
					t.Fatalf("no flow entry for %s→%s", src.IP, dst.IP)
				}
				old := e.Action
				e.Action = a
				return old
			}
			if probe(step, "before", src, dst) {
				t.Fatalf("step %d: %s→%s lost before any edit", step, src.IP, dst.IP)
			}
			saved := setAction(overlay.FlowAction{Type: overlay.ActionDrop})
			if !probe(step, "dropped through the handout", src, dst) {
				t.Fatalf("step %d: %s→%s still delivered after its entry became a drop", step, src.IP, dst.IP)
			}
			setAction(saved)
			if probe(step, "restored through the handout", src, dst) {
				t.Fatalf("step %d: %s→%s still lost after its entry was restored", step, src.IP, dst.IP)
			}
			step++
		}
	}
}

// TestTraceCacheScopedToVNI: a mutation in one VNI costs no other VNI a
// miss, and a quiet repeat costs none at all.
func TestTraceCacheScopedToVNI(t *testing.T) {
	n, tenants := cacheWorld(t)
	ctx := n.NewProbeCtx()
	var res Result
	probeAll := func(eps []overlay.Addr) uint64 {
		for _, src := range eps {
			for _, dst := range eps {
				if src != dst {
					n.ProbeIntoCtx(ctx, &res, src, dst, 0)
				}
			}
		}
		return ctx.TakeMisses()
	}
	a, b := tenants[0], tenants[1]
	const pairs = 4 * 3
	if got := probeAll(a) + probeAll(b); got != 2*pairs {
		t.Fatalf("cold probes missed %d times, want %d", got, 2*pairs)
	}
	if got := probeAll(a) + probeAll(b); got != 0 {
		t.Fatalf("quiet repeat missed %d times, want 0", got)
	}

	n.Overlay.InvalidateOffload(a[0].Host, a[0].VNI, a[2].IP)
	if got := probeAll(b); got != 0 {
		t.Fatalf("a mutation in VNI %d cost VNI %d %d misses", a[0].VNI, b[0].VNI, got)
	}
	if got := probeAll(a); got != pairs {
		t.Fatalf("the mutated VNI missed %d times, want %d", got, pairs)
	}
}

// TestTraceCacheKeyCollisions probes flows that share a slot key —
// endpoints on one (host, rail), and a source whose out-of-range rail
// packs to another host's ordinal — through one long-lived ctx and
// through a fresh one. Each flow differs from the one before it in
// exactly one of the fields a hit checks (source IP, destination IP or
// source host), so dropping any one check serves a flow another's
// trace and the two ctxs disagree.
func TestTraceCacheKeyCollisions(t *testing.T) {
	n, tenants := cacheWorld(t)
	p, q := tenants[3][0], tenants[3][1] // both on (2, 1)
	x := overlay.Addr{VNI: p.VNI, IP: "10.4.9.9", Host: 5, Rail: 2}
	if err := n.Overlay.AttachEndpoint(x); err != nil {
		t.Fatal(err)
	}
	alias := p // p's IP on host 1: rail 5 of 4 packs to p's ordinal
	alias.Host, alias.Rail = p.Host-1, p.Rail+n.Fabric.Spec.Rails
	if c := n.NewProbeCtx(); c.nicOrd(alias) != c.nicOrd(p) {
		t.Fatal("alias does not share p's slot key")
	}
	flows := [][2]overlay.Addr{
		{x, p}, {x, q}, // destination IPs differ
		{alias, x}, {p, x}, // source hosts differ
		{q, x}, // source IPs differ
	}
	long := n.NewProbeCtx()
	var got, want Result
	for round := 0; round < 3; round++ {
		for i, f := range flows {
			entropy := uint64(round*len(flows) + i)
			n.ProbeIntoCtx(long, &got, f[0], f[1], entropy)
			n.ProbeIntoCtx(n.NewProbeCtx(), &want, f[0], f[1], entropy)
			if got.Lost != want.Lost || got.RTT != want.RTT || !slices.Equal(got.UnderlayPath, want.UnderlayPath) {
				t.Fatalf("round %d: %+v→%+v through the long-lived ctx = {lost %v rtt %v path %v}, fresh ctx = {lost %v rtt %v path %v}",
					round, f[0], f[1], got.Lost, got.RTT, got.UnderlayPath, want.Lost, want.RTT, want.UnderlayPath)
			}
		}
	}
	if misses, want := long.TakeMisses(), uint64(3*len(flows)); misses != want {
		t.Fatalf("colliding flows missed %d times, want %d (every probe re-traces its slot)", misses, want)
	}
}

// TestTraceMissAllocatesNothing: once a ctx has filled its tables, a
// generation bump makes every pair of the VNI miss again, and the
// refill — the re-trace, its legs and its hashes — reuses the table's
// arenas and the ctx's chain scratch, so it allocates nothing. So do
// the re-traces of colliding flows into an occupied slot.
func TestTraceMissAllocatesNothing(t *testing.T) {
	n, tenants := cacheWorld(t)
	ctx := n.NewProbeCtx()
	var res Result
	probeAll := func() {
		for _, eps := range tenants {
			for _, src := range eps {
				for _, dst := range eps {
					if src != dst {
						n.ProbeIntoCtx(ctx, &res, src, dst, 0)
					}
				}
			}
		}
	}
	probeAll()
	ctx.TakeMisses()

	gone := tenants[0][3]
	runs := uint64(0)
	allocs := testing.AllocsPerRun(20, func() {
		// A detach moves the VNI's generation, whether or not the
		// endpoint is still attached, and allocates nothing itself.
		n.Overlay.DetachEndpoint(gone)
		probeAll()
		runs++
	})
	if allocs != 0 {
		t.Fatalf("re-probing after a generation bump allocated %v times per run, want 0", allocs)
	}
	// Per run: every pair of the bumped VNI, plus the two thrashing
	// pairs of each two-endpoint tenant.
	if misses, want := ctx.TakeMisses(), runs*(4*3+2+2); misses != want {
		t.Fatalf("%d runs missed %d times, want %d", runs, misses, want)
	}
}

// TestRetiredTenantFreesItsTable: when a VNI's last endpoint detaches,
// the next probe through a ctx frees that VNI's table — its entries and
// arenas — so a ctx's memory does not grow with the number of tenants
// that ever lived. (The fleet-wide generation move that retirement makes
// drops the live VNIs' tables too; they refill as they probe.)
func TestRetiredTenantFreesItsTable(t *testing.T) {
	n, tenants := cacheWorld(t)
	ctx := n.NewProbeCtx()
	var res Result
	probeAll := func(eps []overlay.Addr) {
		for _, src := range eps {
			for _, dst := range eps {
				if src != dst {
					n.ProbeIntoCtx(ctx, &res, src, dst, 0)
				}
			}
		}
	}
	for _, eps := range tenants {
		probeAll(eps)
	}
	if len(ctx.traces) != len(tenants) {
		t.Fatalf("ctx holds %d tables after probing %d tenants", len(ctx.traces), len(tenants))
	}
	retired, live := tenants[0], tenants[1]
	for _, ep := range retired {
		n.Overlay.DetachEndpoint(ep)
	}
	probeAll(live)
	if vt, ok := ctx.traces[retired[0].VNI]; ok {
		t.Fatalf("retired VNI %d still holds a table of %d entries and %d legs", retired[0].VNI, len(vt.entries), len(vt.legs))
	}
	if vt := ctx.traces[live[0].VNI]; len(ctx.traces) != 1 || vt == nil || len(vt.entries) != 4*3 {
		t.Fatalf("ctx holds %d tables after the retirement, want only the probed live VNI's with its %d entries", len(ctx.traces), 4*3)
	}
}
