// Package topology models the rail-optimized data-center fabric that
// containerized large-model training runs on (§3.2, Fig. 10).
//
// Hosts carry one RNIC per rail; RNIC r of every host in a pod connects
// to that pod's rail-r top-of-rack (ToR) switch. ToRs uplink to a pod's
// aggregation switches, which uplink to the spine tier; equal-cost
// multi-path (ECMP) routing spreads flows over the aggregation and
// spine choices. Collective-communication libraries keep training
// traffic in-rail (cross-rail transfers become NVLink + in-rail hops),
// which is the property SkeletonHunter's basic ping-list pruning
// exploits (§5.1).
//
// The package is purely structural: component identity, connectivity,
// and ECMP path enumeration. Dynamic state (faults, latency, loss)
// lives in internal/netsim.
//
// Scale engineering: a production fabric has tens of thousands of NICs
// and links, and the cross-pod ECMP set between one NIC pair alone is
// AggPerPod² × Spines paths. Node and link IDs are therefore interned
// once at construction (every ToR/Agg/Spine/NIC/Link accessor returns
// the same string header, no formatting), each link carries a dense
// integer ordinal for slice-backed vote tables, and PathViewByHash
// picks a flow's ECMP path into a fixed-size PathView without
// materializing a Path slice. Paths remains as the materializing
// enumeration of the whole set.
package topology

import (
	"errors"
	"fmt"
	"strings"
)

// NodeKind discriminates fabric nodes.
type NodeKind int

const (
	KindNIC NodeKind = iota
	KindToR
	KindAgg
	KindSpine
)

func (k NodeKind) String() string {
	switch k {
	case KindNIC:
		return "nic"
	case KindToR:
		return "tor"
	case KindAgg:
		return "agg"
	case KindSpine:
		return "spine"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// NodeID names a fabric node, e.g. "nic/h12/r3", "tor/p0/r3",
// "agg/p0/a1", "spine/s2". String IDs keep diagnostics and tomography
// vote tables human-readable, which matters when an operator inspects
// a localization verdict.
type NodeID string

// LinkID names an undirected physical link as "<a>--<b>" with a < b.
type LinkID string

// MakeLinkID builds the canonical LinkID for a node pair.
func MakeLinkID(a, b NodeID) LinkID {
	if b < a {
		a, b = b, a
	}
	return LinkID(string(a) + "--" + string(b))
}

// NIC identifies one RNIC: a (host, rail) pair. NICs are the probing
// endpoints' physical attachment points.
type NIC struct {
	Host int // global host index
	Rail int
}

// ID returns the fabric node ID of the NIC. Fabric-aware callers
// should prefer Fabric.NICID, which returns the interned string.
func (n NIC) ID() NodeID { return NodeID(fmt.Sprintf("nic/h%d/r%d", n.Host, n.Rail)) }

// Spec parameterizes a fabric.
type Spec struct {
	Pods        int // pods (a.k.a. segments); ≥ 1
	HostsPerPod int // hosts per pod; ≥ 1
	Rails       int // RNICs per host = rails per pod; ≥ 1 (production: 8)
	AggPerPod   int // aggregation switches per pod; ≥ 1
	Spines      int // spine switches shared by all pods; ≥ 1 (unused if Pods == 1)
}

// Production returns the spec used throughout the evaluation harness: a
// scaled-down but structurally faithful version of the paper's cluster
// (8 rails per host, multiple pods, ECMP fan-out at agg and spine).
func Production(hosts int) Spec {
	pods := (hosts + 31) / 32
	if pods < 1 {
		pods = 1
	}
	return Spec{Pods: pods, HostsPerPod: (hosts + pods - 1) / pods, Rails: 8, AggPerPod: 4, Spines: 8}
}

// Validate reports whether the spec is usable.
func (s Spec) Validate() error {
	if s.Pods < 1 || s.HostsPerPod < 1 || s.Rails < 1 || s.AggPerPod < 1 {
		return errors.New("topology: all spec fields must be ≥ 1")
	}
	if s.Pods > 1 && s.Spines < 1 {
		return errors.New("topology: multi-pod fabric requires spines")
	}
	return nil
}

// Fabric is an instantiated topology. All ID tables are built once in
// New and immutable afterwards, so a Fabric may be shared freely across
// goroutines.
type Fabric struct {
	Spec  Spec
	hosts int

	// Interned node IDs: every accessor returns the same string header.
	nicIDs   []NodeID // host*Rails + rail
	torIDs   []NodeID // pod*Rails + rail
	aggIDs   []NodeID // pod*AggPerPod + a
	spineIDs []NodeID // s

	// Interned link IDs, by construction role, each with a parallel
	// dense-ordinal table so path assembly never hits the ordOf map.
	nicTorLinks   []LinkID // host*Rails + rail
	torAggLinks   []LinkID // (pod*Rails + rail)*AggPerPod + a
	aggSpineLinks []LinkID // (pod*AggPerPod + a)*Spines + s
	nicTorOrds    []int32
	torAggOrds    []int32
	aggSpineOrds  []int32

	// Dense link ordinals: ordOf[id] == i ⇔ ordLinks[i] == id. Ordinals
	// are assigned in deterministic construction order, so slice-backed
	// vote tables iterate identically across runs.
	ordOf    map[LinkID]int32
	ordLinks []LinkID

	// Dense node ordinals, in construction order: NICs (host*Rails+rail),
	// then ToRs, aggs, spines. The layout is arithmetic — path assembly
	// derives a node's ordinal from its coordinates without touching
	// nodeOrdOf — so concurrent probe workers can key per-node state
	// (conditions, queue estimates) by plain slice index instead of
	// hashing interned strings.
	nodeOrdOf map[NodeID]int32
	torOrd0   int32 // first ToR ordinal (== hosts*Rails)
	aggOrd0   int32 // first agg ordinal
	spineOrd0 int32 // first spine ordinal
}

// New builds the fabric for a spec, interning every node and link ID.
func New(spec Spec) (*Fabric, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	hosts := spec.Pods * spec.HostsPerPod
	f := &Fabric{
		Spec:  spec,
		hosts: hosts,
		ordOf: make(map[LinkID]int32),
	}

	// Node ID tables.
	f.nicIDs = make([]NodeID, hosts*spec.Rails)
	for h := 0; h < hosts; h++ {
		for r := 0; r < spec.Rails; r++ {
			f.nicIDs[h*spec.Rails+r] = NIC{Host: h, Rail: r}.ID()
		}
	}
	f.torIDs = make([]NodeID, spec.Pods*spec.Rails)
	for p := 0; p < spec.Pods; p++ {
		for r := 0; r < spec.Rails; r++ {
			f.torIDs[p*spec.Rails+r] = NodeID(fmt.Sprintf("tor/p%d/r%d", p, r))
		}
	}
	f.aggIDs = make([]NodeID, spec.Pods*spec.AggPerPod)
	for p := 0; p < spec.Pods; p++ {
		for a := 0; a < spec.AggPerPod; a++ {
			f.aggIDs[p*spec.AggPerPod+a] = NodeID(fmt.Sprintf("agg/p%d/a%d", p, a))
		}
	}
	f.spineIDs = make([]NodeID, spec.Spines)
	for s := 0; s < spec.Spines; s++ {
		f.spineIDs[s] = NodeID(fmt.Sprintf("spine/s%d", s))
	}

	// Node ordinals: number the node ID tables in construction order
	// and remember the section offsets, so ordinals are computable
	// arithmetically from coordinates.
	f.torOrd0 = int32(len(f.nicIDs))
	f.aggOrd0 = f.torOrd0 + int32(len(f.torIDs))
	f.spineOrd0 = f.aggOrd0 + int32(len(f.aggIDs))
	f.nodeOrdOf = make(map[NodeID]int32, int(f.spineOrd0)+len(f.spineIDs))
	for _, table := range [][]NodeID{f.nicIDs, f.torIDs, f.aggIDs, f.spineIDs} {
		for _, n := range table {
			f.nodeOrdOf[n] = int32(len(f.nodeOrdOf))
		}
	}

	// Link tables, registering each link's canonical ID and dense
	// ordinal in one deterministic construction order.
	addLink := func(a, b NodeID) (LinkID, int32) {
		id := MakeLinkID(a, b)
		ord := int32(len(f.ordLinks))
		f.ordOf[id] = ord
		f.ordLinks = append(f.ordLinks, id)
		return id, ord
	}
	f.nicTorLinks = make([]LinkID, hosts*spec.Rails)
	f.nicTorOrds = make([]int32, hosts*spec.Rails)
	f.torAggLinks = make([]LinkID, spec.Pods*spec.Rails*spec.AggPerPod)
	f.torAggOrds = make([]int32, spec.Pods*spec.Rails*spec.AggPerPod)
	if spec.Pods > 1 {
		f.aggSpineLinks = make([]LinkID, spec.Pods*spec.AggPerPod*spec.Spines)
		f.aggSpineOrds = make([]int32, spec.Pods*spec.AggPerPod*spec.Spines)
	}
	for p := 0; p < spec.Pods; p++ {
		for h := 0; h < spec.HostsPerPod; h++ {
			host := p*spec.HostsPerPod + h
			for r := 0; r < spec.Rails; r++ {
				i := host*spec.Rails + r
				f.nicTorLinks[i], f.nicTorOrds[i] = addLink(f.NICID(host, r), f.ToR(p, r))
			}
		}
		for r := 0; r < spec.Rails; r++ {
			for a := 0; a < spec.AggPerPod; a++ {
				i := (p*spec.Rails+r)*spec.AggPerPod + a
				f.torAggLinks[i], f.torAggOrds[i] = addLink(f.ToR(p, r), f.Agg(p, a))
			}
		}
		if spec.Pods > 1 {
			for a := 0; a < spec.AggPerPod; a++ {
				for s := 0; s < spec.Spines; s++ {
					i := (p*spec.AggPerPod+a)*spec.Spines + s
					f.aggSpineLinks[i], f.aggSpineOrds[i] = addLink(f.Agg(p, a), f.Spine(s))
				}
			}
		}
	}
	return f, nil
}

// Hosts returns the number of hosts in the fabric.
func (f *Fabric) Hosts() int { return f.hosts }

// PodOf returns the pod index of a host.
func (f *Fabric) PodOf(host int) int { return host / f.Spec.HostsPerPod }

// NICID returns the interned node ID of a host's rail-r RNIC.
func (f *Fabric) NICID(host, rail int) NodeID {
	if host >= 0 && host < f.hosts && rail >= 0 && rail < f.Spec.Rails {
		return f.nicIDs[host*f.Spec.Rails+rail]
	}
	return NIC{Host: host, Rail: rail}.ID()
}

// ToR returns the node ID of pod p's rail-r ToR switch.
func (f *Fabric) ToR(p, r int) NodeID {
	if p >= 0 && p < f.Spec.Pods && r >= 0 && r < f.Spec.Rails {
		return f.torIDs[p*f.Spec.Rails+r]
	}
	return NodeID(fmt.Sprintf("tor/p%d/r%d", p, r))
}

// Agg returns the node ID of pod p's a-th aggregation switch.
func (f *Fabric) Agg(p, a int) NodeID {
	if p >= 0 && p < f.Spec.Pods && a >= 0 && a < f.Spec.AggPerPod {
		return f.aggIDs[p*f.Spec.AggPerPod+a]
	}
	return NodeID(fmt.Sprintf("agg/p%d/a%d", p, a))
}

// Spine returns the node ID of spine switch s.
func (f *Fabric) Spine(s int) NodeID {
	if s >= 0 && s < f.Spec.Spines {
		return f.spineIDs[s]
	}
	return NodeID(fmt.Sprintf("spine/s%d", s))
}

// NumLinks returns the number of physical links.
func (f *Fabric) NumLinks() int { return len(f.ordLinks) }

// LinkIndex returns the dense ordinal of a link (stable for the
// fabric's lifetime, assigned in deterministic construction order), and
// whether the link exists. Ordinals let hot paths replace string-keyed
// maps with int keys or plain slices.
func (f *Fabric) LinkIndex(l LinkID) (int32, bool) {
	ord, ok := f.ordOf[l]
	return ord, ok
}

// LinkByIndex returns the link with the given ordinal.
func (f *Fabric) LinkByIndex(ord int32) LinkID { return f.ordLinks[ord] }

// LinksAt returns the ordinals of the links incident to a node, in
// ascending order; an unknown node has none.
func (f *Fabric) LinksAt(n NodeID) []int32 {
	head, tail := string(n)+"--", "--"+string(n)
	var out []int32
	for ord, l := range f.ordLinks {
		if strings.HasPrefix(string(l), head) || strings.HasSuffix(string(l), tail) {
			out = append(out, int32(ord))
		}
	}
	return out
}

// NumNodes returns the number of fabric nodes (NICs plus switches).
func (f *Fabric) NumNodes() int { return len(f.nodeOrdOf) }

// NodeIndex returns the dense ordinal of a node (NICs first, then ToR,
// agg and spine switches, in construction order), and whether the node
// exists. Like link ordinals, node ordinals let hot paths key per-node
// state (conditions, queue estimates) by slice index.
func (f *Fabric) NodeIndex(n NodeID) (int32, bool) {
	ord, ok := f.nodeOrdOf[n]
	return ord, ok
}

// Path is one loop-free physical route between two NICs: the ordered
// node sequence and the links between consecutive nodes.
type Path struct {
	Nodes []NodeID
	Links []LinkID
}

// MaxPathNodes is the longest possible route: cross-pod paths traverse
// NIC, ToR, Agg, Spine, Agg, ToR, NIC.
const MaxPathNodes = 7

// PathView is an allocation-free view of one ECMP path: fixed-size
// arrays sized for the longest route, filled in place by
// PathViewByHash. A view is only valid until it is refilled; callers
// that keep a path materialize it with Materialize (or append its
// LinkOrdinals into their own storage).
type PathView struct {
	nodes [MaxPathNodes]NodeID
	nords [MaxPathNodes]int32
	links [MaxPathNodes - 1]LinkID
	ords  [MaxPathNodes - 1]int32
	n     int // node count; links/ords/nords hold n-1 / n entries
}

// Len returns the number of nodes on the path.
func (v *PathView) Len() int { return v.n }

// NumLinks returns the number of links on the path.
func (v *PathView) NumLinks() int { return v.n - 1 }

// LinkOrdinal returns the dense fabric ordinal of the i-th link.
func (v *PathView) LinkOrdinal(i int) int32 { return v.ords[i] }

// NodeOrdinal returns the dense fabric ordinal of the i-th node.
func (v *PathView) NodeOrdinal(i int) int32 { return v.nords[i] }

// LinkOrdinals appends the path's link ordinals to buf and returns it.
func (v *PathView) LinkOrdinals(buf []int32) []int32 { return append(buf, v.ords[:v.n-1]...) }

// Materialize copies the view into an owned Path.
func (v *PathView) Materialize() Path {
	return Path{
		Nodes: append([]NodeID(nil), v.nodes[:v.n]...),
		Links: append([]LinkID(nil), v.links[:v.n-1]...),
	}
}

// ErrSameNIC reports a path request from a NIC to itself.
var ErrSameNIC = errors.New("topology: source and destination NIC identical")

// ErrIntraHost reports a path request between two NICs on the same
// host: that traffic rides NVLink/PCIe, not the network fabric, and is
// out of SkeletonHunter's scope (§7.3).
var ErrIntraHost = errors.New("topology: NICs share a host (intra-host path)")

// NumPaths returns the number of equal-cost paths between two NICs
// without materializing them.
func (f *Fabric) NumPaths(src, dst NIC) (int, error) {
	if src == dst {
		return 0, ErrSameNIC
	}
	if src.Host == dst.Host {
		return 0, ErrIntraHost
	}
	sp, dp := f.PodOf(src.Host), f.PodOf(dst.Host)
	switch {
	case sp == dp && src.Rail == dst.Rail:
		return 1, nil
	case sp == dp:
		return f.Spec.AggPerPod, nil
	default: // cross-pod
		return f.Spec.AggPerPod * f.Spec.Spines * f.Spec.AggPerPod, nil
	}
}

// Paths enumerates every equal-cost path between two NICs, in a
// deterministic order (the order pathViewByIndex indexes). Cross-pod pairs
// have AggPerPod² × Spines paths; hot paths pick one with
// PathViewByHash instead of materializing the set.
func (f *Fabric) Paths(src, dst NIC) ([]Path, error) {
	n, err := f.NumPaths(src, dst)
	if err != nil {
		return nil, err
	}
	paths := make([]Path, 0, n)
	var v PathView
	for i := 0; i < n; i++ {
		f.pathViewByIndex(src, dst, i, &v)
		paths = append(paths, v.Materialize())
	}
	return paths, nil
}

// PathViewByHash fills the caller's view with the ECMP path a flow
// with the given hash entropy takes, allocating nothing. Real switches
// hash the five-tuple per hop; modelling the selection as one hash over
// the enumerated equal-cost set preserves the property the tomography
// cares about: a fixed flow sticks to one path, different flows spread
// across paths.
func (f *Fabric) PathViewByHash(src, dst NIC, hash uint64, v *PathView) error {
	n, err := f.NumPaths(src, dst)
	if err != nil {
		return err
	}
	f.pathViewByIndex(src, dst, int(hash%uint64(n)), v)
	return nil
}

// pathViewByIndex fills v with the idx-th equal-cost path of the pair,
// in the same enumeration order Paths uses. It performs no allocation:
// every node and link ID comes from the interned tables. The caller
// guarantees the pair is valid (distinct NICs on distinct hosts) and
// idx ∈ [0, NumPaths).
func (f *Fabric) pathViewByIndex(src, dst NIC, idx int, v *PathView) {
	rails, agg, spines := f.Spec.Rails, f.Spec.AggPerPod, f.Spec.Spines
	sp, dp := f.PodOf(src.Host), f.PodOf(dst.Host)
	srcNicI := src.Host*rails + src.Rail
	dstNicI := dst.Host*rails + dst.Rail
	v.nodes[0], v.nords[0] = f.nicIDs[srcNicI], int32(srcNicI)
	v.nodes[1], v.nords[1] = f.torIDs[sp*rails+src.Rail], f.torOrd0+int32(sp*rails+src.Rail)
	v.links[0] = f.nicTorLinks[srcNicI]
	v.ords[0] = f.nicTorOrds[srcNicI]
	switch {
	case sp == dp && src.Rail == dst.Rail:
		v.n = 3
		v.nodes[2], v.nords[2] = f.nicIDs[dstNicI], int32(dstNicI)
		v.links[1] = f.nicTorLinks[dstNicI]
		v.ords[1] = f.nicTorOrds[dstNicI]
	case sp == dp:
		// Cross-rail, same pod: up to an aggregation switch and back down.
		a := idx % agg
		up := (sp*rails+src.Rail)*agg + a
		down := (dp*rails+dst.Rail)*agg + a
		v.n = 5
		v.nodes[2], v.nords[2] = f.aggIDs[sp*agg+a], f.aggOrd0+int32(sp*agg+a)
		v.nodes[3], v.nords[3] = f.torIDs[dp*rails+dst.Rail], f.torOrd0+int32(dp*rails+dst.Rail)
		v.nodes[4], v.nords[4] = f.nicIDs[dstNicI], int32(dstNicI)
		v.links[1], v.ords[1] = f.torAggLinks[up], f.torAggOrds[up]
		v.links[2], v.ords[2] = f.torAggLinks[down], f.torAggOrds[down]
		v.links[3], v.ords[3] = f.nicTorLinks[dstNicI], f.nicTorOrds[dstNicI]
	default:
		// Cross-pod: src ToR → src agg → spine → dst agg → dst ToR. The
		// index decomposes innermost-first to match Paths' enumeration
		// order (a1 outer, spine middle, a2 inner).
		a2 := idx % agg
		idx /= agg
		s := idx % spines
		a1 := idx / spines
		up := (sp*rails+src.Rail)*agg + a1
		mid1 := (sp*agg+a1)*spines + s
		mid2 := (dp*agg+a2)*spines + s
		down := (dp*rails+dst.Rail)*agg + a2
		v.n = 7
		v.nodes[2], v.nords[2] = f.aggIDs[sp*agg+a1], f.aggOrd0+int32(sp*agg+a1)
		v.nodes[3], v.nords[3] = f.spineIDs[s], f.spineOrd0+int32(s)
		v.nodes[4], v.nords[4] = f.aggIDs[dp*agg+a2], f.aggOrd0+int32(dp*agg+a2)
		v.nodes[5], v.nords[5] = f.torIDs[dp*rails+dst.Rail], f.torOrd0+int32(dp*rails+dst.Rail)
		v.nodes[6], v.nords[6] = f.nicIDs[dstNicI], int32(dstNicI)
		v.links[1], v.ords[1] = f.torAggLinks[up], f.torAggOrds[up]
		v.links[2], v.ords[2] = f.aggSpineLinks[mid1], f.aggSpineOrds[mid1]
		v.links[3], v.ords[3] = f.aggSpineLinks[mid2], f.aggSpineOrds[mid2]
		v.links[4], v.ords[4] = f.torAggLinks[down], f.torAggOrds[down]
		v.links[5], v.ords[5] = f.nicTorLinks[dstNicI], f.nicTorOrds[dstNicI]
	}
}

// HostsUnder returns the hosts whose traffic traverses a switch, in
// ascending order: the pod's hosts for a ToR or aggregation switch,
// every host for a spine. Unknown nodes return nil. Remediation uses
// this to bound the blast radius of a cordon+drain.
func (f *Fabric) HostsUnder(n NodeID) []int {
	s := string(n)
	var p, x int
	switch {
	case len(s) > 4 && s[:4] == "tor/":
		if c, err := fmt.Sscanf(s, "tor/p%d/r%d", &p, &x); err != nil || c != 2 {
			return nil
		}
	case len(s) > 4 && s[:4] == "agg/":
		if c, err := fmt.Sscanf(s, "agg/p%d/a%d", &p, &x); err != nil || c != 2 {
			return nil
		}
	case len(s) > 6 && s[:6] == "spine/":
		out := make([]int, f.hosts)
		for h := range out {
			out[h] = h
		}
		return out
	default:
		return nil
	}
	if p < 0 || p >= f.Spec.Pods {
		return nil
	}
	out := make([]int, f.Spec.HostsPerPod)
	for i := range out {
		out[i] = p*f.Spec.HostsPerPod + i
	}
	return out
}
