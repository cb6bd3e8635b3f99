// Package overlay models the VXLAN-based container overlay network of
// §2 (Fig. 1): per-host virtual switches (OVS) holding match/action
// flow tables, VTEP tunnel endpoints per RNIC, and the hardware-offload
// shadow tables on RNICs that mirror the vswitch entries.
//
// SkeletonHunter's localization (Algorithm 1) walks the *logical
// forwarding chain* through these components and, as a last resort,
// dumps and compares the OVS table against the RNIC's offloaded copy —
// the inconsistency in Fig. 18's production case. This package exposes
// exactly those capabilities: deterministic forwarding traces and
// offload-consistency dumps, plus the mutation hooks the fault injector
// uses (entry removal, corruption, offload invalidation).
package overlay

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
)

// VNI is a VXLAN network identifier; each training task (tenant slice)
// gets its own.
type VNI uint32

// Addr is the overlay address of one endpoint (a container×RNIC pair).
type Addr struct {
	VNI  VNI
	IP   string // overlay IP, unique within the VNI
	Host int    // physical host index
	Rail int    // RNIC rail the endpoint's VF rides on
}

// ComponentKind discriminates overlay components for localization
// verdicts.
type ComponentKind uint8

const (
	CompVPort ComponentKind = iota
	CompVSwitch
	CompVTEP
)

func (k ComponentKind) String() string {
	switch k {
	case CompVPort:
		return "vport"
	case CompVSwitch:
		return "vswitch"
	case CompVTEP:
		return "vtep"
	default:
		return fmt.Sprintf("comp(%d)", int(k))
	}
}

// Component identifies one overlay component instance. It is a small
// comparable value (32 bytes): a trace builds its chain without
// formatting anything, and the string form is rendered only when a
// verdict or a log line asks for it. Each kind sets only the fields
// that name it — a vport its VNI and IP, a vswitch its host, a VTEP
// its host and rail — so two components are equal exactly when their
// IDs are.
type Component struct {
	Kind ComponentKind
	vni  VNI
	host int32
	rail int32
	ip   string
}

// ID renders the component's identity within its kind: "vni3/10.3.1.2"
// for a vport, "h4" for a vswitch, "h4/r5" for a VTEP.
func (c Component) ID() string {
	switch c.Kind {
	case CompVPort:
		return "vni" + strconv.FormatUint(uint64(c.vni), 10) + "/" + c.ip
	case CompVSwitch:
		return "h" + strconv.Itoa(int(c.host))
	default:
		return "h" + strconv.Itoa(int(c.host)) + "/r" + strconv.Itoa(int(c.rail))
	}
}

func (c Component) String() string { return c.Kind.String() + "/" + c.ID() }

// VPortComponent returns the component for an endpoint's vport.
func VPortComponent(a Addr) Component { return vport(a.VNI, a.IP) }

func vport(vni VNI, ip string) Component {
	return Component{Kind: CompVPort, vni: vni, ip: ip}
}

// VSwitchComponent returns the component for a host's virtual switch.
func VSwitchComponent(host int) Component {
	return Component{Kind: CompVSwitch, host: int32(host)}
}

// VTEPComponent returns the component for a host/rail tunnel endpoint.
func VTEPComponent(host, rail int) Component {
	return Component{Kind: CompVTEP, host: int32(host), rail: int32(rail)}
}

// ActionType enumerates flow actions.
type ActionType int

const (
	// ActionLocal delivers to a vport on this host.
	ActionLocal ActionType = iota
	// ActionTunnel encapsulates toward a remote host's VTEP.
	ActionTunnel
	// ActionDrop discards (used to model blackholing rule corruption).
	ActionDrop
)

// FlowKey matches a packet within a vswitch.
type FlowKey struct {
	VNI VNI
	Dst string // destination overlay IP
}

// FlowAction is the forwarding decision for a key.
type FlowAction struct {
	Type       ActionType
	RemoteHost int // ActionTunnel: destination host
	Rail       int // rail whose VTEP/RNIC carries the tunnel (or VF locally)
}

// FlowEntry pairs a key with its action plus offload bookkeeping.
type FlowEntry struct {
	Key    FlowKey
	Action FlowAction
	// Offloaded marks the entry as programmed into the RNIC eSwitch.
	Offloaded bool
	// OffloadStale marks an offloaded entry the RNIC has invalidated
	// without the control plane noticing (the Fig. 18 failure): packets
	// fall back to the software slow path.
	OffloadStale bool
}

// VSwitch is one host's virtual switch.
type VSwitch struct {
	Host    int
	entries map[FlowKey]*FlowEntry
}

// NewVSwitch returns an empty vswitch for a host.
func NewVSwitch(host int) *VSwitch {
	return &VSwitch{Host: host, entries: make(map[FlowKey]*FlowEntry)}
}

// Install adds or replaces a flow entry, offloaded by default (the
// production data path offloads en-/de-capsulation to the RNIC, §2).
func (v *VSwitch) Install(key FlowKey, action FlowAction) {
	v.entries[key] = &FlowEntry{Key: key, Action: action, Offloaded: true}
}

// Remove deletes an entry (fault hook and teardown path).
func (v *VSwitch) Remove(key FlowKey) { delete(v.entries, key) }

// Lookup returns the entry for a key.
func (v *VSwitch) Lookup(key FlowKey) (*FlowEntry, bool) {
	e, ok := v.entries[key]
	return e, ok
}

// Len returns the number of installed flow entries (Fig. 6's metric).
func (v *VSwitch) Len() int { return len(v.entries) }

// Keys returns all flow keys in deterministic order.
func (v *VSwitch) Keys() []FlowKey {
	out := make([]FlowKey, 0, len(v.entries))
	for k := range v.entries {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].VNI != out[j].VNI {
			return out[i].VNI < out[j].VNI
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// Network is the overlay control plane state: every host's vswitch and
// the endpoint registry.
type Network struct {
	vswitches map[int]*VSwitch
	endpoints map[VNI]map[string]Addr // VNI → IP → Addr
	// Forwarding-state generations, two levels deep. A trace from src
	// reads only flow entries keyed by src.VNI and endpoints of src.VNI,
	// so a mutation scoped to one VNI (attach, detach, and the per-entry
	// hooks) moves only that VNI's generation, stamped from vniSeq so a
	// VNI that dies and comes back never reuses an old value. gen moves
	// on everything else: handing out a mutable vswitch (VSwitch reaches
	// every tenant's entries on the host) and a VNI's last endpoint
	// leaving, which lets caches free the dead tenant's entries. Trace
	// caches check Gen() first, then VNIGen(vni), and refill on mismatch.
	gen    uint64
	vniSeq uint64
	vniGen map[VNI]uint64
}

// NewNetwork returns an empty overlay network.
func NewNetwork() *Network {
	return &Network{
		vswitches: make(map[int]*VSwitch),
		endpoints: make(map[VNI]map[string]Addr),
		vniGen:    make(map[VNI]uint64),
	}
}

// Gen returns the fleet-wide forwarding-state generation: while it and
// a VNI's VNIGen both hold still, TraceForward results for sources in
// that VNI can be reused. Reading Gen or VNIGen concurrently from
// analysis or probe workers is safe as long as nothing mutates the
// overlay at the same time — the single-threaded simulation engine
// guarantees that (mutations happen in serial engine events, fan-outs
// inside one event only read).
func (n *Network) Gen() uint64 { return n.gen }

// VNIGen returns the forwarding-state generation of one VNI: it moves
// on every mutation scoped to that VNI. Mutations that may touch any
// VNI move Gen instead.
func (n *Network) VNIGen(vni VNI) uint64 { return n.vniGen[vni] }

// bumpVNI moves a VNI's generation to a value it has never held.
func (n *Network) bumpVNI(vni VNI) {
	n.vniSeq++
	n.vniGen[vni] = n.vniSeq
}

// VSwitch returns (creating if needed) the vswitch of a host. The
// returned handle is mutable and reaches every VNI's entries, so
// handing it out conservatively bumps the fleet-wide generation; read
// paths (TraceForward, DumpOffload) go through the non-bumping
// vswitchRO, and the VNI-scoped mutators through vswitchIn.
func (n *Network) VSwitch(host int) *VSwitch {
	n.gen++
	return n.vswitch(host)
}

// vswitchIn is the accessor of mutations that touch only entries keyed
// by vni: it bumps that VNI's generation, not the fleet-wide one.
func (n *Network) vswitchIn(host int, vni VNI) *VSwitch {
	n.bumpVNI(vni)
	return n.vswitch(host)
}

func (n *Network) vswitch(host int) *VSwitch {
	if v, ok := n.vswitches[host]; ok {
		return v
	}
	v := NewVSwitch(host)
	n.vswitches[host] = v
	return v
}

// vswitchRO returns the host's vswitch without instantiating one: the
// read-only accessor the concurrent localization shards go through.
// A host that never attached an endpoint gets an empty stand-in whose
// lookups all miss — the same observable behaviour as a fresh vswitch,
// with no write to the vswitch map.
func (n *Network) vswitchRO(host int) *VSwitch {
	if v, ok := n.vswitches[host]; ok {
		return v
	}
	return &VSwitch{Host: host}
}

// AttachEndpoint registers an endpoint and programs forwarding state:
// a local-delivery entry on its own host, and tunnel entries toward it
// on every host that already has an endpoint in the same VNI (and vice
// versa entries from it to them). This mirrors how the container
// network plugin fans out flow rules as training containers register —
// the source of the per-host flow-table growth in Fig. 6.
func (n *Network) AttachEndpoint(a Addr) error {
	vniEps := n.endpoints[a.VNI]
	if vniEps == nil {
		vniEps = make(map[string]Addr)
		n.endpoints[a.VNI] = vniEps
	}
	if _, dup := vniEps[a.IP]; dup {
		return fmt.Errorf("overlay: duplicate endpoint %s in VNI %d", a.IP, a.VNI)
	}

	local := n.vswitchIn(a.Host, a.VNI)
	local.Install(FlowKey{VNI: a.VNI, Dst: a.IP}, FlowAction{Type: ActionLocal, Rail: a.Rail})
	for _, peer := range vniEps {
		if peer.Host != a.Host {
			// Peer's host learns how to reach the new endpoint…
			n.vswitch(peer.Host).Install(
				FlowKey{VNI: a.VNI, Dst: a.IP},
				FlowAction{Type: ActionTunnel, RemoteHost: a.Host, Rail: a.Rail},
			)
			// …and the new endpoint's host learns the peer.
			local.Install(
				FlowKey{VNI: a.VNI, Dst: peer.IP},
				FlowAction{Type: ActionTunnel, RemoteHost: peer.Host, Rail: peer.Rail},
			)
		} else {
			local.Install(FlowKey{VNI: a.VNI, Dst: peer.IP}, FlowAction{Type: ActionLocal, Rail: peer.Rail})
		}
	}
	vniEps[a.IP] = a
	return nil
}

// DetachEndpoint removes an endpoint and all rules referencing it. The
// VNI's last endpoint leaving retires the VNI: its generation is
// forgotten and the fleet-wide one moves, so caches drop its entries.
func (n *Network) DetachEndpoint(a Addr) {
	vniEps := n.endpoints[a.VNI]
	if vniEps == nil {
		return
	}
	delete(vniEps, a.IP)
	n.bumpVNI(a.VNI)
	key := FlowKey{VNI: a.VNI, Dst: a.IP}
	for _, v := range n.vswitches {
		v.Remove(key)
	}
	if len(vniEps) == 0 {
		delete(n.endpoints, a.VNI)
		delete(n.vniGen, a.VNI)
		n.gen++
	}
}

// Endpoint returns the registered address for (vni, ip).
func (n *Network) Endpoint(vni VNI, ip string) (Addr, bool) {
	a, ok := n.endpoints[vni][ip]
	return a, ok
}

// TraceOutcome classifies the result of a forwarding trace.
type TraceOutcome int

const (
	// Reached: the packet arrives at the destination vport.
	Reached TraceOutcome = iota
	// Broken: forwarding dead-ends (missing entry, drop action, or a
	// tunnel to a host with no matching state).
	Broken
	// Looped: the packet revisits a component (corrupt rules).
	Looped
)

func (o TraceOutcome) String() string {
	switch o {
	case Reached:
		return "reached"
	case Broken:
		return "broken"
	case Looped:
		return "looped"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Trace is a resolved logical forwarding chain.
type Trace struct {
	Outcome TraceOutcome
	// Chain is the ordered overlay components traversed. On Broken the
	// last element is the component at which forwarding died; on Looped
	// it is the first revisited component.
	Chain []Component
	// SlowPath reports that at least one traversed entry was offloaded
	// but stale (RNIC invalidated it), forcing software processing —
	// the high-latency signature of Fig. 18.
	SlowPath bool
	// TunnelLegs lists each encapsulated hop as (srcHost, srcRail,
	// dstHost, dstRail); netsim maps these onto underlay paths.
	TunnelLegs []TunnelLeg
}

// TunnelLeg is one encapsulated traversal of the underlay.
type TunnelLeg struct {
	SrcHost, SrcRail int
	DstHost, DstRail int
}

// ErrUnknownEndpoint reports a trace request for an unregistered source.
var ErrUnknownEndpoint = errors.New("overlay: unknown endpoint")

// TraceForward resolves the logical forwarding chain from src toward
// dstIP within src's VNI. It walks vport → vswitch → (vtep → vtep →
// vswitch)* → vport, following the installed flow entries wherever they
// point — including into loops, which it detects by finding a component
// already on the chain, exactly as Algorithm 1's overlay reachability
// does.
//
// TraceForward is read-only and safe to call from concurrent analysis
// shards, provided nothing mutates the overlay concurrently (in this
// repo the single-threaded simulation engine guarantees that: shards
// only fan out inside one engine event).
func (n *Network) TraceForward(src Addr, dstIP string) (Trace, error) {
	var tr Trace
	if err := n.TraceForwardInto(&tr, src, dstIP); err != nil {
		return Trace{}, err
	}
	return tr, nil
}

// TraceForwardInto is the append-into form of TraceForward, for
// callers that trace often and keep what they read: it resolves the
// chain into tr.Chain's backing array (allocating one only when tr
// brings none) and appends the tunnel legs to tr.TunnelLegs after
// whatever it already holds, so the legs of many traces can share one
// arena. With both buffers grown, a trace allocates nothing. On error
// tr.TunnelLegs is untouched.
func (n *Network) TraceForwardInto(tr *Trace, src Addr, dstIP string) error {
	tr.SlowPath = false
	tr.Chain = tr.Chain[:0]
	if _, ok := n.Endpoint(src.VNI, src.IP); !ok {
		return ErrUnknownEndpoint
	}
	if tr.Chain == nil {
		// A healthy cross-host chain is vport → vswitch → vtep → vtep →
		// vswitch → vport: six components, one allocation.
		tr.Chain = make([]Component, 0, 6)
	}
	tr.visit(VPortComponent(src))
	host := src.Host
	// A forwarding chain in a healthy overlay is at most a handful of
	// components; the bound only guards against pathological rule sets.
	for hops := 0; hops < 64; hops++ {
		vsw := n.vswitchRO(host)
		if !tr.visit(VSwitchComponent(host)) {
			tr.Outcome = Looped
			return nil
		}
		entry, ok := vsw.Lookup(FlowKey{VNI: src.VNI, Dst: dstIP})
		if !ok {
			tr.Outcome = Broken
			return nil
		}
		// Software processing happens either when the entry was never
		// offloaded (e.g. flows falling back to the kernel stack, issue 14)
		// or when the RNIC invalidated its offloaded copy (Fig. 18).
		if !entry.Offloaded || entry.OffloadStale {
			tr.SlowPath = true
		}
		switch entry.Action.Type {
		case ActionDrop:
			tr.Outcome = Broken
			return nil
		case ActionLocal:
			dst, ok := n.Endpoint(src.VNI, dstIP)
			if !ok || dst.Host != host {
				// Rule says "local" but the endpoint isn't here: the vport
				// is the broken component.
				tr.Chain = append(tr.Chain, vport(src.VNI, dstIP))
				tr.Outcome = Broken
				return nil
			}
			if !tr.visit(VPortComponent(dst)) {
				tr.Outcome = Looped
				return nil
			}
			tr.Outcome = Reached
			return nil
		case ActionTunnel:
			srcRail := entry.Action.Rail
			if !tr.visit(VTEPComponent(host, srcRail)) {
				tr.Outcome = Looped
				return nil
			}
			remote := entry.Action.RemoteHost
			if !tr.visit(VTEPComponent(remote, srcRail)) {
				tr.Outcome = Looped
				return nil
			}
			tr.TunnelLegs = append(tr.TunnelLegs, TunnelLeg{
				SrcHost: host, SrcRail: srcRail, DstHost: remote, DstRail: srcRail,
			})
			host = remote
		default:
			tr.Outcome = Broken
			return nil
		}
	}
	tr.Outcome = Looped
	return nil
}

// visit appends c to the chain and reports false if c was already on
// it (a loop). Chains are a handful of components, so a scan beats a
// visited set.
func (tr *Trace) visit(c Component) bool {
	seen := slices.Contains(tr.Chain, c)
	tr.Chain = append(tr.Chain, c)
	return !seen
}

// OffloadDump is the result of dumping an RNIC's offloaded flow table
// and comparing it with the vswitch's authoritative entries — the
// "validating RNICs" step of §5.3.
type OffloadDump struct {
	Host int
	Rail int
	// Inconsistent lists entries whose offloaded state diverges from
	// the vswitch (stale or missing offload while marked Offloaded).
	Inconsistent []FlowKey
	// NotOffloaded lists entries the vswitch never offloaded — flows
	// riding the software stack by (mis)configuration (issue 14).
	NotOffloaded []FlowKey
	// Total counts entries examined.
	Total int
}

// DumpOffload inspects every entry on a host whose tunnel/VF rides the
// given rail and reports OVS↔RNIC inconsistencies. The operation is
// intrusive in production (it can degrade performance, §5.3); here it
// is just a scan.
func (n *Network) DumpOffload(host, rail int) OffloadDump {
	d := OffloadDump{Host: host, Rail: rail}
	vsw := n.vswitchRO(host)
	for _, k := range vsw.Keys() {
		e, _ := vsw.Lookup(k)
		if e.Action.Rail != rail {
			continue
		}
		d.Total++
		if e.Offloaded && e.OffloadStale {
			d.Inconsistent = append(d.Inconsistent, k)
		}
		if !e.Offloaded {
			d.NotOffloaded = append(d.NotOffloaded, k)
		}
	}
	return d
}

// SetOffloaded flips the offload flag of one entry (fault hook for
// flows falling back to the software stack).
func (n *Network) SetOffloaded(host int, vni VNI, dstIP string, offloaded bool) bool {
	e, ok := n.vswitchIn(host, vni).Lookup(FlowKey{VNI: vni, Dst: dstIP})
	if !ok {
		return false
	}
	e.Offloaded = offloaded
	return true
}

// DeOffloadAll marks every entry on a host as not offloaded — the
// "not using RDMA" failure mode (issue 14) where the vswitch stops
// offloading and all flows ride TCP/the kernel path.
func (n *Network) DeOffloadAll(host int) int {
	vsw := n.VSwitch(host)
	count := 0
	for _, k := range vsw.Keys() {
		e, _ := vsw.Lookup(k)
		if e.Offloaded {
			e.Offloaded = false
			count++
		}
	}
	return count
}

// ReOffloadAll restores the offload flag on every entry of a host.
func (n *Network) ReOffloadAll(host int) {
	vsw := n.VSwitch(host)
	for _, k := range vsw.Keys() {
		e, _ := vsw.Lookup(k)
		e.Offloaded = true
	}
}

// InvalidateOffload marks the entry for (vni, dstIP) on host as stale
// in the RNIC without updating the vswitch view — the fault hook that
// reproduces issues 15/16 and Fig. 18.
func (n *Network) InvalidateOffload(host int, vni VNI, dstIP string) bool {
	e, ok := n.vswitchIn(host, vni).Lookup(FlowKey{VNI: vni, Dst: dstIP})
	if !ok {
		return false
	}
	e.OffloadStale = true
	return true
}

// RestoreOffload clears the stale flag (recovery after RNIC isolation
// in the Fig. 18 case study).
func (n *Network) RestoreOffload(host int, vni VNI, dstIP string) bool {
	e, ok := n.vswitchIn(host, vni).Lookup(FlowKey{VNI: vni, Dst: dstIP})
	if !ok {
		return false
	}
	e.OffloadStale = false
	return true
}

// CorruptEntry overwrites the action for (vni, dstIP) on host — the
// fault hook for wrong-forwarding / loop scenarios.
func (n *Network) CorruptEntry(host int, vni VNI, dstIP string, action FlowAction) bool {
	e, ok := n.vswitchIn(host, vni).Lookup(FlowKey{VNI: vni, Dst: dstIP})
	if !ok {
		return false
	}
	e.Action = action
	return true
}

// RemoveEntry deletes the entry for (vni, dstIP) on host — the fault
// hook for blackhole scenarios.
func (n *Network) RemoveEntry(host int, vni VNI, dstIP string) {
	n.vswitchIn(host, vni).Remove(FlowKey{VNI: vni, Dst: dstIP})
}
