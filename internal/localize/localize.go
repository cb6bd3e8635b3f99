// Package localize implements optimistic overlay–underlay
// disentanglement (§5.3, Algorithm 1): given the anomalies the detector
// raised, it names the problematic network component(s).
//
// The three stages mirror the paper exactly:
//
//  1. Overlay logical reachability — replay the forwarding chain
//     between the endpoints; a dead-end names the broken overlay
//     component, a revisit names a forwarding loop.
//  2. Underlay physical intersection — network tomography: the links of
//     every anomalous pair's observed paths vote into PhyLinkCounter;
//     links voted by more than one pair are suspects (ECMP spreads
//     healthy pairs across paths, so shared fate concentrates votes on
//     the faulty element). For latency-only evidence the candidate is
//     exonerated if healthy probes traverse it at normal latency — a
//     physically slow element would affect everything crossing it.
//  3. RNIC validation — when neither layer explains the anomaly, dump
//     the RNIC-offloaded flow tables and compare with the vswitch: a
//     stale or missing offload names the RNIC or the vswitch (the
//     Fig. 18 production case).
//
// Host-level issues (PCIe/NVLink, host configuration) manifest as
// multi-rail vote concentration on one host's NICs; the localizer
// reports both host-board and host-config candidates, matching the
// paper's practice of isolating the host and distinguishing the two by
// manual inspection.
package localize

import (
	"fmt"
	"sort"
	"strings"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/component"
	"skeletonhunter/internal/netsim"
	"skeletonhunter/internal/overlay"
	"skeletonhunter/internal/topology"
)

// Symptom mirrors the detector's anomaly classes at the granularity
// localization cares about.
type Symptom int

const (
	SymptomUnreachable Symptom = iota
	SymptomLoss
	SymptomLatency
)

func (s Symptom) String() string {
	switch s {
	case SymptomUnreachable:
		return "unreachable"
	case SymptomLoss:
		return "loss"
	case SymptomLatency:
		return "latency"
	default:
		return fmt.Sprintf("symptom(%d)", int(s))
	}
}

// Evidence is one anomalous endpoint pair with its observed probe
// paths (each probe's ECMP path, as recorded with the probe).
type Evidence struct {
	Src, Dst overlay.Addr
	Symptom  Symptom
	// Paths are the underlay paths recent probes of this pair took, as
	// fabric link ordinals.
	Paths [][]int32
}

// Observation is a recent healthy probe: it traversed Path (fabric link
// ordinals) at normal latency. Used to exonerate latency suspects.
type Observation struct {
	Path []int32
}

// Layer reports which disentanglement stage produced a verdict.
type Layer int

const (
	LayerOverlay Layer = iota
	LayerUnderlay
	LayerRNICValidation
	LayerControlPlane // container state lookup
	LayerUnknown
)

func (l Layer) String() string {
	switch l {
	case LayerOverlay:
		return "overlay"
	case LayerUnderlay:
		return "underlay"
	case LayerRNICValidation:
		return "rnic-validation"
	case LayerControlPlane:
		return "control-plane"
	case LayerUnknown:
		return "unknown"
	default:
		return fmt.Sprintf("layer(%d)", int(l))
	}
}

// Verdict names the component(s) responsible for a set of evidence.
type Verdict struct {
	Components []component.ID
	Layer      Layer
	Detail     string
	// Pairs counts how many evidence pairs this verdict explains.
	Pairs int
}

// Localizer runs Algorithm 1. ContainerRunning, when set, lets the
// overlay stage distinguish "container gone" from "vswitch broken"
// (the controller synchronizes container states from the control
// plane's database, §6).
//
// Concurrency audit: Localize and everything it reaches is read-only,
// so one Localizer may be shared by the analyzer's concurrent task
// shards. The full call surface and why each leg is safe:
//
//   - Localizer itself holds no mutable state; no method writes a
//     field.
//   - overlay.Network.TraceForward and DumpOffload go through the
//     non-instantiating vswitch accessor and only read flow tables
//     and the endpoint registry.
//   - topology.Fabric is immutable after construction (only Spec is
//     read here).
//   - the ContainerRunning/ContainerIDOf closures wired by
//     NewWithControlPlane only iterate cluster.ControlPlane.Tasks(),
//     which builds a fresh slice from the task registry.
//
// The remaining requirement is external: nothing may mutate the
// overlay, fabric or control plane while a Localize batch is in
// flight. The simulation engine guarantees that, because shards only
// fan out inside a single engine event.
type Localizer struct {
	Net              *netsim.Net
	ContainerRunning func(addr overlay.Addr) (known bool, running bool)
	// ContainerIDOf resolves an overlay address to its container's
	// identity for verdict naming; when nil, a "vni/ip" guess is used.
	ContainerIDOf func(addr overlay.Addr) (string, bool)
	// View is the localizer's picture of the physical topology: the
	// tomography stage can only vote on links the topology service
	// believes exist. A stale or corrupted view — flap storms drive the
	// service's graph out of sync with the fabric, leaving "ghost"
	// entries and missing links — returns false for links it has lost,
	// and evidence crossing those links sheds its votes there, degrading
	// localization until the view refreshes. nil means the view is
	// perfectly synchronized (every link known). Like the rest of the
	// localizer's inputs it is read by concurrent shards: swap it only
	// between rounds, from an engine event.
	View func(topology.LinkID) bool
}

// NewWithControlPlane wires a localizer whose container-state oracle is
// the given control plane (the controller synchronizes these states
// from the cloud database, §6).
func NewWithControlPlane(net *netsim.Net, cp *cluster.ControlPlane) *Localizer {
	find := func(addr overlay.Addr) *cluster.Container {
		for _, task := range cp.Tasks() {
			if task.VNI != addr.VNI {
				continue
			}
			for _, c := range task.Containers {
				for _, a := range c.Addrs {
					if a.IP == addr.IP {
						return c
					}
				}
			}
		}
		return nil
	}
	return &Localizer{
		Net: net,
		ContainerRunning: func(addr overlay.Addr) (bool, bool) {
			c := find(addr)
			if c == nil {
				return false, false
			}
			return true, c.State == cluster.Running
		},
		ContainerIDOf: func(addr overlay.Addr) (string, bool) {
			if c := find(addr); c != nil {
				return string(c.ID), true
			}
			return "", false
		},
	}
}

// Scratch is a reusable per-shard localization workspace: the
// dense-ordinal vote accumulator persists across analysis rounds
// instead of reallocating a NumLinks-sized table per shard per round.
//
// Ownership: a Scratch belongs to exactly one analyzer shard; one
// shard's rounds never run concurrently, so no locking. Shards on the
// same Localizer each hold their own Scratch — votes accumulate
// per-shard and merge at the round barrier in task-key order (see
// analyzer), never across shards.
type Scratch struct {
	votes    []int32
	touched  []int32 // dirty vote ordinals, carried so the next round can zero them
	pairOrds [][]int32
}

// LocalizeWith runs the full disentanglement over a batch of evidence,
// returning deduplicated verdicts ordered by explanatory power. Hot
// callers pass a Scratch they keep across rounds; nil allocates fresh
// vote tables for this call.
func (l *Localizer) LocalizeWith(sc *Scratch, evidence []Evidence, healthy []Observation) []Verdict {
	if sc == nil {
		sc = &Scratch{}
	}
	var verdicts []Verdict
	var undiagnosed []Evidence

	// Stage 1: overlay logical reachability, per pair.
	for _, ev := range evidence {
		if v, ok := l.overlayReachability(ev); ok {
			verdicts = append(verdicts, v)
			continue
		}
		undiagnosed = append(undiagnosed, ev)
	}

	// Stage 2: underlay physical intersection over the remaining pairs.
	var stillUndiagnosed []Evidence
	if len(undiagnosed) > 0 {
		uv, unexplained := l.physicalIntersection(sc, undiagnosed, healthy)
		verdicts = append(verdicts, uv...)
		stillUndiagnosed = unexplained
	}

	// Stage 3: RNIC validation for whatever remains.
	for _, ev := range stillUndiagnosed {
		if v, ok := l.validateRNICs(ev); ok {
			verdicts = append(verdicts, v)
		} else {
			verdicts = append(verdicts, Verdict{
				Layer:  LayerUnknown,
				Detail: fmt.Sprintf("no overlay, underlay or offload cause for %s→%s (%v); manual inspection required", ev.Src.IP, ev.Dst.IP, ev.Symptom),
				Pairs:  1,
			})
		}
	}
	return MergeVerdicts(verdicts)
}

// overlayReachability is Algorithm 1's OverlayReachability: walk the
// logical chain and name the break or loop point.
func (l *Localizer) overlayReachability(ev Evidence) (Verdict, bool) {
	// The controller knows container states; a probe target that has
	// terminated is a container-runtime issue, not a vswitch one.
	if l.ContainerRunning != nil {
		if known, running := l.ContainerRunning(ev.Dst); known && !running {
			return Verdict{
				Components: []component.ID{component.Container(l.containerName(ev.Dst))},
				Layer:      LayerControlPlane,
				Detail:     fmt.Sprintf("destination %s is not running", ev.Dst.IP),
				Pairs:      1,
			}, true
		}
	}
	tr, err := l.Net.Overlay.TraceForward(ev.Src, ev.Dst.IP)
	if err != nil {
		// Source endpoint unknown to the overlay: its container is gone.
		return Verdict{
			Components: []component.ID{component.Container(l.containerName(ev.Src))},
			Layer:      LayerControlPlane,
			Detail:     fmt.Sprintf("source %s not attached to overlay", ev.Src.IP),
			Pairs:      1,
		}, true
	}
	switch tr.Outcome {
	case overlay.Reached:
		return Verdict{}, false
	case overlay.Looped:
		last := tr.Chain[len(tr.Chain)-1]
		return Verdict{
			Components: []component.ID{component.ID(last.String())},
			Layer:      LayerOverlay,
			Detail:     fmt.Sprintf("forwarding loop revisiting %s", last),
			Pairs:      1,
		}, true
	default: // Broken
		last := tr.Chain[len(tr.Chain)-1]
		return Verdict{
			Components: []component.ID{component.ID(last.String())},
			Layer:      LayerOverlay,
			Detail:     fmt.Sprintf("forwarding chain dead-ends at %s", last),
			Pairs:      1,
		}, true
	}
}

// containerName resolves an address to a container identity, falling
// back to a "vni/ip" guess when no control-plane resolver is wired.
func (l *Localizer) containerName(a overlay.Addr) string {
	if l.ContainerIDOf != nil {
		if id, ok := l.ContainerIDOf(a); ok {
			return id
		}
	}
	return fmt.Sprintf("vni%d/%s", a.VNI, a.IP)
}

// pairSet dedupes one pair's observed links into a sorted ordinal set
// (one vote per pair, not per probe). known, when non-nil, is the
// topology view: links it disclaims are dropped before voting — the
// tomography of a system that does not know those links exist.
func pairSet(fab *topology.Fabric, paths [][]int32, known func(topology.LinkID) bool) []int32 {
	var ords []int32
	for _, p := range paths {
		for _, o := range p {
			if known != nil && !known(fab.LinkByIndex(o)) {
				continue
			}
			ords = append(ords, o)
		}
	}
	sort.Slice(ords, func(i, j int) bool { return ords[i] < ords[j] })
	out := ords[:0]
	for i, o := range ords {
		if i == 0 || o != ords[i-1] {
			out = append(out, o)
		}
	}
	return out
}

func ordSetContains(set []int32, o int32) bool {
	i := sort.Search(len(set), func(i int) bool { return set[i] >= o })
	return i < len(set) && set[i] == o
}

// physicalIntersection runs Algorithm 1's PhysicalIntersection
// iteratively: vote, name the top component, peel off the evidence
// pairs it explains, and repeat on the remainder — so two concurrent
// faults (say, NIC ports down on different hosts) are both localized
// in a single analysis round instead of the second waiting for the
// first to clear.
//
// Each pair's deduped link set is computed once, as dense fabric
// ordinals, before the peel loop: the loop revisits those sets every
// iteration, and at production scale (40K+ links) re-building
// string-keyed maps per iteration dominated the analysis round.
func (l *Localizer) physicalIntersection(sc *Scratch, evidence []Evidence, healthy []Observation) ([]Verdict, []Evidence) {
	fab := l.Net.Fabric
	pairOrds := sc.pairOrds[:0]
	for _, ev := range evidence {
		pairOrds = append(pairOrds, pairSet(fab, ev.Paths, l.View))
	}
	sc.pairOrds = pairOrds
	if n := fab.NumLinks(); len(sc.votes) < n {
		grown := make([]int32, n)
		copy(grown, sc.votes)
		sc.votes = grown
	}
	// sc.touched still lists the previous round's dirty vote entries;
	// intersectOnce zeroes exactly those before voting, so the reused
	// table starts clean without an O(NumLinks) sweep.
	ix := &intersector{
		loc:     l,
		fab:     fab,
		votes:   sc.votes,
		touched: sc.touched,
	}
	defer func() { sc.touched = ix.touched }()

	var verdicts []Verdict
	remaining := make([]int, len(evidence))
	for i := range remaining {
		remaining[i] = i
	}
	// Each iteration must explain at least one pair, so the loop is
	// bounded by the evidence count; the cap is pure paranoia.
	for iter := 0; iter < len(evidence)+1 && len(remaining) > 0; iter++ {
		vs, explained := ix.intersectOnce(evidence, pairOrds, remaining, healthy)
		if len(vs) == 0 {
			break
		}
		verdicts = append(verdicts, vs...)
		// Peel off the pairs whose observed paths traverse the
		// implicated links; the rest go around again.
		next := remaining[:0]
		for _, idx := range remaining {
			touches := false
			for _, o := range pairOrds[idx] {
				if int(o) < len(explained) && explained[o] {
					touches = true
					break
				}
			}
			if !touches {
				next = append(next, idx)
			}
		}
		if len(next) == len(remaining) {
			// No progress (the verdict explained nothing new): stop to
			// avoid spinning.
			remaining = next
			break
		}
		remaining = next
	}
	var rest []Evidence
	for _, idx := range remaining {
		rest = append(rest, evidence[idx])
	}
	return verdicts, rest
}

// intersector carries the reusable vote table across peel iterations.
type intersector struct {
	loc     *Localizer
	fab     *topology.Fabric
	votes   []int32 // by link ordinal; reset via touched between passes
	touched []int32
}

// intersectOnce performs one vote-and-classify pass over the remaining
// evidence (given as indices into the original slice). It returns the
// verdicts and the explained-link set (by ordinal) to peel on.
func (ix *intersector) intersectOnce(evidence []Evidence, pairOrds [][]int32, remaining []int, healthy []Observation) ([]Verdict, []bool) {
	// PhyLinkCounter: votes per link, one per anomalous *pair* (not per
	// probe — pair sets are already deduped).
	for _, o := range ix.touched {
		ix.votes[o] = 0
	}
	ix.touched = ix.touched[:0]
	for _, idx := range remaining {
		for _, o := range pairOrds[idx] {
			if ix.votes[o] == 0 {
				ix.touched = append(ix.touched, o)
			}
			ix.votes[o]++
		}
	}
	if len(ix.touched) == 0 {
		return nil, nil
	}
	var maxVotes int32
	for _, o := range ix.touched {
		if ix.votes[o] > maxVotes {
			maxVotes = ix.votes[o]
		}
	}
	// Algorithm 1 line 19: every counter ≤ 1 ⇒ no underlay failure.
	if maxVotes <= 1 && len(remaining) > 1 {
		return nil, nil
	}

	// Collect the top set in ascending ordinal order: deterministic,
	// unlike ranging over a string-keyed map.
	var topOrds []int32
	for _, o := range ix.touched {
		if ix.votes[o] == maxVotes {
			topOrds = append(topOrds, o)
		}
	}
	sort.Slice(topOrds, func(i, j int) bool { return topOrds[i] < topOrds[j] })
	top := make([]topology.LinkID, len(topOrds))
	for i, o := range topOrds {
		top[i] = ix.fab.LinkByIndex(o)
	}

	// Latency exoneration: if the evidence is latency-dominated and
	// healthy probes traverse the top links at normal latency, the
	// underlay element is not at fault (the slowdown is endpoint-local,
	// e.g. a software slow path). "Dominated" rather than "exclusively":
	// the software slow path itself induces a trickle of loss (<0.1 %
	// in the Fig. 18 case), so a strict all-latency gate would flap.
	nLatency := 0
	for _, idx := range remaining {
		if evidence[idx].Symptom == SymptomLatency {
			nLatency++
		}
	}
	allLatency := float64(nLatency) >= 0.7*float64(len(remaining))
	if allLatency && len(healthy) > 0 {
		healthyHits := 0
		for _, ob := range healthy {
			for _, o := range ob.Path {
				if ordSetContains(topOrds, o) {
					healthyHits++
					break
				}
			}
		}
		if healthyHits > 0 {
			return nil, nil
		}
	}

	// The top set may mix several concurrent faults (independent links
	// tie at max votes); decompose it into independent verdicts.
	remEvidence := make([]Evidence, len(remaining))
	for i, idx := range remaining {
		remEvidence[i] = evidence[idx]
	}
	groups := decomposeTop(top, remEvidence)
	explained := make([]bool, ix.fab.NumLinks())
	var verdicts []Verdict
	for _, g := range groups {
		v := g.verdict
		// Count the pairs this verdict explains for reporting.
		for _, idx := range remaining {
			set := pairOrds[idx]
			for _, link := range g.links {
				if o, ok := ix.fab.LinkIndex(link); ok && ordSetContains(set, o) {
					v.Pairs++
					break
				}
			}
		}
		// Dump confirmation (the Fig. 18 step): a latency-only verdict
		// against an RNIC or a host may actually be offload staleness
		// or de-offloaded flows — software-path slowness that
		// tomography cannot tell apart from hardware slowness because
		// both directions traverse the same tables (encap at the
		// source, decap at the destination). Dump the implicated host's
		// offload tables; if they diverge from the vswitch, the dump
		// verdict supersedes.
		if allLatency {
			if refined, ok := ix.loc.confirmWithDump(v); ok {
				refined.Pairs = v.Pairs
				v = refined
			}
		}
		verdicts = append(verdicts, v)
		for _, link := range g.links {
			if o, ok := ix.fab.LinkIndex(link); ok {
				explained[o] = true
			}
		}
	}
	return verdicts, explained
}

// topGroup is one independent explanation unit within the top-voted
// link set.
type topGroup struct {
	verdict Verdict
	links   []topology.LinkID
}

// decomposeTop splits the top-voted links into independent verdicts:
// links concentrating on ≥2 rails of one host become a host-level
// verdict; links sharing a switch become a switch verdict; leftover
// NIC links each name their RNIC (and the link); anything else is
// named directly.
func decomposeTop(top []topology.LinkID, evidence []Evidence) []topGroup {
	latencyOnly := true
	for _, ev := range evidence {
		if ev.Symptom != SymptomLatency {
			latencyOnly = false
		}
	}

	remaining := map[topology.LinkID]bool{}
	for _, l := range top {
		remaining[l] = true
	}
	var groups []topGroup

	// 1. Host-level concentration.
	byHost := map[int][]topology.LinkID{}
	railsOf := map[int]map[int]bool{}
	for l := range remaining {
		a, b, ok := splitLink(l)
		if !ok {
			continue
		}
		for _, n := range []topology.NodeID{a, b} {
			if h, r, isNIC := parseNIC(n); isNIC {
				byHost[h] = append(byHost[h], l)
				if railsOf[h] == nil {
					railsOf[h] = map[int]bool{}
				}
				railsOf[h][r] = true
			}
		}
	}
	for host, links := range byHost {
		if len(railsOf[host]) < 2 {
			continue
		}
		groups = append(groups, topGroup{
			verdict: Verdict{
				Components: []component.ID{component.HostBoard(host), component.HostConfig(host)},
				Layer:      LayerUnderlay,
				Detail:     fmt.Sprintf("votes concentrate on %d rails of host %d: host board or host configuration", len(railsOf[host]), host),
			},
			links: links,
		})
		for _, l := range links {
			delete(remaining, l)
		}
	}

	// 2. Switch-level concentration among what remains.
	nodeLinks := map[topology.NodeID][]topology.LinkID{}
	for l := range remaining {
		a, b, ok := splitLink(l)
		if !ok {
			continue
		}
		for _, n := range []topology.NodeID{a, b} {
			if !isNICNode(n) {
				nodeLinks[n] = append(nodeLinks[n], l)
			}
		}
	}
	for node, links := range nodeLinks {
		// Only a *shared* switch (≥2 incident top links still
		// unexplained) indicates the switch itself.
		live := links[:0]
		for _, l := range links {
			if remaining[l] {
				live = append(live, l)
			}
		}
		if len(live) < 2 {
			continue
		}
		comps := []component.ID{component.Switch(node)}
		if latencyOnly {
			comps = append(comps, component.SwitchConfig(node))
		}
		groups = append(groups, topGroup{
			verdict: Verdict{
				Components: comps,
				Layer:      LayerUnderlay,
				Detail:     fmt.Sprintf("%d top-voted links share switch %s", len(live), node),
			},
			links: append([]topology.LinkID(nil), live...),
		})
		for _, l := range live {
			delete(remaining, l)
		}
	}

	// 3. Leftovers: NIC links name the RNIC (port ↔ link ambiguity,
	// resolved by switch logs in production); others name the link.
	for l := range remaining {
		var comps []component.ID
		detail := fmt.Sprintf("tomography names link %s", l)
		comps = append(comps, component.Link(l))
		if a, b, ok := splitLink(l); ok {
			for _, n := range []topology.NodeID{a, b} {
				if h, r, isNIC := parseNIC(n); isNIC {
					comps = append(comps, component.RNIC(h, r))
					detail = fmt.Sprintf("votes concentrate on the NIC link of host %d rail %d (RNIC port or link)", h, r)
				} else if latencyOnly {
					comps = append(comps, component.SwitchConfig(n))
				}
			}
		}
		groups = append(groups, topGroup{
			verdict: Verdict{Components: comps, Layer: LayerUnderlay, Detail: detail},
			links:   []topology.LinkID{l},
		})
	}
	// Deterministic order for stable output.
	sort.Slice(groups, func(i, j int) bool {
		return fmt.Sprint(groups[i].verdict.Components) < fmt.Sprint(groups[j].verdict.Components)
	})
	return groups
}

// confirmWithDump re-examines an RNIC- or host-level latency verdict
// against the offload dump. It returns a replacement verdict when the
// dump explains the slowness.
func (l *Localizer) confirmWithDump(v Verdict) (Verdict, bool) {
	for _, c := range v.Components {
		var host, rail int
		if _, err := fmt.Sscanf(string(c), "rnic/h%d/r%d", &host, &rail); err == nil {
			d := l.Net.Overlay.DumpOffload(host, rail)
			if len(d.Inconsistent) > 0 {
				return Verdict{
					Components: []component.ID{component.RNIC(host, rail)},
					Layer:      LayerRNICValidation,
					Detail:     fmt.Sprintf("dump confirms RNIC h%d/r%d invalidated %d offloaded entries", host, rail, len(d.Inconsistent)),
				}, true
			}
			if len(d.NotOffloaded) > 0 {
				return Verdict{
					Components: []component.ID{component.VSwitch(host)},
					Layer:      LayerRNICValidation,
					Detail:     fmt.Sprintf("dump shows vswitch h%d left entries un-offloaded", host),
				}, true
			}
			continue
		}
		if _, err := fmt.Sscanf(string(c), "hostboard/h%d", &host); err == nil {
			staleRails, notOffloaded := 0, 0
			for r := 0; r < l.Net.Fabric.Spec.Rails; r++ {
				d := l.Net.Overlay.DumpOffload(host, r)
				if len(d.Inconsistent) > 0 {
					staleRails++
				}
				notOffloaded += len(d.NotOffloaded)
			}
			if staleRails >= 2 || notOffloaded > 0 {
				return Verdict{
					Components: []component.ID{component.VSwitch(host)},
					Layer:      LayerRNICValidation,
					Detail:     fmt.Sprintf("dump shows vswitch h%d offload divergence (%d stale rails, %d un-offloaded entries)", host, staleRails, notOffloaded),
				}, true
			}
		}
	}
	return Verdict{}, false
}

func splitLink(l topology.LinkID) (a, b topology.NodeID, ok bool) {
	parts := strings.SplitN(string(l), "--", 2)
	if len(parts) != 2 {
		return "", "", false
	}
	return topology.NodeID(parts[0]), topology.NodeID(parts[1]), true
}

func parseNIC(n topology.NodeID) (host, rail int, ok bool) {
	var h, r int
	if _, err := fmt.Sscanf(string(n), "nic/h%d/r%d", &h, &r); err != nil {
		return 0, 0, false
	}
	return h, r, true
}

func isNICNode(n topology.NodeID) bool {
	_, _, ok := parseNIC(n)
	return ok
}

// validateRNICs is the §5.3 last resort: dump offloaded flow tables on
// the source host and compare with the vswitch. One stale rail names
// the RNIC; multi-rail staleness or never-offloaded entries name the
// vswitch.
func (l *Localizer) validateRNICs(ev Evidence) (Verdict, bool) {
	rails := l.Net.Fabric.Spec.Rails
	staleRails := 0
	notOffloaded := 0
	var staleRail int
	for r := 0; r < rails; r++ {
		d := l.Net.Overlay.DumpOffload(ev.Src.Host, r)
		if len(d.Inconsistent) > 0 {
			staleRails++
			staleRail = r
		}
		notOffloaded += len(d.NotOffloaded)
	}
	switch {
	case staleRails == 1 && notOffloaded == 0:
		return Verdict{
			Components: []component.ID{component.RNIC(ev.Src.Host, staleRail)},
			Layer:      LayerRNICValidation,
			Detail:     fmt.Sprintf("RNIC h%d/r%d invalidated offloaded flow entries (OVS↔RNIC inconsistency)", ev.Src.Host, staleRail),
			Pairs:      1,
		}, true
	case staleRails >= 2:
		return Verdict{
			Components: []component.ID{component.VSwitch(ev.Src.Host)},
			Layer:      LayerRNICValidation,
			Detail:     fmt.Sprintf("vswitch h%d shows stale offloads on %d rails (repeated invalidation / mis-ordered offloading)", ev.Src.Host, staleRails),
			Pairs:      1,
		}, true
	case notOffloaded > 0:
		return Verdict{
			Components: []component.ID{component.VSwitch(ev.Src.Host)},
			Layer:      LayerRNICValidation,
			Detail:     fmt.Sprintf("vswitch h%d left %d entries un-offloaded (flows on the software/TCP path)", ev.Src.Host, notOffloaded),
			Pairs:      1,
		}, true
	}
	return Verdict{}, false
}

// MergeVerdicts collapses verdicts naming the same (layer, component
// set) into one, summing the explained-pair counts and keeping first-
// seen order. Localize applies it within a batch; the sharded analyzer
// applies it again across shard outputs, so two tasks blaming the same
// switch still yield a single verdict per round.
func MergeVerdicts(vs []Verdict) []Verdict {
	type key string
	seen := map[key]int{}
	var out []Verdict
	for _, v := range vs {
		parts := make([]string, len(v.Components))
		for i, c := range v.Components {
			parts[i] = string(c)
		}
		k := key(fmt.Sprintf("%v|%s", v.Layer, strings.Join(parts, ",")))
		if idx, ok := seen[k]; ok {
			out[idx].Pairs += v.Pairs
			continue
		}
		seen[k] = len(out)
		out = append(out, v)
	}
	return out
}
