// Package netsim composes the structural substrates (topology, overlay)
// with dynamic component conditions into an end-to-end probe simulator:
// given two overlay endpoints it resolves the logical forwarding chain,
// maps tunnel legs onto ECMP underlay paths, and produces the RTT and
// loss outcome a real RDMA ping between the endpoints would observe.
//
// Everything SkeletonHunter measures in production — ~16 µs healthy
// RTTs, loss under switch faults, the 120 µs software-slow-path latency
// of the Fig. 18 offload inconsistency — is produced here from
// per-component conditions that the fault injector (internal/faults)
// manipulates.
//
// Concurrency: the probe hot path is built to be driven by many workers
// inside one engine event. All shared state consulted per probe is
// read-only during a round (conditions, the overlay, the interned
// fabric); everything mutable lives in a ProbeCtx that exactly one
// worker owns. Randomness is keyed per probe — each probe derives its
// own generator from (flow identity, entropy, time) — so outcomes do
// not depend on the order probes run in, which is what makes results
// bit-identical at any worker count.
package netsim

import (
	"math"
	"slices"
	"strconv"
	"time"

	"skeletonhunter/internal/overlay"
	"skeletonhunter/internal/sim"
	"skeletonhunter/internal/topology"
)

// Condition is the dynamic health state of one component. The zero
// value means healthy.
type Condition struct {
	// Down makes the component drop everything traversing it.
	Down bool
	// LossRate drops packets probabilistically (0..1).
	LossRate float64
	// ExtraLatency inflates one-way latency per traversal.
	ExtraLatency time.Duration
	// QueueBacklog marks the extra latency as congestion-backed: the
	// component's queue visibly builds (a mis-configured congestion
	// control, issue 19). Software- or firmware-induced latency leaves
	// queues flat — the signal the Fig. 18 investigation used to rule
	// out congestion.
	QueueBacklog bool
	// RampLatencyPerSec grows the extra latency linearly with simulated
	// time once now passes RampStart: the gray-failure shape where a
	// fault degrades gradually instead of arriving as a step, which
	// threshold detectors miss but drift change-point tests catch.
	RampLatencyPerSec time.Duration
	// RampStart is the simulated time the ramp begins accruing.
	RampStart time.Duration
	// Flap, when non-nil, makes the component periodically Down.
	Flap *Flap
}

// extraLatency returns the condition's latency inflation at time now:
// the constant ExtraLatency plus any accrued ramp.
func (c *Condition) extraLatency(now time.Duration) time.Duration {
	d := c.ExtraLatency
	if c.RampLatencyPerSec > 0 && now > c.RampStart {
		d += time.Duration(float64(c.RampLatencyPerSec) * (now - c.RampStart).Seconds())
	}
	return d
}

// Flap describes periodic unavailability: within every Period the
// component is down for the first DownFor.
type Flap struct {
	Period  time.Duration
	DownFor time.Duration
}

// effectiveDown reports whether the condition is down at time now.
func (c *Condition) effectiveDown(now time.Duration) bool {
	if c == nil {
		return false
	}
	if c.Down {
		return true
	}
	if c.Flap != nil && c.Flap.Period > 0 {
		if now%c.Flap.Period < c.Flap.DownFor {
			return true
		}
	}
	return false
}

// Latency model constants: one-way component costs calibrated so a
// healthy same-rail probe (2 links, 1 ToR) round-trips in ≈16 µs, the
// paper's expectation for RoCE (§1).
const (
	nicCost    = 3 * time.Microsecond   // host/NIC stack, each end
	linkCost   = 500 * time.Nanosecond  // propagation + serialization per link
	switchCost = 1500 * time.Nanosecond // per-switch forwarding
	// slowPathCost is the software-processing penalty when an offloaded
	// flow entry has been invalidated on the RNIC (Fig. 18: latency
	// jumped from ~16 µs to ~120 µs, i.e. ≈52 µs extra each way).
	slowPathCost = 52 * time.Microsecond
	// slowPathLossRate is the small loss (<0.1 %) observed alongside the
	// slow path in the Fig. 18 case.
	slowPathLossRate = 0.0008
)

// Transport models the RDMA transport-level reliability layer: lost
// exchanges are retransmitted instead of surfacing as loss, the way
// RoCE's go-back-N retry hides per-packet drops from the application.
// The masking is partial — every failed attempt adds the
// retransmission timeout to the measured RTT, and once loss outruns
// the retry budget the exchange fails outright — which is exactly the
// failure shape the rdma-mask scenario pack stresses: probes look
// clean (at inflated latency) while collective traffic is quietly
// burning its retry budget, until it collapses.
type Transport struct {
	// Retries is the number of retransmission attempts after a lost
	// exchange before the transport gives up and reports loss.
	Retries int
	// RetryLatency is the retransmission timeout added to the measured
	// RTT for each failed attempt.
	RetryLatency time.Duration
}

// Net is the probe-level network simulator.
type Net struct {
	Engine  *sim.Engine
	Fabric  *topology.Fabric
	Overlay *overlay.Network

	// TransientCongestionProb adds an occasional benign latency spike to
	// healthy probes (transient congestion / resource contention, §5.2)
	// so detection must actually filter noise. Zero disables.
	TransientCongestionProb float64

	// The probe hot path reads link and node conditions from dense
	// tables indexed by the fabric's interned ordinals, so a traversal
	// costs an array load instead of a string-keyed map lookup; probes
	// never traverse a link or node outside the fabric. Node conditions
	// are also kept by ID for QueueLength, which takes any NodeID.
	nodeCond  map[topology.NodeID]*Condition
	hostCond  map[int]*Condition
	linkCondD []*Condition // by link ordinal
	nodeCondD []*Condition // by node ordinal

	// Per-node queue occupancy estimate: exponentially decayed
	// traversal counts, the "switch queue length" operators consult to
	// confirm or rule out congestion (§7.2's Fig. 18 validation).
	// Probes tally traversals into their ProbeCtx; CommitQueues folds
	// the integer tallies in here at the round barrier. Each node gets
	// one float update per commit regardless of how the round's probes
	// were partitioned, so depths are bit-identical at any worker count.
	queueD       []queueState // by node ordinal
	qPend        []uint32     // commit-time integer staging, by node ordinal
	qPendTouched []int32

	// transport, when non-nil, retries lost exchanges (see Transport).
	// It is read by the probe hot path: set it only between rounds,
	// never while probes are in flight.
	transport *Transport

	// seedBase anchors the per-probe keyed RNG to the engine seed: it is
	// drawn once from a dedicated named stream at construction, so runs
	// with the same engine seed see the same probe outcomes.
	seedBase uint64

	// defaultCtx serves the serial ProbeInto/Probe entry points.
	defaultCtx *ProbeCtx
}

type queueState struct {
	depth float64
	last  time.Duration
}

// New returns a simulator over the given substrates.
func New(eng *sim.Engine, fab *topology.Fabric, ovl *overlay.Network) *Net {
	return &Net{
		Engine:    eng,
		Fabric:    fab,
		Overlay:   ovl,
		nodeCond:  make(map[topology.NodeID]*Condition),
		hostCond:  make(map[int]*Condition),
		linkCondD: make([]*Condition, fab.NumLinks()),
		nodeCondD: make([]*Condition, fab.NumNodes()),
		queueD:    make([]queueState, fab.NumNodes()),
		qPend:     make([]uint32, fab.NumNodes()),
		seedBase:  eng.Rand("netsim/probe-seed").Uint64(),
	}
}

// queueHalfLife is the decay half-life of the queue estimate.
const queueHalfLife = 2 * time.Second

func decayFactor(dt time.Duration) float64 {
	// 2^(-dt/halfLife) without importing math for a hot path: the
	// exponent is small, use the standard library after all — clarity
	// beats micro-optimizing a simulator.
	return math.Exp2(-float64(dt) / float64(queueHalfLife))
}

// QueueLength returns the node's current queue occupancy estimate (in
// packets): the decayed traversal count plus a backlog proportional to
// the condition's current latency inflation when that inflation is
// congestion-backed. Operators use this to distinguish genuine
// congestion from software-path slowness; ramped congestion shows a
// queue that grows round over round, the drift signal the second-layer
// correlator keys on.
func (n *Net) QueueLength(node topology.NodeID) float64 {
	depth := 0.0
	if ord, ok := n.Fabric.NodeIndex(node); ok {
		if q := &n.queueD[ord]; q.depth != 0 {
			depth = q.depth * decayFactor(n.Engine.Now()-q.last)
		}
	}
	now := n.Engine.Now()
	if c := n.nodeCond[node]; c != nil && c.QueueBacklog && !c.effectiveDown(now) {
		// ≈10 packets queued per µs of congestion latency, capped at the
		// buffer size a ToR would shoulder before ECN/PFC kicks in.
		backlog := 10 * float64(c.extraLatency(now)) / float64(time.Microsecond)
		if backlog > 500 {
			backlog = 500
		}
		depth += backlog
	}
	return depth
}

// SetLinkCondition installs (or, with nil, clears) a link's condition.
// A link outside the fabric is ignored: no probe traverses it.
func (n *Net) SetLinkCondition(id topology.LinkID, c *Condition) {
	if ord, ok := n.Fabric.LinkIndex(id); ok {
		n.linkCondD[ord] = c
	}
}

// SetNodeCondition installs (or clears) a switch/NIC node condition.
func (n *Net) SetNodeCondition(id topology.NodeID, c *Condition) {
	if ord, ok := n.Fabric.NodeIndex(id); ok {
		n.nodeCondD[ord] = c
	}
	if c == nil {
		delete(n.nodeCond, id)
		return
	}
	n.nodeCond[id] = c
}

// SetHostCondition installs (or clears) a host-board condition that
// affects every endpoint on the host (PCIe/NVLink-class issues).
func (n *Net) SetHostCondition(host int, c *Condition) {
	if c == nil {
		delete(n.hostCond, host)
		return
	}
	n.hostCond[host] = c
}

// SetTransport installs (or, with nil, removes) the transport-level
// retry model. Like condition changes it must not race the probe hot
// path: call it from an engine event, between rounds.
func (n *Net) SetTransport(t *Transport) { n.transport = t }

// TransportConfig returns the installed transport model (nil if none).
func (n *Net) TransportConfig() *Transport { return n.transport }

// Result is the outcome of one probe.
type Result struct {
	// Lost reports the probe (or its reply) never arrived.
	Lost bool
	// RTT is the measured round-trip time (valid only when !Lost).
	RTT time.Duration
	// UnderlayPath lists the physical links of every tunnel leg actually
	// traversed (the view a traceroute with the same flow would return),
	// as fabric link ordinals (topology.Fabric.LinkByIndex renders them).
	UnderlayPath []int32
}

// ProbeCtx is the per-caller mutable state of the probe hot path: a
// forwarding-trace cache, the scratch that fills it, and the round's
// queue-traversal tallies.
//
// The trace cache keeps, per flow, what the probe walk reads of
// overlay.TraceForward plus the flow's ECMP hashes, so a probe that
// hits does one integer-keyed lookup and no string work. There is one
// table per source VNI, keyed by the packed (host, rail) ordinals of
// the source and destination; an entry serves a probe only if its
// source IP, destination IP and source host match too, so endpoints
// that share a NIC, or an Addr whose Host is stale, are re-traced into
// the slot (a miss) rather than served another flow's trace.
//
// Ownership contract: a ProbeCtx belongs to exactly one worker at a
// time — calls into ProbeIntoCtx with the same ctx must not overlap.
// The round engine gives each worker slot its own ctx; CommitQueues and
// TakeMisses are called from the serial round barrier, never
// concurrently with probes.
// The -race campaign test in internal/hunter exercises exactly this
// contract.
type ProbeCtx struct {
	// traces holds one table per source VNI. A VNI's table is valid
	// while its VNIGen holds still, and every table while the fleet-wide
	// Gen does. Skeleton ping lists re-probe the same pairs every round,
	// so after the first round of a quiescent tenant every probe hits,
	// and one tenant's churn costs no other tenant a miss.
	traces   map[overlay.VNI]*vniTraces
	traceGen uint64
	misses   uint64 // TraceForward calls since the last TakeMisses
	rails    uint32 // rails per host: packs a (host, rail) into an ordinal

	// Fill scratch: the chain a miss resolves into, and the flow
	// identity bytes its hashes are taken over.
	chain   []overlay.Component
	hashBuf []byte

	// qCount tallies node traversals by node ordinal; qTouched lists the
	// ordinals with nonzero tallies (sparse reset).
	qCount   []uint32
	qTouched []int32
}

// vniTraces is one source VNI's trace table. Entries, legs and leg
// hashes live in arenas that are truncated, capacity kept, when the
// VNI's generation moves, so refilling a tenant after its churn
// allocates nothing.
type vniTraces struct {
	gen     uint64           // the VNIGen the table was filled at
	slots   map[uint64]int32 // packed (src, dst) NIC ordinals → index in entries
	entries []traceEntry
	legs    []overlay.TunnelLeg // each reached entry's legs, contiguous
	legHash []uint64            // legHash[i]: fnv("VNI/srcIP>dstIP#k") of legs[i], its k-th leg
}

// traceEntry is the part of one flow's trace the probe walk reads. The
// chain is not kept: nothing downstream of a probe reads it, and the
// localizer traces afresh. An unreached entry keeps no legs or hashes:
// the probe dies before reading them.
type traceEntry struct {
	srcIP, dstIP string
	flowHash     uint64 // fnv("VNI/srcIP>dstIP"): the probe's RNG key
	srcHost      int
	// legs[legOff:legOff+legCap] is the entry's room in the table's
	// arena, of which it uses nLegs (a reached chain has < 64 legs).
	legOff        uint32
	nLegs, legCap uint8
	reached       bool // false also for an unregistered source
	slowPath      bool
}

// NewProbeCtx returns a probe context sized for this simulator's
// fabric. Each concurrent prober needs its own.
func (n *Net) NewProbeCtx() *ProbeCtx {
	return &ProbeCtx{
		traces: make(map[overlay.VNI]*vniTraces),
		rails:  uint32(n.Fabric.Spec.Rails),
		qCount: make([]uint32, n.Fabric.NumNodes()),
	}
}

// TakeMisses returns the number of trace-cache misses since the last
// call and resets the count. Like CommitQueues it belongs to the round
// barrier, never to a moment when the ctx is probing.
func (ctx *ProbeCtx) TakeMisses() uint64 {
	m := ctx.misses
	ctx.misses = 0
	return m
}

func (ctx *ProbeCtx) bump(ord int32) {
	if ctx.qCount[ord] == 0 {
		ctx.qTouched = append(ctx.qTouched, ord)
	}
	ctx.qCount[ord]++
}

// trace resolves (and memoizes) the overlay forwarding outcome of a
// flow, returning its entry with the entry's legs and their ECMP
// hashes. A move of the fleet-wide generation drops every VNI's table
// (a retired VNI's with it); a move of the source VNI's generation
// resets that VNI's table only, keeping its capacity.
func (ctx *ProbeCtx) trace(n *Net, src, dst overlay.Addr) (*traceEntry, []overlay.TunnelLeg, []uint64) {
	if g := n.Overlay.Gen(); g != ctx.traceGen {
		clear(ctx.traces)
		ctx.traceGen = g
	}
	g := n.Overlay.VNIGen(src.VNI)
	vt := ctx.traces[src.VNI]
	if vt == nil {
		vt = &vniTraces{gen: g, slots: make(map[uint64]int32)}
		ctx.traces[src.VNI] = vt
	} else if vt.gen != g {
		vt.reset(g)
	}
	k := uint64(ctx.nicOrd(src))<<32 | uint64(ctx.nicOrd(dst))
	i, ok := vt.slots[k]
	if !ok {
		i = int32(len(vt.entries))
		vt.entries = append(vt.entries, traceEntry{})
		vt.slots[k] = i
	}
	e := &vt.entries[i]
	if !ok || e.srcIP != src.IP || e.dstIP != dst.IP || e.srcHost != src.Host {
		ctx.misses++
		ctx.fill(n, vt, e, src, dst.IP)
	}
	end := e.legOff + uint32(e.nLegs)
	return e, vt.legs[e.legOff:end], vt.legHash[e.legOff:end]
}

// nicOrd packs an endpoint's (host, rail) into its NIC ordinal.
func (ctx *ProbeCtx) nicOrd(a overlay.Addr) uint32 {
	return uint32(a.Host)*ctx.rails + uint32(a.Rail)
}

// reset empties the table for generation g, keeping every capacity.
func (vt *vniTraces) reset(g uint64) {
	vt.gen = g
	clear(vt.slots)
	clear(vt.entries) // drop the IP strings the dead entries hold
	vt.entries = vt.entries[:0]
	vt.legs = vt.legs[:0]
	vt.legHash = vt.legHash[:0]
}

// fill traces src → dstIP into e, writing a reached trace's legs and
// hashes into the table's arenas: into the room e already has when they
// fit (a slot re-traced for another flow), at the arenas' end
// otherwise. The hashes are the ones a probe would take over the flow
// identity bytes, so memoizing them changes no ECMP choice or RNG draw.
func (ctx *ProbeCtx) fill(n *Net, vt *vniTraces, e *traceEntry, src overlay.Addr, dstIP string) {
	off := len(vt.legs)
	tr := overlay.Trace{Chain: ctx.chain, TunnelLegs: vt.legs}
	err := n.Overlay.TraceForwardInto(&tr, src, dstIP)
	ctx.chain, vt.legs = tr.Chain, tr.TunnelLegs
	*e = traceEntry{
		srcIP: src.IP, dstIP: dstIP, srcHost: src.Host,
		legOff: e.legOff, legCap: e.legCap,
		reached: err == nil && tr.Outcome == overlay.Reached, slowPath: tr.SlowPath,
	}
	legs := vt.legs[off:]
	switch {
	case !e.reached:
		vt.legs = vt.legs[:off] // the probe dies before reading them
		return
	case len(legs) <= int(e.legCap):
		copy(vt.legs[e.legOff:], legs)
		vt.legs = vt.legs[:off]
	default:
		e.legOff, e.legCap = uint32(off), uint8(len(legs))
		vt.legHash = slices.Grow(vt.legHash, len(legs))[:len(vt.legs)]
	}
	e.nLegs = uint8(len(legs))

	b := strconv.AppendUint(ctx.hashBuf[:0], uint64(src.VNI), 10)
	b = append(b, '/')
	b = append(b, src.IP...)
	b = append(b, '>')
	b = append(b, dstIP...)
	e.flowHash = fnv(b)
	base := len(b)
	for k := 0; k < int(e.nLegs); k++ {
		b = append(b[:base], '#')
		b = strconv.AppendInt(b, int64(k), 10)
		vt.legHash[int(e.legOff)+k] = fnv(b)
	}
	ctx.hashBuf = b
}

// CommitQueues folds the queue tallies of one or more probe contexts
// into the simulator's queue estimates at the current time. It must be
// called serially (the round barrier), never while probes are in
// flight. Tallies are summed as integers across all contexts and each
// node's depth gets a single float update, so the result is identical
// however the round's probes were partitioned across contexts.
func (n *Net) CommitQueues(ctxs ...*ProbeCtx) {
	now := n.Engine.Now()
	for _, ctx := range ctxs {
		for _, ord := range ctx.qTouched {
			if n.qPend[ord] == 0 {
				n.qPendTouched = append(n.qPendTouched, ord)
			}
			n.qPend[ord] += ctx.qCount[ord]
			ctx.qCount[ord] = 0
		}
		ctx.qTouched = ctx.qTouched[:0]
	}
	for _, ord := range n.qPendTouched {
		q := &n.queueD[ord]
		if dt := now - q.last; dt > 0 && q.depth != 0 {
			q.depth *= decayFactor(dt)
		}
		q.depth += float64(n.qPend[ord])
		q.last = now
		n.qPend[ord] = 0
	}
	n.qPendTouched = n.qPendTouched[:0]
}

// Probe simulates one ping from src to dst at the engine's current
// time. entropy differentiates flows for ECMP hashing: probers vary it
// (like varying UDP source ports) to spread probes over equal-cost
// paths, which is what gives tomography its coverage.
func (n *Net) Probe(src, dst overlay.Addr, entropy uint64) Result {
	var res Result
	n.ProbeInto(&res, src, dst, entropy)
	return res
}

// ProbeInto is the buffer-reusing form of Probe for serial callers: it
// resets *res and refills it, reusing the UnderlayPath backing array
// across calls. It drives an internal default ProbeCtx
// and commits queue tallies immediately, so its observable behaviour
// matches the historical serial path; concurrent callers use
// ProbeIntoCtx with contexts of their own.
func (n *Net) ProbeInto(res *Result, src, dst overlay.Addr, entropy uint64) {
	if n.defaultCtx == nil {
		n.defaultCtx = n.NewProbeCtx()
	}
	n.ProbeIntoCtx(n.defaultCtx, res, src, dst, entropy)
	n.CommitQueues(n.defaultCtx)
}

// effects accumulates the latency and loss a probe picks up along its
// traversal. Methods take a pointer receiver but never leak it, so the
// accumulator stays on the caller's stack (the closures this replaces
// allocated per probe).
type effects struct {
	latency  time.Duration
	lossProb float64
}

func (e *effects) addLoss(p float64) {
	if p != 0 {
		e.lossProb = 1 - (1-e.lossProb)*(1-p)
	}
}

// apply folds one component condition in; false means the component is
// down and the probe dies there.
func (e *effects) apply(c *Condition, now time.Duration) bool {
	if c == nil {
		return true
	}
	if c.effectiveDown(now) {
		return false
	}
	e.addLoss(c.LossRate)
	e.latency += c.extraLatency(now)
	return true
}

// ProbeIntoCtx simulates one ping using caller-owned scratch state.
// It only reads the simulator's shared state (conditions, overlay,
// fabric), so any number of workers may probe concurrently as long as
// each drives its own ctx and nothing mutates the network mid-round.
//
// Outcomes are a pure function of (engine seed, flow identity, entropy,
// time): the probe's randomness comes from a sim.SplitMix64 keyed by
// those, not from a shared sequential stream, so results do not
// depend on the order in which a round's probes execute.
func (n *Net) ProbeIntoCtx(ctx *ProbeCtx, res *Result, src, dst overlay.Addr, entropy uint64) {
	now := n.Engine.Now()

	*res = Result{UnderlayPath: res.UnderlayPath[:0]}
	tr, legs, legHash := ctx.trace(n, src, dst)
	if !tr.reached {
		// A broken or looped chain, or an unregistered source that
		// cannot even leave its vport.
		res.Lost = true
		return
	}

	// The probe's RNG is keyed by the flow identity hash the trace
	// memoized, fnv("VNI/srcIP>dstIP").
	rng := sim.SplitMix64(n.seedBase ^ tr.flowHash ^ entropy*0x9e3779b97f4a7c15 ^ uint64(now)*0x94d049bb133111eb)

	var ef effects

	// Host-board conditions at both ends.
	if !ef.apply(n.hostCond[src.Host], now) || !ef.apply(n.hostCond[dst.Host], now) {
		res.Lost = true
		return
	}

	if tr.slowPath {
		ef.latency += slowPathCost
		ef.addLoss(slowPathLossRate)
	}

	// Walk each tunnel leg over its ECMP-selected underlay path, chosen
	// by the leg's memoized fnv("VNI/srcIP>dstIP#leg") mixed with the
	// entropy. The path is consumed through a stack PathView — no Path
	// slices are materialized — and conditions are read from the dense
	// ordinal-indexed tables.
	var pv topology.PathView
	for k, leg := range legs {
		srcNIC := topology.NIC{Host: leg.SrcHost, Rail: leg.SrcRail}
		dstNIC := topology.NIC{Host: leg.DstHost, Rail: leg.DstRail}
		if err := n.Fabric.PathViewByHash(srcNIC, dstNIC, legHash[k]^entropy, &pv); err != nil {
			res.Lost = true
			return
		}
		res.UnderlayPath = pv.LinkOrdinals(res.UnderlayPath)

		last := pv.Len() - 1
		for i := 0; i <= last; i++ {
			ord := pv.NodeOrdinal(i)
			ctx.bump(ord)
			if !ef.apply(n.nodeCondD[ord], now) {
				res.Lost = true
				return
			}
			if i == 0 || i == last {
				ef.latency += nicCost
			} else {
				ef.latency += switchCost
			}
		}
		for i := 0; i < pv.NumLinks(); i++ {
			if !ef.apply(n.linkCondD[pv.LinkOrdinal(i)], now) {
				res.Lost = true
				return
			}
			ef.latency += linkCost
		}
	}
	if len(legs) == 0 {
		// Same-host delivery through the vswitch only.
		ef.latency += 2 * time.Microsecond
	}

	// Round trip: the reply retraces the same components (RoCE probes
	// are symmetric at this modeling granularity).
	rtt := 2 * ef.latency

	// Benign transient congestion.
	if n.TransientCongestionProb > 0 && rng.Float64() < n.TransientCongestionProb {
		rtt += time.Duration(expFloat64(&rng) * float64(20*time.Microsecond))
	}
	// Measurement jitter: multiplicative lognormal-ish noise, ~±8 %.
	jitter := 1 + 0.08*normFloat64(&rng)
	if jitter < 0.5 {
		jitter = 0.5
	}
	rtt = time.Duration(float64(rtt) * jitter)

	// Two chances to die: request and reply. With a transport model
	// installed, a lost exchange is retransmitted up to Retries times,
	// each failed attempt adding the retransmission timeout to the
	// measured RTT; the probe surfaces as Lost only when every attempt
	// dies. Without one (the zero-configuration default) the draws below
	// are byte-identical to the historical single-attempt path.
	attempts := 1
	var retryLatency time.Duration
	if n.transport != nil {
		attempts += n.transport.Retries
		retryLatency = n.transport.RetryLatency
	}
	for a := 0; a < attempts; a++ {
		if !(rng.Float64() < ef.lossProb || rng.Float64() < ef.lossProb) {
			res.RTT = rtt
			return
		}
		rtt += retryLatency
	}
	res.Lost = true
}

// expFloat64 returns an exponential draw with mean 1.
func expFloat64(r *sim.SplitMix64) float64 { return -math.Log(1 - r.Float64()) }

// normFloat64 returns a standard normal draw (Box–Muller).
func normFloat64(r *sim.SplitMix64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// fnv hashes bytes with FNV-1a; it anchors both ECMP path selection and
// the per-probe RNG seed.
func fnv(s []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	var h uint64 = offset
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
