// Package detect implements connectivity anomaly detection (§5.2): the
// analyzer-side statistical machinery that turns raw probe samples into
// anomaly verdicts while filtering transient congestion spikes.
//
// Per endpoint pair it maintains two temporal aggregations:
//
//   - short-term: 30-second windows summarized by seven order/moment
//     features; each closed window is scored with the local outlier
//     factor against a five-minute look-back, flagging abrupt latency
//     shifts;
//   - long-term: 30-minute windows Z-tested against a lognormal
//     reference fitted on the pair's first healthy long window,
//     catching gradual degradation that creeps into the short-term
//     history (Fig. 14).
//
// A pair's state is bounded however long it is watched: the long
// window is its log-moments (stats.LogMoments) plus the last 100 RTTs
// a long-term anomaly carries as evidence, and the look-back is a
// fixed array of ten summary vectors. Only the open short window's
// RTTs grow with the probing rate.
//
// Loss is handled directly: a window losing every probe is
// unconnectivity; a loss rate above threshold is a packet-loss anomaly.
package detect

import (
	"fmt"
	"sort"
	"time"

	"skeletonhunter/internal/stats"
)

// PairKey identifies a monitored endpoint pair (direction-sensitive:
// offload staleness and similar faults are one-sided).
type PairKey struct {
	Task                  string
	SrcContainer, SrcRail int
	DstContainer, DstRail int
}

func (k PairKey) String() string {
	return fmt.Sprintf("%s:c%d/r%d→c%d/r%d", k.Task, k.SrcContainer, k.SrcRail, k.DstContainer, k.DstRail)
}

// Less orders pair keys lexicographically by (task, src container, src
// rail, dst container, dst rail) — the canonical order every
// deterministic iteration over pairs uses (analyzer evidence assembly
// and flush).
func (k PairKey) Less(o PairKey) bool {
	if k.Task != o.Task {
		return k.Task < o.Task
	}
	if k.SrcContainer != o.SrcContainer {
		return k.SrcContainer < o.SrcContainer
	}
	if k.SrcRail != o.SrcRail {
		return k.SrcRail < o.SrcRail
	}
	if k.DstContainer != o.DstContainer {
		return k.DstContainer < o.DstContainer
	}
	return k.DstRail < o.DstRail
}

// AnomalyType classifies what the detector saw.
type AnomalyType int

const (
	// Unconnectivity: every probe in the window was lost.
	Unconnectivity AnomalyType = iota
	// PacketLoss: loss rate above threshold but connectivity remains.
	PacketLoss
	// LatencyShortTerm: the window's latency profile is a local outlier
	// versus the look-back (abrupt shift).
	LatencyShortTerm
	// LatencyLongTerm: the long window's latency rejects the fitted
	// lognormal reference (gradual degradation).
	LatencyLongTerm
)

func (t AnomalyType) String() string {
	switch t {
	case Unconnectivity:
		return "unconnectivity"
	case PacketLoss:
		return "packet-loss"
	case LatencyShortTerm:
		return "latency-short-term"
	case LatencyLongTerm:
		return "latency-long-term"
	default:
		return fmt.Sprintf("anomaly(%d)", int(t))
	}
}

// Anomaly is one detection.
type Anomaly struct {
	Key   PairKey
	Type  AnomalyType
	At    time.Duration // window close time
	Score float64       // LOF score, |Z| statistic, or loss rate
	// WindowRTTs carries the offending window's latency samples (µs)
	// for the localizer's evidence trail.
	WindowRTTs []float64
}

// The paper's fixed detection parameters.
const (
	longWindow    = 30 * time.Minute
	lookBack      = 10  // short windows of LOF history (5 minutes)
	features      = 4   // robust descriptors per short window (robustVector)
	tailLen       = 100 // long-window RTTs a long-term anomaly carries
	lofNeighbors  = 5
	lossThreshold = 0.02
	minSamples    = 5 // minimum probes per window to evaluate
)

// Config tunes detection. Zero values select the paper's parameters.
type Config struct {
	ShortWindow  time.Duration // default 30 s
	LOFThreshold float64       // default 4
	ZThreshold   float64       // |Z| beyond which the long window fails (default 6)
}

func (c Config) withDefaults() Config {
	if c.ShortWindow == 0 {
		c.ShortWindow = 30 * time.Second
	}
	if c.LOFThreshold == 0 {
		// Healthy windows occasionally reach LOF ≈ 3 against a 10-window
		// look-back (the score's tail is heavy at small history sizes);
		// genuine faults score orders of magnitude higher, so the
		// default sits safely between the two populations.
		c.LOFThreshold = 4.0
	}
	if c.ZThreshold == 0 {
		c.ZThreshold = 6
	}
	return c
}

// Pair is one endpoint pair's detection state: the open short and long
// windows, the short-window look-back and the long-term reference. The
// detector keeps no pairs of its own; the caller owns one Pair per
// monitored pair (the analyzer keeps it in its pair-table slot) and
// forgets a pair by dropping it. The zero value is a pair not yet
// observed.
//
// Its size does not grow with time: beyond the fixed fields it holds
// two heap slices, the open short window's RTTs and the long window's
// tail of at most tailLen RTTs.
type Pair struct {
	open bool // a sample has arrived: the windows below are anchored

	// Short-term accumulation.
	winStart time.Duration
	rtts     []float64 // µs
	lost     int
	total    int
	// history holds the robust vectors of the last nhist ≤ lookBack
	// healthy windows end to end, oldest first: a copy-shift ring
	// inside the pair, so the look-back never allocates.
	history [lookBack * features]float64
	nhist   int

	// Long-term accumulation: the window's log-moments, and its last
	// tailLen RTTs (µs) for a long-term anomaly's evidence. The tail
	// stays nil until ref is fitted, since no window before that can
	// emit; once full it is a ring whose oldest sample is at tailHead.
	longStart time.Duration
	long      stats.LogMoments
	tail      []float64
	tailHead  int
	ref       stats.LogNormal
	fitted    bool // ref holds the first long window's fit
}

// Detector is the streaming anomaly detector. Feed it a pair's samples
// with ObserveMany; it emits anomalies through the callback as windows
// close. Not safe for concurrent use (the analyzer owns one per shard).
type Detector struct {
	cfg       Config
	emit      func(Anomaly)
	Evaluated int // closed short windows, for introspection

	// Window-close scratch, reused by every pair: the sorted copy of
	// the closing window, its robust vector, and the LOF tables.
	sorted []float64
	vec    [4]float64
	lof    stats.LOFScratch
}

// New returns a detector delivering anomalies to emit.
func New(cfg Config, emit func(Anomaly)) *Detector {
	return &Detector{cfg: cfg.withDefaults(), emit: emit}
}

// Sample is one probe outcome, the unit of the batched ingest path.
type Sample struct {
	At   time.Duration
	RTT  time.Duration
	Lost bool
}

// ObserveMany ingests a run of probe results for the pair key names,
// whose state is st: an agent's probing round delivers all of a pair's
// probes contiguously, so the analyzer calls this once per pair run.
// Samples must be in non-decreasing time order; a lost sample's RTT is
// ignored. Windows close lazily when a sample arrives past the
// boundary; call Flush to force evaluation at the end of a run.
func (d *Detector) ObserveMany(key PairKey, st *Pair, samples []Sample) {
	if len(samples) == 0 {
		return
	}
	if !st.open {
		st.open = true
		st.winStart, st.longStart = samples[0].At, samples[0].At
	}
	for _, s := range samples {
		d.observe(key, st, s)
	}
}

func (d *Detector) observe(key PairKey, st *Pair, s Sample) {
	if s.At >= st.winStart+d.cfg.ShortWindow {
		d.closeShort(key, st, s.At)
	}
	if s.At >= st.longStart+longWindow {
		d.closeLong(key, st, s.At)
	}
	st.total++
	if s.Lost {
		st.lost++
		return
	}
	us := float64(s.RTT) / float64(time.Microsecond)
	st.rtts = append(st.rtts, us)
	st.long.Add(us)
	if st.fitted {
		st.keepTail(us)
	}
}

// keepTail records us as the long window's newest RTT. The tail grows
// by doubling up to tailLen, then overwrites its oldest sample.
func (st *Pair) keepTail(us float64) {
	switch {
	case len(st.tail) < cap(st.tail):
		st.tail = append(st.tail, us)
	case len(st.tail) < tailLen:
		grown := make([]float64, len(st.tail), min(max(2*len(st.tail), 16), tailLen))
		copy(grown, st.tail)
		st.tail = append(grown, us)
	default:
		st.tail[st.tailHead] = us
		st.tailHead = (st.tailHead + 1) % tailLen
	}
}

// tailRTTs returns a copy of the tail, oldest first.
func (st *Pair) tailRTTs() []float64 {
	out := make([]float64, 0, len(st.tail))
	out = append(out, st.tail[st.tailHead:]...)
	return append(out, st.tail[:st.tailHead]...)
}

// Flush closes the pair's open windows at the given time; a pair never
// observed is left as it is. The caller visits its pairs in a
// deterministic order (the analyzer walks its slots in key order), so
// the flush-path anomaly sequence is a pure function of their state.
func (d *Detector) Flush(key PairKey, st *Pair, at time.Duration) {
	if !st.open {
		return
	}
	d.closeShort(key, st, at)
	if at >= st.longStart+longWindow {
		d.closeLong(key, st, at)
	}
}

func (d *Detector) closeShort(key PairKey, st *Pair, now time.Duration) {
	defer func() {
		st.winStart = now
		st.rtts = st.rtts[:0]
		st.lost = 0
		st.total = 0
	}()
	if st.total < minSamples {
		return
	}
	d.Evaluated++
	at := st.winStart + d.cfg.ShortWindow

	// Loss first: a window with zero surviving probes is unconnectivity;
	// partial loss above threshold is a packet-loss anomaly.
	lossRate := float64(st.lost) / float64(st.total)
	if st.lost == st.total {
		d.emit(Anomaly{Key: key, Type: Unconnectivity, At: at, Score: 1})
		return
	}
	if lossRate > lossThreshold {
		d.emit(Anomaly{Key: key, Type: PacketLoss, At: at, Score: lossRate,
			WindowRTTs: append([]float64(nil), st.rtts...)})
		// Loss windows still get latency evaluation below: flapping
		// components often inflate latency too.
	}

	// LOF operates on a robust subset of the window descriptors: the
	// quartiles plus a 10–90 % trimmed mean. The remaining summary
	// fields (min/max/std/mean) are computed for the evidence trail but
	// excluded from the outlier score — a couple of transient congestion
	// spikes inside a 30-sample window can swing max and std by an
	// order of magnitude without any component being at fault, while a
	// genuine fault (slow path, firmware, misconfiguration) shifts the
	// entire distribution and therefore the order statistics.
	vec := d.robustVector(st.rtts)
	if st.nhist >= 6 {
		score := stats.LOFScore(&d.lof, vec, st.history[:st.nhist*features], features, lofNeighbors)
		if score > d.cfg.LOFThreshold {
			d.emit(Anomaly{Key: key, Type: LatencyShortTerm, At: at, Score: score,
				WindowRTTs: append([]float64(nil), st.rtts...)})
			// Anomalous windows are not folded into history: a persistent
			// fault must keep alarming rather than become the new normal.
			return
		}
	}
	if st.nhist == lookBack {
		copy(st.history[:], st.history[features:])
		st.nhist--
	}
	copy(st.history[st.nhist*features:], vec)
	st.nhist++
}

func (d *Detector) closeLong(key PairKey, st *Pair, now time.Duration) {
	defer func() {
		st.longStart = now
		st.long = stats.LogMoments{}
		st.tail, st.tailHead = st.tail[:0], 0
	}()
	if st.long.Len() < minSamples*10 {
		return
	}
	at := st.longStart + longWindow
	if !st.fitted {
		// First long window: fit the reference distribution (time T of
		// Fig. 14). The fit assumes the pair starts healthy; a pair that
		// is anomalous from birth is caught by the short-term detector.
		if ref, err := st.long.Fit(); err == nil {
			st.ref, st.fitted = ref, true
		}
		return
	}
	z, _, err := st.ref.ZTestMoments(st.long)
	if err != nil {
		return
	}
	if z < 0 {
		z = -z
	}
	if z > d.cfg.ZThreshold {
		d.emit(Anomaly{Key: key, Type: LatencyLongTerm, At: at, Score: z,
			WindowRTTs: st.tailRTTs()})
	}
}

// robustVector summarizes a window by outlier-resistant order
// statistics: P25, P50, P75 and the 10–90 % trimmed mean. It sorts a
// copy of rtts in the detector's buffer and returns the detector's
// vector, which the next call overwrites.
func (d *Detector) robustVector(rtts []float64) []float64 {
	d.sorted = append(d.sorted[:0], rtts...)
	s := d.sorted
	sort.Float64s(s)
	lo := len(s) / 10
	hi := len(s) - lo
	var trimmed float64
	for _, v := range s[lo:hi] {
		trimmed += v
	}
	if hi > lo {
		trimmed /= float64(hi - lo)
	}
	d.vec = [4]float64{
		stats.Percentile(s, 0.25),
		stats.Percentile(s, 0.50),
		stats.Percentile(s, 0.75),
		trimmed,
	}
	return d.vec[:]
}
