// Package obs is the monitoring plane's self-observability substrate:
// counters and histograms that let SkeletonHunter report on its own
// health the same way it reports on the network's. The paper's deployed
// value rests on the telemetry plane staying correct while ~2K
// containers/min churn under it (§6, §7.3); that property is only
// checkable if the plane counts what it ingests, what it drops, and how
// long each analysis stage takes.
//
// One Stats value is shared by every layer of a deployment's ingest
// path (agents → batches → log store → shards → detector → localizer).
// Counters are lock-free atomics; histograms take a short mutex per
// observation. Recording wall-clock timings into histograms never feeds
// back into the simulation, so alarms stay bit-identical whether or not
// stats are collected.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter names one self-monitoring event class.
type Counter int

const (
	// ProbeRounds counts completed agent probing rounds.
	ProbeRounds Counter = iota
	// ProbesSent counts individual probes executed by agents.
	ProbesSent
	// BatchesIngested counts agent round batches that reached the
	// deployment's ingest path (after telemetry-fault filtering).
	BatchesIngested
	// BatchesDropped counts batches lost to injected telemetry faults.
	BatchesDropped
	// BatchesDuplicated counts batches delivered twice by injected
	// telemetry faults.
	BatchesDuplicated
	// BatchesReordered counts batches delivered out of order by
	// injected telemetry faults.
	BatchesReordered
	// RecordsIngested counts probe records queued in shard inboxes.
	RecordsIngested
	// RecordsShed counted probe records refused by a full shard inbox.
	// Inboxes no longer refuse records, so it stays 0; it remains only
	// because the repository benchmark still reports it.
	RecordsShed
	// RecordsDrained counts inbox records drained into the detectors —
	// the analysis pipeline's detect stage.
	RecordsDrained
	// RecordsWithdrawn counts inbox records dropped before reaching a
	// detector: a gracefully stopped container's, a finished task's, or
	// an analyzer crash's. Once the analyzer is flushed, every ingested
	// record is drained or withdrawn.
	RecordsWithdrawn
	// RecordsLogged counts records retained by the log store.
	RecordsLogged
	// IndexKeysDropped is never incremented: the log store it counted
	// for no longer keeps an index (queries scan the ring). It stays
	// declared because benchmark/ — frozen, so results stay comparable
	// across commits — reads it by name.
	IndexKeysDropped
	// WindowsEvaluated counts detector windows closed with enough
	// samples to evaluate.
	WindowsEvaluated
	// AnomaliesDetected counts anomalies emitted by the detectors.
	AnomaliesDetected
	// RoundsRun counts completed analysis rounds.
	RoundsRun
	// RoundsDelayed counts analysis rounds withheld by an injected
	// delay (the round's work waits for the next tick).
	RoundsDelayed
	// AlarmsRaised counts alarms raised by the analyzer.
	AlarmsRaised
	// AgentCrashes counts sidecar agents killed by injected crash
	// storms.
	AgentCrashes
	// AgentRestarts counts sidecar agents brought back after a crash.
	AgentRestarts
	// CheckpointsTaken counts control-plane checkpoints written by the
	// periodic checkpointer (or taken explicitly).
	CheckpointsTaken
	// ControllerCrashes counts injected controller-process crashes.
	ControllerCrashes
	// ControllerRestores counts controller recoveries from a checkpoint.
	ControllerRestores
	// AgentReregisters counts agents that noticed a controller epoch
	// change and re-registered under the new incarnation.
	AgentReregisters
	// IncidentsOpened counts incidents minted by the alarm→incident
	// correlator.
	IncidentsOpened
	// IncidentsReopened counts flap-reopens of resolved incidents.
	IncidentsReopened
	// IncidentsMitigated counts open→mitigating transitions.
	IncidentsMitigated
	// IncidentsResolved counts mitigating→resolved transitions.
	IncidentsResolved
	// ProbeRoundsGrouped counts grouped probe-round barrier firings of
	// the parallel round engine (each covers every agent due that tick).
	ProbeRoundsGrouped
	// WorkerBusyNanos accumulates wall-clock nanoseconds probe-round
	// workers spent executing shard work.
	WorkerBusyNanos
	// WorkerWallNanos accumulates wall-clock nanoseconds of the round's
	// parallel section multiplied by the worker count — the capacity the
	// busy time is measured against. busy/wall is worker utilization.
	WorkerWallNanos
	// IncidentsRepaired counts incidents whose time-to-repair clock was
	// stopped by a committed remediation.
	IncidentsRepaired
	// RemedyActionsExecuted counts remediation actions the policy engine
	// executed against the control plane.
	RemedyActionsExecuted
	// RemedyActionsDeferred counts remediation actions postponed by a
	// safety rail (window budget or blast-radius cap); deferred actions
	// re-queue, they are never dropped.
	RemedyActionsDeferred
	// RemedyActionsCommitted counts executed actions whose post-action
	// health re-check passed.
	RemedyActionsCommitted
	// RemedyActionsRolledBack counts executed actions undone because the
	// symptom persisted through the verify window.
	RemedyActionsRolledBack
	// RemedyActionsEscalated counts actions handed to a human operator:
	// execution failures, failed verifies, and plans whose blast radius
	// can never fit under the cap.
	RemedyActionsEscalated
	// RemedyDryRunIntents counts actions the engine would have executed
	// in dry-run mode (intent recorded, nothing touched).
	RemedyDryRunIntents
	// ChangepointsRaised counts CUSUM threshold crossings in the
	// correlate layer (both directions, before clustering and dedup).
	ChangepointsRaised
	// AlarmsDeduped counts gray-alarm candidates collapsed into an
	// existing alarm by the stable-bloom dedup stage.
	AlarmsDeduped
	// ChainsEmitted counts lead-lag causal chains attached to gray
	// alarms as incident evidence.
	ChainsEmitted
	// ReplayTruncated counts controller recoveries whose log replay was
	// cut short: the ring had already overwritten records newer than
	// the checkpoint being recovered from.
	ReplayTruncated
	// EvidenceTruncated counts evidence gathers whose look-back window
	// reaches past the oldest record the ring still holds.
	EvidenceTruncated
	// TraceCacheMisses counts probes whose overlay forwarding trace was
	// not in their worker's cache and had to be resolved afresh — the
	// probe-plane cost of container churn and overlay faults.
	TraceCacheMisses

	numCounters
)

// counterNames is the exported name of every counter, indexed by Counter.
var counterNames = [numCounters]string{
	ProbeRounds:             "probe-rounds",
	ProbesSent:              "probes-sent",
	BatchesIngested:         "batches-ingested",
	BatchesDropped:          "batches-dropped",
	BatchesDuplicated:       "batches-duplicated",
	BatchesReordered:        "batches-reordered",
	RecordsIngested:         "records-ingested",
	RecordsShed:             "records-shed",
	RecordsDrained:          "records-drained",
	RecordsWithdrawn:        "records-withdrawn",
	RecordsLogged:           "records-logged",
	IndexKeysDropped:        "index-keys-dropped",
	WindowsEvaluated:        "windows-evaluated",
	AnomaliesDetected:       "anomalies-detected",
	RoundsRun:               "rounds-run",
	RoundsDelayed:           "rounds-delayed",
	AlarmsRaised:            "alarms-raised",
	AgentCrashes:            "agent-crashes",
	AgentRestarts:           "agent-restarts",
	CheckpointsTaken:        "checkpoints-taken",
	ControllerCrashes:       "controller-crashes",
	ControllerRestores:      "controller-restores",
	AgentReregisters:        "agent-reregisters",
	IncidentsOpened:         "incidents-opened",
	IncidentsReopened:       "incidents-reopened",
	IncidentsMitigated:      "incidents-mitigated",
	IncidentsResolved:       "incidents-resolved",
	ProbeRoundsGrouped:      "probe-rounds-grouped",
	WorkerBusyNanos:         "worker-busy-nanos",
	WorkerWallNanos:         "worker-wall-nanos",
	IncidentsRepaired:       "incidents-repaired",
	RemedyActionsExecuted:   "remedy-actions-executed",
	RemedyActionsDeferred:   "remedy-actions-deferred",
	RemedyActionsCommitted:  "remedy-actions-committed",
	RemedyActionsRolledBack: "remedy-actions-rolled-back",
	RemedyActionsEscalated:  "remedy-actions-escalated",
	RemedyDryRunIntents:     "remedy-dry-run-intents",
	ChangepointsRaised:      "changepoints-raised",
	AlarmsDeduped:           "alarms-deduped",
	ChainsEmitted:           "chains-emitted",
	ReplayTruncated:         "replay-truncated",
	EvidenceTruncated:       "evidence-truncated",
	TraceCacheMisses:        "trace-cache-misses",
}

func (c Counter) String() string {
	if c < 0 || c >= numCounters {
		return fmt.Sprintf("counter(%d)", int(c))
	}
	return counterNames[c]
}

// Counters enumerates every counter in declaration order.
func Counters() []Counter {
	out := make([]Counter, numCounters)
	for i := range out {
		out[i] = Counter(i)
	}
	return out
}

// Histogram accumulates positive float64 observations into
// exponentially sized buckets (powers of two, in the observation's own
// unit). It is safe for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	count   uint64
	sum     float64
	min     float64
	max     float64
	buckets map[int]uint64 // bucket exponent → count
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{buckets: make(map[int]uint64)}
}

// Observe records one value. Non-positive values count toward count/sum
// but land in the lowest bucket.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	exp := math.MinInt32
	if v > 0 {
		exp = int(math.Ceil(math.Log2(v)))
	}
	h.buckets[exp]++
}

// ObserveDuration records a duration in milliseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d) / float64(time.Millisecond))
}

// HistogramSnapshot is a point-in-time copy of a histogram's summary.
type HistogramSnapshot struct {
	Count         uint64
	Sum, Min, Max float64
}

// Mean returns the mean observation, or 0 with no observations.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Snapshot copies the histogram's summary.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
}

// Stats is the shared self-monitoring surface: a fixed counter vector
// plus named histograms. The zero value is NOT usable; call New. A nil
// *Stats is safe to record into (every method no-ops), so layers can
// thread an optional Stats without nil checks at each call site.
type Stats struct {
	counters [numCounters]atomic.Uint64

	mu    sync.Mutex
	hists map[string]*Histogram
}

// New returns an empty Stats.
func New() *Stats {
	return &Stats{hists: make(map[string]*Histogram)}
}

// Inc adds one to a counter.
func (s *Stats) Inc(c Counter) { s.Add(c, 1) }

// Add adds n to a counter.
func (s *Stats) Add(c Counter, n uint64) {
	if s == nil {
		return
	}
	s.counters[c].Add(n)
}

// Get returns a counter's value.
func (s *Stats) Get(c Counter) uint64 {
	if s == nil {
		return 0
	}
	return s.counters[c].Load()
}

// Histogram returns (creating if needed) the named histogram. Returns
// nil on a nil Stats; *Histogram methods must then not be called, so
// use ObserveDuration on Stats instead when the receiver may be nil.
func (s *Stats) Histogram(name string) *Histogram {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.hists[name]
	if !ok {
		h = NewHistogram()
		s.hists[name] = h
	}
	return h
}

// ObserveDuration records a duration (in milliseconds) into the named
// histogram.
func (s *Stats) ObserveDuration(name string, d time.Duration) {
	if s == nil {
		return
	}
	s.Histogram(name).ObserveDuration(d)
}

// Snapshot is a point-in-time copy of every counter and histogram.
type Snapshot struct {
	Counters   map[string]uint64
	Histograms map[string]HistogramSnapshot
}

// Snapshot copies the current state. Extra counters (e.g. pipeline
// stage counts a caller wants folded in) can be merged into the
// returned maps by the caller.
func (s *Stats) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   make(map[string]uint64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if s == nil {
		return snap
	}
	for _, c := range Counters() {
		snap.Counters[c.String()] = s.Get(c)
	}
	s.mu.Lock()
	hists := make(map[string]*Histogram, len(s.hists))
	for name, h := range s.hists {
		hists[name] = h
	}
	s.mu.Unlock()
	for name, h := range hists {
		snap.Histograms[name] = h.Snapshot()
	}
	return snap
}

// String renders the snapshot sorted by name, one entry per line —
// counters first, then histogram summaries.
func (s Snapshot) String() string {
	var sb strings.Builder
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sb, "%-22s %d\n", n, s.Counters[n])
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		fmt.Fprintf(&sb, "%-22s n=%d mean=%.3fms min=%.3fms max=%.3fms\n",
			n, h.Count, h.Mean(), h.Min, h.Max)
	}
	return sb.String()
}
