package faults

import (
	"hash/fnv"
	"math/rand"
	"time"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/obs"
	"skeletonhunter/internal/probe"
	"skeletonhunter/internal/sim"
)

// TelemetryOptions tunes the telemetry-plane fault injector: failures
// of the monitoring system itself, as opposed to the Table-1 network
// faults it exists to detect. The paper's plane must keep working while
// its own collectors drop batches, its transport retries and reorders,
// and its streaming job falls behind — these knobs reproduce that
// weather so the resilience claims can be tested.
type TelemetryOptions struct {
	// DropBatchProb is the probability an agent's round batch is lost
	// before ingest (collector outage, sidecar-to-log-service partition).
	DropBatchProb float64
	// DuplicateBatchProb is the probability a batch is delivered twice
	// (an at-least-once transport retrying a timed-out write).
	DuplicateBatchProb float64
	// ReorderBatchProb is the probability a batch is held back and
	// released only after its task's next delivered batch.
	ReorderBatchProb float64
	// DelayRoundProb is the probability one analysis round is withheld
	// (the streaming job behind schedule). Withheld rounds leave their
	// records queued in the analyzer's shard inboxes for the next round
	// that runs.
	DelayRoundProb float64
	// StalePingLists freezes the controller's ping-list serving for the
	// campaign (agents keep probing yesterday's list). Applied by the
	// deployment when the injector is installed.
	StalePingLists bool
}

// TelemetryInjector perturbs the monitoring plane's own data path. It
// is a stage of the sharded probe round, between the agents' batches
// and the deployment's two consumers of them (the analyzer and the
// log), and it gates analysis rounds.
//
// Each batch's fate is drawn from a sim.SplitMix64 keyed by (seed,
// task, source container, round time), so it does not depend on which
// worker delivers the batch or on what other tasks delivered first;
// round gating draws from a named engine stream. Telemetry-fault
// campaigns therefore replay bit-identically at any worker count.
//
// Concurrency: Prepare, Forget and GateRound run serially on the
// engine goroutine. Deliver may run on worker goroutines, concurrently
// for distinct tasks, once Prepare has created their state.
type TelemetryInjector struct {
	opts     TelemetryOptions
	seed     uint64
	roundRNG *rand.Rand
	stats    *obs.Stats
	streams  map[cluster.TaskID]*taskStream
}

// A Side is one consumer of the faulted batch stream. Every side sees
// the same batches of a task in the same order, each holding its own
// copy of a held-back batch; faults are counted on Primary only.
type Side int

const (
	Primary Side = iota
	Mirror
	sides
)

// taskStream is one task's fault state: the key its batches' fates are
// drawn from and, per side, the batch held back for reordering (nil
// when none is).
type taskStream struct {
	key  uint64
	held [sides]probe.Batch
}

// NewTelemetryInjector builds an injector keyed to the engine's seed,
// counting into stats (nil disables counting).
func NewTelemetryInjector(eng *sim.Engine, opts TelemetryOptions, stats *obs.Stats) *TelemetryInjector {
	return &TelemetryInjector{
		opts:     opts,
		seed:     eng.Rand("telemetry/batch-faults").Uint64(),
		roundRNG: eng.Rand("telemetry/round-faults"),
		stats:    stats,
		streams:  make(map[cluster.TaskID]*taskStream),
	}
}

// Prepare creates the fault state of every task about to deliver, so
// Deliver callers only read the map. Nil-safe.
func (ti *TelemetryInjector) Prepare(tasks []cluster.TaskID) {
	if ti == nil {
		return
	}
	for _, t := range tasks {
		if ti.streams[t] == nil {
			h := fnv.New64a()
			h.Write([]byte(t))
			ti.streams[t] = &taskStream{key: ti.seed ^ h.Sum64()}
		}
	}
}

// Forget drops a departed task's fault state, held batches included.
// Nil-safe.
func (ti *TelemetryInjector) Forget(task cluster.TaskID) {
	if ti != nil {
		delete(ti.streams, task)
	}
}

// Deliver passes one agent batch of a prepared task through its fate
// on one side and hands what survives to sink: nothing (dropped, or
// held back while the task holds no other batch), the batch, or the
// batch twice. A batch the task held back earlier follows its next
// delivered batch. An empty batch has no fate and is ignored.
//
// A held batch is deep-copied: the agent reuses its batch's records
// and paths across rounds.
func (ti *TelemetryInjector) Deliver(side Side, b probe.Batch, sink func(probe.Batch)) {
	if len(b) == 0 {
		return
	}
	st := ti.streams[b[0].Task]
	rng := sim.SplitMix64(st.key ^ uint64(b[0].SrcContainer)*0x9e3779b97f4a7c15 ^ uint64(b[0].At)*0x94d049bb133111eb)
	drop := rng.Float64() < ti.opts.DropBatchProb
	hold := rng.Float64() < ti.opts.ReorderBatchProb
	dup := rng.Float64() < ti.opts.DuplicateBatchProb
	held := &st.held[side]
	switch {
	case drop:
		ti.count(side, obs.BatchesDropped)
		return
	case hold && *held == nil:
		*held = b.Clone()
		ti.count(side, obs.BatchesReordered)
		return
	}
	sink(b)
	if dup {
		ti.count(side, obs.BatchesDuplicated)
		sink(b)
	}
	if h := *held; h != nil {
		*held = nil
		sink(h)
	}
}

func (ti *TelemetryInjector) count(side Side, c obs.Counter) {
	if side == Primary {
		ti.stats.Inc(c)
	}
}

// GateRound reports whether this analysis round should be withheld.
// Suitable for wiring straight into analyzer.Analyzer.Gate.
func (ti *TelemetryInjector) GateRound(now time.Duration) bool {
	if ti == nil || ti.opts.DelayRoundProb == 0 {
		return false
	}
	return ti.roundRNG.Float64() < ti.opts.DelayRoundProb
}
