package faults

import (
	"math/rand"
	"time"

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
	// released only after a later batch delivers first.
	ReorderBatchProb float64
	// DelayRoundProb is the probability one analysis round is withheld
	// (the streaming job behind schedule). Withheld rounds leave their
	// records queued in the analyzer's bounded shard inboxes.
	DelayRoundProb float64
	// StalePingLists freezes the controller's ping-list serving for the
	// campaign (agents keep probing yesterday's list). Applied by the
	// deployment when the injector is installed.
	StalePingLists bool
}

// TelemetryInjector perturbs the monitoring plane's own data path. It
// sits between the agents' batch output and the deployment's ingest,
// and gates analysis rounds. All randomness comes from named engine
// streams, so telemetry-fault campaigns replay bit-identically.
//
// The injector is driven from the engine's event loop (agent rounds,
// analysis ticks) and is not safe for concurrent use — the same
// single-threaded contract as the rest of the simulated world.
type TelemetryInjector struct {
	opts     TelemetryOptions
	batchRNG *rand.Rand
	roundRNG *rand.Rand
	stats    *obs.Stats
	held     probe.Batch // one batch held back for reordering
	haveHeld bool
}

// NewTelemetryInjector builds an injector drawing from the engine's
// deterministic streams and counting into stats (nil disables counting).
func NewTelemetryInjector(eng *sim.Engine, opts TelemetryOptions, stats *obs.Stats) *TelemetryInjector {
	return &TelemetryInjector{
		opts:     opts,
		batchRNG: eng.Rand("telemetry/batch-faults"),
		roundRNG: eng.Rand("telemetry/round-faults"),
		stats:    stats,
	}
}

// Deliver passes one agent batch through the fault model and hands the
// surviving batches (possibly duplicated, possibly preceded by an
// earlier held batch) to sink. A nil injector delivers verbatim.
//
// Held batches are copied: the agent reuses its batch's backing array
// across rounds, so anything retained past this call must not alias it.
func (ti *TelemetryInjector) Deliver(b probe.Batch, sink probe.BatchSink) {
	if ti == nil {
		sink(b)
		return
	}
	if ti.opts.DropBatchProb > 0 && ti.batchRNG.Float64() < ti.opts.DropBatchProb {
		ti.stats.Inc(obs.BatchesDropped)
		return
	}
	if ti.opts.ReorderBatchProb > 0 && !ti.haveHeld && ti.batchRNG.Float64() < ti.opts.ReorderBatchProb {
		ti.held = append(ti.held[:0], b...)
		ti.haveHeld = true
		ti.stats.Inc(obs.BatchesReordered)
		return
	}
	sink(b)
	if ti.opts.DuplicateBatchProb > 0 && ti.batchRNG.Float64() < ti.opts.DuplicateBatchProb {
		ti.stats.Inc(obs.BatchesDuplicated)
		sink(b)
	}
	if ti.haveHeld {
		held := ti.held
		ti.haveHeld = false
		sink(held)
	}
}

// Passive reports whether Deliver is currently a pure pass-through: no
// batch-level fault can fire and no held batch awaits release, so
// delivery makes no RNG draws and batches may bypass the injector
// entirely. Nil-safe. The parallel round engine uses this to gate its
// sharded fast path — an active injector forces serial delivery, which
// preserves drop/duplicate/reorder semantics and draw order.
func (ti *TelemetryInjector) Passive() bool {
	if ti == nil {
		return true
	}
	return ti.opts.DropBatchProb == 0 &&
		ti.opts.DuplicateBatchProb == 0 &&
		ti.opts.ReorderBatchProb == 0 &&
		!ti.haveHeld
}

// GateRound reports whether this analysis round should be withheld.
// Suitable for wiring straight into analyzer.Analyzer.Gate.
func (ti *TelemetryInjector) GateRound(now time.Duration) bool {
	if ti == nil || ti.opts.DelayRoundProb == 0 {
		return false
	}
	return ti.roundRNG.Float64() < ti.opts.DelayRoundProb
}
