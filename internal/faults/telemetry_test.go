package faults

import (
	"reflect"
	"testing"
	"time"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/obs"
	"skeletonhunter/internal/probe"
	"skeletonhunter/internal/sim"
)

// deliveries records a copy of every batch a sink receives.
type deliveries []probe.Batch

func (d *deliveries) sink(b probe.Batch) { *d = append(*d, b.Clone()) }

func oneRecord(rtt time.Duration) probe.Batch {
	return probe.Batch{{Task: "t", DstContainer: 1, RTT: rtt}}
}

// TestTelemetryNilInjectorIsPassThrough: a deployment without an
// injector prepares and forgets tasks through a nil one and never
// withholds a round.
func TestTelemetryNilInjectorIsPassThrough(t *testing.T) {
	var ti *TelemetryInjector
	ti.Prepare([]cluster.TaskID{"t"})
	ti.Forget("t")
	if ti.GateRound(0) {
		t.Fatal("nil injector withheld a round")
	}
}

// newInjector builds an injector with the given options and the task
// "t" prepared.
func newInjector(opts TelemetryOptions, stats *obs.Stats) *TelemetryInjector {
	ti := NewTelemetryInjector(sim.NewEngine(1), opts, stats)
	ti.Prepare([]cluster.TaskID{"t"})
	return ti
}

func TestTelemetryDeliverFaults(t *testing.T) {
	b1, b2 := oneRecord(time.Microsecond), oneRecord(2*time.Microsecond)
	for _, tc := range []struct {
		name    string
		opts    TelemetryOptions
		want    deliveries // after delivering b1 then b2
		counter obs.Counter
		count   uint64
	}{
		{"passive", TelemetryOptions{}, deliveries{b1, b2}, obs.BatchesDropped, 0},
		{"drop", TelemetryOptions{DropBatchProb: 1}, nil, obs.BatchesDropped, 2},
		{"duplicate", TelemetryOptions{DuplicateBatchProb: 1}, deliveries{b1, b1, b2, b2}, obs.BatchesDuplicated, 2},
		// The first batch is held and released after the second; with
		// one batch already held the second is never held back.
		{"reorder", TelemetryOptions{ReorderBatchProb: 1}, deliveries{b2, b1}, obs.BatchesReordered, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stats := obs.New()
			ti := newInjector(tc.opts, stats)
			// Both sides see the same stream; only Primary counts.
			for _, side := range []Side{Primary, Mirror} {
				var got deliveries
				in := append(probe.Batch(nil), b1...)
				ti.Deliver(side, in, got.sink)
				// The agent reuses its batch buffer: a held batch must
				// not alias it.
				in[0].RTT = time.Hour
				ti.Deliver(side, b2, got.sink)
				if !reflect.DeepEqual(got, tc.want) {
					t.Fatalf("side %d delivered %v, want %v", side, got, tc.want)
				}
				if n := stats.Get(tc.counter); n != tc.count {
					t.Fatalf("after side %d: %v = %d, want %d", side, tc.counter, n, tc.count)
				}
			}
		})
	}
}

// TestTelemetryHeldBatchOwnsItsPaths: an agent refills its batch and
// the path buffer the records point into every round, so a batch the
// injector holds back must keep its own copy of the paths, not views of
// the agent's buffer that the next round overwrites.
func TestTelemetryHeldBatchOwnsItsPaths(t *testing.T) {
	ti := newInjector(TelemetryOptions{ReorderBatchProb: 1}, nil)
	paths := []int32{1, 2, 3, 4}
	batch := probe.Batch{
		{Task: "t", DstContainer: 1, Path: paths[0:2]},
		{Task: "t", DstContainer: 2, Path: paths[2:4]},
	}
	var got deliveries
	ti.Deliver(Primary, batch, got.sink) // held back
	// The agent's next round reuses both buffers.
	copy(paths, []int32{9, 9, 9, 9})
	batch[0].DstContainer, batch[1].DstContainer = 3, 3
	ti.Deliver(Primary, batch, got.sink)
	if len(got) != 2 {
		t.Fatalf("delivered %d batches, want the new round then the held one", len(got))
	}
	held := got[1]
	want := probe.Batch{
		{Task: "t", DstContainer: 1, Path: []int32{1, 2}},
		{Task: "t", DstContainer: 2, Path: []int32{3, 4}},
	}
	if !reflect.DeepEqual(held, want) {
		t.Fatalf("held batch released as %+v, want %+v", held, want)
	}
}

// TestTelemetryFateIsKeyed: a batch's fate is a function of its task,
// source container and round time, not of the order batches are
// offered in — the property that lets workers deliver task shards
// concurrently. Task "t"'s batches meet the same fates offered alone
// and offered after task "u"'s.
func TestTelemetryFateIsKeyed(t *testing.T) {
	opts := TelemetryOptions{DropBatchProb: 0.3, DuplicateBatchProb: 0.3}
	batch := func(task cluster.TaskID, c, round int) probe.Batch {
		return probe.Batch{{Task: task, SrcContainer: c, At: time.Duration(round) * time.Second, RTT: time.Duration(c+1) * time.Microsecond}}
	}
	run := func(interleave bool) deliveries {
		ti := NewTelemetryInjector(sim.NewEngine(1), opts, nil)
		ti.Prepare([]cluster.TaskID{"t", "u"})
		var got, other deliveries
		for round := 0; round < 16; round++ {
			for c := 0; c < 4; c++ {
				if interleave {
					ti.Deliver(Primary, batch("u", c, round), other.sink)
				}
				ti.Deliver(Primary, batch("t", c, round), got.sink)
			}
		}
		return got
	}
	alone := run(false)
	if len(alone) == 0 || len(alone) == 64 {
		t.Fatalf("%d of 64 batches delivered alone; the fates have no spread", len(alone))
	}
	if after := run(true); !reflect.DeepEqual(after, alone) {
		t.Fatalf("task t delivered %d batches after task u's, %d alone", len(after), len(alone))
	}
}

func TestTelemetryGateRound(t *testing.T) {
	eng := sim.NewEngine(1)
	if NewTelemetryInjector(eng, TelemetryOptions{}, nil).GateRound(0) {
		t.Fatal("round withheld with DelayRoundProb 0")
	}
	if !NewTelemetryInjector(eng, TelemetryOptions{DelayRoundProb: 1}, nil).GateRound(0) {
		t.Fatal("round delivered with DelayRoundProb 1")
	}
	// A partial probability withholds some rounds, reproducibly.
	run := func() (withheld []bool) {
		ti := NewTelemetryInjector(sim.NewEngine(7), TelemetryOptions{DelayRoundProb: 0.5}, nil)
		for i := 0; i < 64; i++ {
			withheld = append(withheld, ti.GateRound(time.Duration(i)*time.Second))
		}
		return withheld
	}
	first := run()
	if !reflect.DeepEqual(first, run()) {
		t.Fatal("round gating not deterministic for a fixed seed")
	}
	n := 0
	for _, w := range first {
		if w {
			n++
		}
	}
	if n == 0 || n == len(first) {
		t.Fatalf("DelayRoundProb 0.5 withheld %d/%d rounds", n, len(first))
	}
}
