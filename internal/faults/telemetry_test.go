package faults

import (
	"reflect"
	"testing"
	"time"

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

func TestTelemetryNilInjectorIsPassThrough(t *testing.T) {
	var ti *TelemetryInjector
	var got deliveries
	b := oneRecord(time.Microsecond)
	ti.Deliver(b, got.sink)
	if !reflect.DeepEqual(got, deliveries{b}) {
		t.Fatalf("nil injector delivered %v, want the batch verbatim", got)
	}
	if !ti.Passive() {
		t.Fatal("nil injector not passive")
	}
	if ti.GateRound(0) {
		t.Fatal("nil injector withheld a round")
	}
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
			ti := NewTelemetryInjector(sim.NewEngine(1), tc.opts, stats)
			if got, want := ti.Passive(), tc.opts == (TelemetryOptions{}); got != want {
				t.Fatalf("Passive() = %v, want %v", got, want)
			}
			var got deliveries
			in := append(probe.Batch(nil), b1...)
			ti.Deliver(in, got.sink)
			// The agent reuses its batch buffer: a held batch must not
			// alias it.
			in[0].RTT = time.Hour
			ti.Deliver(b2, got.sink)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("delivered %v, want %v", got, tc.want)
			}
			if n := stats.Get(tc.counter); n != tc.count {
				t.Fatalf("%v = %d, want %d", tc.counter, n, tc.count)
			}
		})
	}
}

// TestTelemetryHeldBatchOwnsItsPaths: an agent refills its batch and
// the path buffer the records point into every round, so a batch the
// injector holds back must keep its own copy of the paths, not views of
// the agent's buffer that the next round overwrites.
func TestTelemetryHeldBatchOwnsItsPaths(t *testing.T) {
	ti := NewTelemetryInjector(sim.NewEngine(1), TelemetryOptions{ReorderBatchProb: 1}, nil)
	paths := []int32{1, 2, 3, 4}
	batch := probe.Batch{
		{Task: "t", DstContainer: 1, Path: paths[0:2]},
		{Task: "t", DstContainer: 2, Path: paths[2:4]},
	}
	var got deliveries
	ti.Deliver(batch, got.sink) // held back
	// The agent's next round reuses both buffers.
	copy(paths, []int32{9, 9, 9, 9})
	batch[0].DstContainer, batch[1].DstContainer = 3, 3
	ti.Deliver(batch, got.sink)
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

func TestTelemetryHeldBatchIsNotPassive(t *testing.T) {
	ti := NewTelemetryInjector(sim.NewEngine(1), TelemetryOptions{ReorderBatchProb: 1}, nil)
	var got deliveries
	ti.Deliver(oneRecord(time.Microsecond), got.sink)
	if len(got) != 0 {
		t.Fatalf("reordered batch delivered early: %v", got)
	}
	if ti.Passive() {
		t.Fatal("injector holding a batch reported passive")
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
