package main

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"skeletonhunter/internal/topology"
)

func TestPickChoosesHighestSupportedPercentile(t *testing.T) {
	series := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: pick must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		hiName string
		hi     float64
	}{
		{9, "", 0},
		{99, "", 0},
		{100, "p90", 90},
		{999, "p90", 899},
		{1000, "p99", 990},
		{10000, "p99.9", 9990},
	} {
		got := pick(series(tc.n))
		if got.N != tc.n || got.HiName != tc.hiName || got.Hi != tc.hi {
			t.Errorf("pick(n=%d) = %+v, want hi %q=%v", tc.n, got, tc.hiName, tc.hi)
		}
		if want := math.Round(float64(tc.n) / 2); got.P50 != want {
			t.Errorf("pick(n=%d).P50 = %v, want %v", tc.n, got.P50, want)
		}
	}
	if got := pick(nil); got.N != 0 || got.P50 != 0 || got.HiName != "" {
		t.Errorf("pick(nil) = %+v", got)
	}
}

func TestSelfTimeExcludesChildren(t *testing.T) {
	r := &recorder{spans: []span{
		{Name: "tick", StartNs: 0, EndNs: 100e6, Parent: -1, Tick: 0},
		{Name: spanAnalyzer, StartNs: 10e6, EndNs: 90e6, Parent: 0, Tick: 0},
		{Name: spanGrayFanout, StartNs: 20e6, EndNs: 50e6, Parent: 1, Tick: 0},
		{Name: spanGrayFanout, StartNs: 50e6, EndNs: 60e6, Parent: 1, Tick: 0},
		{Name: spanAnalyzer, StartNs: 0, EndNs: 5e6, Parent: -1, Tick: -1}, // outside the window
	}}
	if got := r.selfMs(spanAnalyzer); got != 40 {
		t.Errorf("analyzer self = %v ms, want 40", got)
	}
	if got := r.selfMs("tick"); got != 20 {
		t.Errorf("tick self = %v ms, want 20", got)
	}
	if got := sum(r.durations(spanGrayFanout)); got != 40 {
		t.Errorf("gray fan-out sum = %v ms, want 40", got)
	}
}

// Schedule generators are pure functions of the seed: the same seed
// gives the same campaign, another seed a different one, and every
// campaign passes its own checks at both full and smoke size.
func TestPlansDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		for _, cfg := range []runConfig{{seconds: defaultSeconds}, {quick: true}} {
			hosts, warmup, ticks := cfg.size(w)
			fab, err := topology.New(topology.Production(hosts))
			if err != nil {
				t.Fatal(err)
			}
			a := w.plan(fab, 1, warmup, ticks)
			b := w.plan(fab, 1, warmup, ticks)
			c := w.plan(fab, 2, warmup, ticks)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s: same seed gave different campaigns", w.name)
			}
			if reflect.DeepEqual(a.sched.Actions, c.sched.Actions) && reflect.DeepEqual(a.extras, c.extras) {
				t.Errorf("%s: seeds 1 and 2 gave the same campaign", w.name)
			}
			for seed, camp := range map[int64]*campaign{1: a, 2: c} {
				if err := camp.check(w, hosts); err != nil {
					t.Errorf("%s seed %d (%d hosts): %v", w.name, seed, hosts, err)
				}
			}
		}
	}
	// fleet-steady and fleet-serial share one generator and one seed
	// stream: their schedules are byte-identical by construction.
	if reflect.ValueOf(workloadByName("fleet-steady").plan).Pointer() != reflect.ValueOf(workloadByName("fleet-serial").plan).Pointer() {
		t.Error("fleet-steady and fleet-serial use different generators")
	}
}

// BENCHMARK.json is the contract; the tables in metrics.go and
// workloads.go must list the same names and units in the same order.
func TestSpecMatchesCode(t *testing.T) {
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if sp.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, defaultSeconds %d", sp.RunSeconds, defaultSeconds)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name || sp.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, sp.Workloads[i].Name, w.name)
		}
	}
	compare := func(kind string, got []specMetric, want []def) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
			if got[i].Better != "higher" && got[i].Better != "lower" {
				t.Errorf("%s %s: better = %q", kind, d.name, got[i].Better)
			}
		}
	}
	compare("end_to_end", sp.EndToEnd, endToEndDefs)
	compare("per_layer", sp.PerLayer, perLayerDefs)
}

// The smoke run drives every workload untraced and traced at 64 hosts
// and 20 ticks, so an API break in a later refactor fails go test
// instead of silently orphaning the benchmark.
func TestQuickSmoke(t *testing.T) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	reports, err := runSuite(suiteConfig{
		names:    names,
		run:      runConfig{seed: 1, quick: true, workers: 2},
		traced:   true,
		traceOut: spans,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	fingerprints := map[string]string{}
	for _, rep := range reports {
		fingerprints[rep.Workload] = rep.Fingerprint
		if rep.Ops == 0 || rep.FailedOps != 0 {
			t.Errorf("%s: ops %d, failed ops %d: %v", rep.Workload, rep.Ops, rep.FailedOps, rep.Failures)
		}
		if len(rep.EndToEnd) != len(endToEndDefs) || len(rep.PerLayer) != len(perLayerDefs) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics", rep.Workload, len(rep.EndToEnd), len(rep.PerLayer))
		}
		for _, m := range rep.EndToEnd {
			if m.Null || m.Value < 0 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: end-to-end %s = %v", rep.Workload, m.Name, m.Value)
			}
		}
		if fi, err := os.Stat(filepath.Join(filepath.Dir(spans), "spans."+rep.Workload+".jsonl")); err != nil || fi.Size() == 0 {
			t.Errorf("%s: span file missing or empty: %v", rep.Workload, err)
		}
	}
	if fingerprints["fleet-steady"] != fingerprints["fleet-serial"] {
		t.Error("fleet-steady and fleet-serial fingerprints differ")
	}
	res := resultOf(reports[:1], true)
	if !res.Correct || res.Attempted == 0 || len(res.Metrics) != len(perLayerDefs) {
		t.Errorf("result line: correct %v attempted %d metrics %d", res.Correct, res.Attempted, len(res.Metrics))
	}
}
