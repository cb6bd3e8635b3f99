package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"skeletonhunter/internal/scenario"
)

func armsByName(rep *Report) map[string]map[string]float64 {
	out := make(map[string]map[string]float64, len(rep.Arms))
	for _, a := range rep.Arms {
		out[a.Name] = a.Metrics
	}
	return out
}

func passed(gates []GateResult) bool {
	for _, g := range gates {
		if !g.Pass {
			return false
		}
	}
	return true
}

// TestRunBench plays all three packs at the CI-default knobs and
// checks the report shape and both acceptance gates. This is the same
// run `make bench-scenarios` executes, so a gate regression fails here
// before it fails in CI.
func TestRunBench(t *testing.T) {
	if testing.Short() {
		t.Skip("four simulated campaigns")
	}
	rep, err := run("scenarios", 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	arms := armsByName(rep)
	if len(rep.Arms) != 4 {
		t.Fatalf("%d arms scored, want 3 packs + flap-ghost's clean arm", len(rep.Arms))
	}
	for _, name := range scenario.PackNames {
		m, ok := arms[name]
		if !ok {
			t.Fatalf("pack %s not scored", name)
		}
		if m["run_errs"] != 0 {
			t.Errorf("pack %s logged %v action errors", name, m["run_errs"])
		}
		if m["episodes"] == 0 {
			t.Errorf("pack %s produced no ground-truth episodes", name)
		}
		if m["recall"] <= 0 {
			t.Errorf("pack %s detected nothing: recall %v", name, m["recall"])
		}
	}

	flap, clean := arms["flap-ghost"], arms["flap-ghost-clean"]
	if clean == nil {
		t.Fatal("flap-ghost clean arm not scored")
	}
	// The ghost phase must actually degrade localization relative to
	// the clean arm — otherwise the pack proves nothing.
	if flap["ghost_recall"] >= clean["ghost_recall"] {
		t.Errorf("ghost view did not degrade localization: ghost %v, clean %v", flap["ghost_recall"], clean["ghost_recall"])
	}
	if arms["rdma-mask"]["collapsed"] != 1 {
		t.Error("rdma-mask never collapsed the collective job")
	}
	for _, g := range rep.Gates {
		if !g.Pass {
			t.Errorf("gate %s failed: %s", g.Name, g.Reason)
		}
	}
	if len(rep.Gates) != 2 || rep.Gates[0].Name != "flap_recovered" || rep.Gates[1].Name != "rdma_pre_collapse" {
		t.Fatalf("gates = %+v, want flap_recovered and rdma_pre_collapse", rep.Gates)
	}
}

// TestReportDeterministic pins the committed reports as a pure function
// of (campaign, seed, hosts): two runs write byte-identical files.
func TestReportDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("eight simulated campaigns")
	}
	dir := t.TempDir()
	var reports [2][]byte
	for i := range reports {
		rep, err := run("scenarios", 7, 0)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "BENCH_scenarios.json")
		if err := writeReport(rep, path); err != nil {
			t.Fatal(err)
		}
		if reports[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Fatalf("two runs wrote different reports:\n%s\n---\n%s", reports[0], reports[1])
	}
}

func TestRunRejectsUnknownCampaign(t *testing.T) {
	if _, err := run("nonesuch", 7, 0); err == nil {
		t.Fatal("run accepted an unknown campaign")
	}
}

func TestGate(t *testing.T) {
	gates := campaigns["correlate"].gates
	base := map[string]float64{"gray_recall": 0.5, "hard_recall": 1, "precision": 0.9}
	cases := []struct {
		name string
		on   map[string]float64
		pass bool
	}{
		{"improves", map[string]float64{"gray_recall": 1, "hard_recall": 1, "precision": 0.9}, true},
		{"no gray gain", map[string]float64{"gray_recall": 0.5, "hard_recall": 1, "precision": 0.95}, false},
		{"hard degraded", map[string]float64{"gray_recall": 1, "hard_recall": 0.5, "precision": 0.9}, false},
		{"precision degraded", map[string]float64{"gray_recall": 1, "hard_recall": 1, "precision": 0.5}, false},
	}
	for _, c := range cases {
		got := evalGates(gates, []Arm{{Name: "off", Metrics: base}, {Name: "on", Metrics: c.on}})
		if passed(got) != c.pass {
			t.Errorf("%s: passed=%v (%+v), want %v", c.name, passed(got), got, c.pass)
		}
		for _, g := range got {
			if !g.Pass && g.Reason == "" {
				t.Errorf("%s: failed gate %s carries no reason", c.name, g.Name)
			}
		}
	}
}

// TestRunBenchSmallCampaign drives the full two-arm correlate campaign
// at a reduced scale and holds it to the same bar the CI gate applies
// at 64 hosts: the correlate arm must strictly improve gray recall with
// no hard-recall or precision regression, catching every scheduled
// fault.
func TestRunBenchSmallCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a two-arm simulated campaign")
	}
	rep, err := run("correlate", 7, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !passed(rep.Gates) {
		t.Fatalf("gate failed: %+v", rep.Gates)
	}
	on := armsByName(rep)["on"]
	if on["gray_recall"] != 1 || on["hard_recall"] != 1 {
		t.Fatalf("on arm recall: gray %.2f hard %.2f, want 1.00/1.00", on["gray_recall"], on["hard_recall"])
	}
	if on["gray_faults"] != 3 || on["hard_faults"] != 2 {
		t.Fatalf("schedule: %v gray + %v hard, want 3 + 2", on["gray_faults"], on["hard_faults"])
	}
	if on["caught"] != on["gray_faults"]+on["hard_faults"] {
		t.Fatalf("on arm caught %v of %v faults", on["caught"], on["gray_faults"]+on["hard_faults"])
	}
	if on["chains_emitted"] == 0 {
		t.Fatal("on arm emitted no causal chains")
	}
}
