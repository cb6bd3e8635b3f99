package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// spec is the part of BENCHMARK.json the harness reads: direction and
// regression bound of every end-to-end metric.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareAA checks two sets of runs of the same code, seed and
// workloads against the benchmark's own bounds: a wall-clock metric
// may differ by at most its bound (as a share of the first set's
// value); a simulated metric and the fingerprint must be equal.
func compareAA(w io.Writer, first, second []*report) (bool, error) {
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	bound := map[string]float64{}
	for _, m := range sp.EndToEnd {
		bound[m.Name] = m.Bound
	}
	ok := true
	fmt.Fprintf(w, "\n== A/A: two sets, same code and seed\n")
	for i, a := range first {
		b := second[i]
		if a.Fingerprint != b.Fingerprint {
			ok = false
			fmt.Fprintf(w, "   %-14s fingerprint %.12s vs %.12s  DIFFERS\n", a.Workload, a.Fingerprint, b.Fingerprint)
		}
		for j, ma := range a.EndToEnd {
			mb := b.EndToEnd[j]
			limit := bound[ma.Name]
			if exactEndToEnd[ma.Name] {
				limit = 0
			}
			spread := 0.0
			if ma.Value != mb.Value {
				spread = math.Abs(ma.Value-mb.Value) / math.Abs(ma.Value)
			}
			verdict := "ok"
			if spread > limit {
				verdict, ok = "OUT OF BOUND", false
			}
			fmt.Fprintf(w, "   %-14s %-24s %12.6g %12.6g  spread %6.2f%%  bound %5.1f%%  %s\n",
				a.Workload, ma.Name, ma.Value, mb.Value, 100*spread, 100*limit, verdict)
		}
	}
	return ok, nil
}
