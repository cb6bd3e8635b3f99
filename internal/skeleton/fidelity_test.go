package skeleton

import (
	"testing"
	"time"

	"skeletonhunter/internal/parallelism"
	"skeletonhunter/internal/traffic"
)

func TestFidelityHighWhenWorkloadStable(t *testing.T) {
	par := parallelism.Config{TP: 8, PP: 2, DP: 4}
	eps := seriesFor(par, 900*time.Second)
	inf, err := Infer(eps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A fresh window of the same workload (different noise seed).
	g := &traffic.Generator{Par: par, GPUsPerContainer: 8, Seed: 23}
	var fresh []EndpointSeries
	for _, ep := range g.Endpoints() {
		fresh = append(fresh, EndpointSeries{
			Container: ep.Container, Rail: ep.Rail, Host: ep.Container,
			Series: g.Series(ep, 900*time.Second),
		})
	}
	score := Fidelity(fresh, inf.Groups)
	if score < 0.8 {
		t.Fatalf("stable-workload fidelity = %v, want ≥ 0.8", score)
	}
}

func TestFidelityDropsWhenWorkloadChanges(t *testing.T) {
	// Infer on one parallelism, then the tenant switches strategy: the
	// old grouping no longer matches the new burst structure.
	old := parallelism.Config{TP: 8, PP: 2, DP: 4}
	eps := seriesFor(old, 900*time.Second)
	inf, err := Infer(eps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	newPar := parallelism.Config{TP: 8, PP: 4, DP: 2} // same GPU count
	g := &traffic.Generator{Par: newPar, GPUsPerContainer: 8, Seed: 29}
	var fresh []EndpointSeries
	for _, ep := range g.Endpoints() {
		fresh = append(fresh, EndpointSeries{
			Container: ep.Container, Rail: ep.Rail, Host: ep.Container,
			Series: g.Series(ep, 900*time.Second),
		})
	}
	changed := Fidelity(fresh, inf.Groups)
	stable := Fidelity(eps, inf.Groups)
	if changed >= stable {
		t.Fatalf("fidelity did not drop on workload change: %v vs %v", changed, stable)
	}
	if changed > 0.5 {
		t.Fatalf("changed-workload fidelity = %v, want below revert threshold", changed)
	}
}

func TestFidelityDegenerate(t *testing.T) {
	if Fidelity(nil, nil) != 0 {
		t.Fatal("empty fidelity should be 0")
	}
	if Fidelity(nil, [][]int{{0}}) != 0 {
		t.Fatal("single-group fidelity should be 0")
	}
}
