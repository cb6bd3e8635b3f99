package baseline

import (
	"testing"
	"time"

	"skeletonhunter/internal/topology"
)

func TestTargetCounts(t *testing.T) {
	// 256 containers × 8 rails = 2048 endpoints.
	full := FullMeshTargets(256, 8)
	basic := BasicTargets(256, 8)
	if full != 2048*2040 {
		t.Fatalf("full mesh = %d", full)
	}
	if basic != 256*255*8 {
		t.Fatalf("basic = %d", basic)
	}
	if full/basic != 8 {
		t.Fatalf("rail pruning factor = %d, want 8", full/basic)
	}
	if got := PerEndpointFullMesh(256, 8); got != 2040 {
		t.Fatalf("per-endpoint full = %d", got)
	}
	if got := PerEndpointBasic(256); got != 255 {
		t.Fatalf("per-endpoint basic = %d", got)
	}
}

func TestEstimateDeTectorProbes(t *testing.T) {
	fab, err := topology.New(topology.Spec{Pods: 2, HostsPerPod: 4, Rails: 2, AggPerPod: 2, Spines: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := EstimateDeTectorProbes(fab, 3, 2), fab.NumLinks()*6; got != want {
		t.Fatalf("probes = %d, want links × redundancy × ECMP = %d", got, want)
	}
	// Non-positive knobs fall back to the paper-calibrated (3, 2).
	if got, want := EstimateDeTectorProbes(fab, 0, 0), EstimateDeTectorProbes(fab, 3, 2); got != want {
		t.Fatalf("default probes = %d, want %d", got, want)
	}
}

func TestCostModelShape(t *testing.T) {
	// Fig. 16's anchor points: 2047 targets ≈ 2034 s; 255 ≈ 240 s (the
	// paper reports 240.54); 25 ≈ 25 s.
	full := RoundTime(2047)
	basic := RoundTime(255)
	skel := RoundTime(25)
	if full < 1900*time.Second || full > 2150*time.Second {
		t.Fatalf("full-mesh round = %v", full)
	}
	if basic < 220*time.Second || basic > 270*time.Second {
		t.Fatalf("basic round = %v", basic)
	}
	if skel < 20*time.Second || skel > 30*time.Second {
		t.Fatalf("skeleton round = %v", skel)
	}
	if !(full > basic && basic > skel) {
		t.Fatal("cost ordering violated")
	}
}
