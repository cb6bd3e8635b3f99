// Package baseline implements the comparison points of the evaluation
// (Figs. 15–16): the full-mesh Pingmesh strawman, the rail-pruned basic
// list, and a probe-count model of deTector's topology-aware prober —
// aware of the data-center topology but, crucially, not of the training
// workload's traffic sparsity, which is why it still needs an order of
// magnitude more probes than a skeleton-pruned list.
package baseline

import (
	"time"

	"skeletonhunter/internal/topology"
)

// FullMeshTargets returns the total probe-target count of a Pingmesh
// full mesh over a task: every endpoint probes every endpoint of every
// other container (intra-container pairs ride NVLink and are excluded).
func FullMeshTargets(nContainers, railsPerContainer int) int {
	n := nContainers * railsPerContainer
	return n * (n - railsPerContainer)
}

// BasicTargets returns the rail-pruned (preload-phase) target count:
// same-rail pairs only — the 8× reduction of §5.1.
func BasicTargets(nContainers, railsPerContainer int) int {
	return nContainers * (nContainers - 1) * railsPerContainer
}

// PerEndpointFullMesh returns the per-endpoint target count under full
// mesh (drives the probing round time).
func PerEndpointFullMesh(nContainers, railsPerContainer int) int {
	return nContainers*railsPerContainer - railsPerContainer
}

// PerEndpointBasic returns the per-endpoint target count under the
// basic list.
func PerEndpointBasic(nContainers int) int {
	return nContainers - 1
}

// EstimateDeTectorProbes models deTector's probe count at cluster
// scale without running its greedy set cover (which is cubic in
// endpoint count): every physical link needs `redundancy` covering
// probes, and ECMP fan-out means a probe pins roughly one of
// `ecmpFactor` possible paths per link, so the expected probe count is
// links × redundancy × ecmpFactor. With the paper-calibrated defaults
// (3, 2) a 2 048-RNIC production fabric needs ≈15 K probes per round —
// the figure quoted in §7.1.
func EstimateDeTectorProbes(fab *topology.Fabric, redundancy, ecmpFactor int) int {
	if redundancy < 1 {
		redundancy = 3
	}
	if ecmpFactor < 1 {
		ecmpFactor = 2
	}
	return fab.NumLinks() * redundancy * ecmpFactor
}

// slotPerTarget is the probing slot per target, calibrated to the
// paper's full-mesh measurements.
const slotPerTarget = 993 * time.Millisecond

// RoundTime returns the duration of one probing round given the
// maximum per-endpoint target count. Agents probe their targets
// sequentially, each in a fixed slot, so a round lasts as long as the
// busiest endpoint's list. This reproduces the proportionality of
// Fig. 16, where 2 047 full-mesh targets per endpoint take ≈2 034 s
// and a ~25-target skeleton list takes ≈25 s.
func RoundTime(maxPerEndpointTargets int) time.Duration {
	return time.Duration(maxPerEndpointTargets) * slotPerTarget
}
