package skeleton

import "skeletonhunter/internal/dsp"

// Fidelity evaluates whether an earlier inference still matches the
// traffic a task currently produces — the §7.3 mitigation for users
// whose workloads change mid-task (a debugging cluster switching
// models, an evolving parallelism strategy). It recomputes burst
// fingerprints over fresh series and compares the within-group
// coherence of the old grouping against the cross-group separation.
//
// The score is 1 − within/cross (clamped to [0, 1]): near 1 while the
// inferred groups still bind endpoints with matching burst cycles,
// dropping toward 0 once the grouping no longer reflects the traffic.
// Callers (the deployment façade) revert a low-fidelity task to its
// basic ping list so no real traffic path goes unprobed.
func Fidelity(eps []EndpointSeries, groups [][]int) float64 {
	if len(groups) < 2 || len(eps) == 0 {
		return 0
	}
	features := make([][]float64, len(eps))
	fp := func(i int) []float64 {
		if features[i] == nil {
			features[i] = dsp.BurstFingerprint(eps[i].Series, stftWindow, stftHop)
		}
		return features[i]
	}

	var within, cross float64
	var nWithin, nCross int
	for gi, g := range groups {
		for i := 0; i < len(g); i++ {
			for j := i + 1; j < len(g); j++ {
				if g[i] < len(eps) && g[j] < len(eps) {
					within += dsp.FeatureDistance(fp(g[i]), fp(g[j]))
					nWithin++
				}
			}
		}
		// Cross-group distances against the next group's members (a
		// sample suffices; full cross-product is O(N²) for no benefit).
		ng := groups[(gi+1)%len(groups)]
		for i := 0; i < len(g) && i < len(ng); i++ {
			if g[i] < len(eps) && ng[i] < len(eps) {
				cross += dsp.FeatureDistance(fp(g[i]), fp(ng[i]))
				nCross++
			}
		}
	}
	if nWithin == 0 || nCross == 0 {
		return 0
	}
	within /= float64(nWithin)
	cross /= float64(nCross)
	if cross <= 0 {
		return 0
	}
	score := 1 - within/cross
	if score < 0 {
		return 0
	}
	if score > 1 {
		return 1
	}
	return score
}
