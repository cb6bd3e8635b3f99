package figures

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"skeletonhunter/internal/baseline"
	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/faults"
	"skeletonhunter/internal/hunter"
	"skeletonhunter/internal/parallelism"
	"skeletonhunter/internal/probe"
	"skeletonhunter/internal/topology"
)

// scaleConfig maps an RNIC count to the parallelism shape used in the
// probing-scale sweeps (Figs. 15–16). GPU counts follow Fig. 12's
// popular sizes.
func scaleConfig(rnics int) parallelism.Config {
	switch rnics {
	case 256:
		return parallelism.Config{TP: 8, PP: 4, DP: 8}
	case 512:
		return parallelism.Config{TP: 8, PP: 8, DP: 8}
	case 1024:
		return parallelism.Config{TP: 8, PP: 8, DP: 16}
	case 2048:
		return parallelism.Config{TP: 8, PP: 16, DP: 16}
	default:
		return parallelism.Config{TP: 8, PP: 8, DP: rnics / 64}
	}
}

// Fig15Row is one probing-scale data point.
type Fig15Row struct {
	RNICs             int
	FullMesh          int
	DeTector          int
	Basic             int
	Skeleton          int
	SkeletonPerEnd    int // max per-endpoint targets under the skeleton
	BasicReduction    float64
	SkeletonReduction float64
}

// Fig15 is the probing-scale comparison (Fig. 15).
type Fig15 struct {
	Rows []Fig15Row
}

// Fig15ProbingScale sweeps RNIC counts and computes every scheme's
// probe-target count. The skeleton counts use the ground-truth pair
// set (validated against inference at small scale by the skeleton
// package's tests; inference itself is cubic in endpoints and is
// exercised end to end elsewhere).
func Fig15ProbingScale() (Fig15, error) {
	var out Fig15
	for _, rnics := range []int{256, 512, 1024, 2048} {
		cfg := scaleConfig(rnics)
		containers := rnics / 8
		pairs, err := parallelism.SkeletonPairs(cfg, 8)
		if err != nil {
			return Fig15{}, err
		}
		fab, err := topology.New(topology.Production(containers))
		if err != nil {
			return Fig15{}, err
		}
		row := Fig15Row{
			RNICs:    rnics,
			FullMesh: baseline.FullMeshTargets(containers, 8),
			Basic:    baseline.BasicTargets(containers, 8),
			DeTector: baseline.EstimateDeTectorProbes(fab, 3, 2),
			Skeleton: 2 * len(pairs), // both directions
		}
		// Max per-endpoint outgoing targets under the skeleton.
		perEnd := map[parallelism.Endpoint]int{}
		for p := range pairs {
			perEnd[p[0]]++
			perEnd[p[1]]++
		}
		for _, c := range perEnd {
			if c > row.SkeletonPerEnd {
				row.SkeletonPerEnd = c
			}
		}
		row.BasicReduction = 1 - float64(row.Basic)/float64(row.FullMesh)
		row.SkeletonReduction = 1 - float64(row.Skeleton)/float64(row.FullMesh)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render emits the scale table.
func (f Fig15) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 15 — probing targets per round\n")
	fmt.Fprintf(&b, "%-8s%12s%12s%12s%12s%14s%14s\n",
		"RNICs", "full-mesh", "deTector", "basic", "skeleton", "basic-red.", "skel-red.")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-8d%12d%12d%12d%12d%13.1f%%%13.2f%%\n",
			r.RNICs, r.FullMesh, r.DeTector, r.Basic, r.Skeleton,
			100*r.BasicReduction, 100*r.SkeletonReduction)
	}
	return b.String()
}

// Fig16Row is one probing-round-time data point.
type Fig16Row struct {
	RNICs    int
	FullMesh time.Duration
	Basic    time.Duration
	Skeleton time.Duration
}

// Fig16 is the probing-round-time comparison (Fig. 16).
type Fig16 struct {
	Rows []Fig16Row
}

// Fig16ProbingTime converts per-endpoint target counts into round
// durations with the calibrated cost model.
func Fig16ProbingTime() (Fig16, error) {
	f15, err := Fig15ProbingScale()
	if err != nil {
		return Fig16{}, err
	}
	var out Fig16
	for _, r := range f15.Rows {
		containers := r.RNICs / 8
		out.Rows = append(out.Rows, Fig16Row{
			RNICs:    r.RNICs,
			FullMesh: baseline.RoundTime(baseline.PerEndpointFullMesh(containers, 8)),
			Basic:    baseline.RoundTime(baseline.PerEndpointBasic(containers)),
			Skeleton: baseline.RoundTime(r.SkeletonPerEnd),
		})
	}
	return out, nil
}

// Render emits the round-time table.
func (f Fig16) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 16 — time cost of one probing round\n")
	fmt.Fprintf(&b, "%-8s%14s%14s%14s\n", "RNICs", "full-mesh", "basic", "skeleton")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-8d%14s%14s%14s\n", r.RNICs,
			r.FullMesh.Round(time.Second), r.Basic.Round(time.Second), r.Skeleton.Round(time.Second))
	}
	return b.String()
}

// Fig17 is the agent-overhead convergence curve (Fig. 17).
type Fig17 struct {
	Ages  []time.Duration
	CPU   []float64
	MemMB []float64
}

// Fig17AgentOverhead samples the agent resource model over a container
// lifetime with a skeleton-sized ping list.
func Fig17AgentOverhead() Fig17 {
	m := probe.ResourceModel{Targets: 24}
	var out Fig17
	for _, age := range []time.Duration{
		0, 10 * time.Second, 30 * time.Second, time.Minute, 2 * time.Minute,
		5 * time.Minute, 10 * time.Minute, 30 * time.Minute, time.Hour,
	} {
		out.Ages = append(out.Ages, age)
		out.CPU = append(out.CPU, m.CPUPercent(age))
		out.MemMB = append(out.MemMB, m.MemoryMB(age))
	}
	return out
}

// Render emits the convergence rows.
func (f Fig17) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 17 — agent resource consumption over container lifetime\n")
	fmt.Fprintf(&b, "%-10s%10s%10s\n", "age", "cpu%", "memMB")
	for i := range f.Ages {
		fmt.Fprintf(&b, "%-10s%10.2f%10.1f\n", f.Ages[i], f.CPU[i], f.MemMB[i])
	}
	return b.String()
}

// fastLag gives deterministic, quick container lifecycles for the
// evaluation scenarios.
func fastLag() cluster.LagModel {
	return cluster.LagModel{
		CreateLag:    func(r *rand.Rand, i int) time.Duration { return time.Duration(i) * time.Second },
		StartupDelay: func(r *rand.Rand) time.Duration { return 5 * time.Second },
		StopLag:      func(r *rand.Rand) time.Duration { return time.Second },
	}
}

func newEvalDeployment(seed int64) (*hunter.Deployment, *cluster.Task, error) {
	d, err := hunter.New(hunter.Options{
		Seed: seed,
		Spec: topology.Spec{Pods: 1, HostsPerPod: 8, Rails: 8, AggPerPod: 2},
		Lag:  fastLag(),
	})
	if err != nil {
		return nil, nil, err
	}
	task, err := d.SubmitTask(cluster.TaskSpec{Par: parallelism.Config{TP: 8, PP: 2, DP: 2}})
	if err != nil {
		return nil, nil, err
	}
	d.Run(time.Minute)
	return d, task, nil
}

// Fig18 is the production case study (Fig. 18): flow-table
// inconsistency between overlay and underlay.
type Fig18 struct {
	// RTTSeries is the observed RTT (µs) of the affected pair per
	// second; 0 marks lost probes.
	RTTSeries []float64
	InjectAt  time.Duration
	DetectAt  time.Duration
	IsolateAt time.Duration
	RecoverAt time.Duration
	// Verdict is the localization outcome.
	Verdict string
	// DetectionLatency = DetectAt − InjectAt.
	DetectionLatency time.Duration
	// QueueDuringAnomaly is the ToR queue length while latency was
	// anomalous — the paper validated the case was NOT congestion by
	// observing it "hardly increases".
	QueueDuringAnomaly float64
	// QueueBaseline is the queue length during the healthy prefix.
	QueueBaseline float64
}

// Fig18CaseStudy scripts the scenario: healthy baseline, offload
// entries invalidated on one RNIC at t≈90 s (relative to the
// observation window), detection, dump-based localization, isolation,
// recovery within 60 s.
func Fig18CaseStudy(seed int64) (Fig18, error) {
	d, task, err := newEvalDeployment(seed)
	if err != nil {
		return Fig18{}, err
	}
	// Detector history.
	d.Run(5 * time.Minute)

	a := task.Containers[0].Addrs[6]
	bAddr := task.Containers[1].Addrs[6]

	var out Fig18
	obsStart := d.Engine.Now()
	sample := func() {
		res := d.Net.Probe(a, bAddr, uint64(len(out.RTTSeries)))
		if res.Lost {
			out.RTTSeries = append(out.RTTSeries, 0)
		} else {
			out.RTTSeries = append(out.RTTSeries, float64(res.RTT)/float64(time.Microsecond))
		}
	}
	runSampled := func(dur time.Duration) {
		for i := time.Duration(0); i < dur; i += time.Second {
			d.Run(time.Second)
			sample()
		}
	}

	runSampled(90 * time.Second) // healthy prefix
	tor := d.Fabric.ToR(d.Fabric.PodOf(a.Host), 6)
	out.QueueBaseline = d.Net.QueueLength(tor)

	in, err := d.Injector.Inject(faults.OffloadingFailure, faults.Target{Host: a.Host, Rail: 6, VNI: a.VNI})
	if err != nil {
		return Fig18{}, err
	}
	out.InjectAt = d.Engine.Now() - obsStart

	// Run until the analyzer raises an alarm naming the RNIC.
	deadline := d.Engine.Now() + 3*time.Minute
	for d.Engine.Now() < deadline && out.DetectAt == 0 {
		d.Run(time.Second)
		sample()
		for _, al := range d.Analyzer.Alarms() {
			for _, v := range al.Verdicts {
				for _, c := range v.Components {
					if c == in.Components[0] {
						out.DetectAt = al.At - obsStart
						out.Verdict = v.Detail
					}
				}
			}
		}
	}
	if out.DetectAt == 0 {
		return Fig18{}, fmt.Errorf("figures: Fig18 fault never localized")
	}
	out.DetectionLatency = out.DetectAt - out.InjectAt
	out.QueueDuringAnomaly = d.Net.QueueLength(tor)

	// Isolation: the RNIC is reset/isolated; recovery completes 60 s
	// later (the paper's observed recovery time).
	runSampled(10 * time.Second)
	out.IsolateAt = d.Engine.Now() - obsStart
	d.Injector.Clear(in)
	runSampled(60 * time.Second)
	out.RecoverAt = d.Engine.Now() - obsStart
	runSampled(30 * time.Second) // healthy tail
	return out, nil
}

// Render emits the event log and a condensed latency series.
func (f Fig18) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 18 — case study: overlay↔underlay flow-table inconsistency\n")
	fmt.Fprintf(&b, "inject=%s detect=%s (latency %s) isolate=%s recovered=%s\n",
		f.InjectAt.Round(time.Second), f.DetectAt.Round(time.Second),
		f.DetectionLatency.Round(time.Second), f.IsolateAt.Round(time.Second),
		f.RecoverAt.Round(time.Second))
	fmt.Fprintf(&b, "verdict: %s\n", f.Verdict)
	fmt.Fprintf(&b, "ToR queue length: %.1f pkts healthy vs %.1f during anomaly (flat ⇒ not congestion)\n",
		f.QueueBaseline, f.QueueDuringAnomaly)
	fmt.Fprintf(&b, "RTT series (µs, every 10th second; 0 = lost):\n")
	for i := 0; i < len(f.RTTSeries); i += 10 {
		fmt.Fprintf(&b, "%6.0f", f.RTTSeries[i])
		if (i/10+1)%15 == 0 {
			b.WriteByte('\n')
		}
	}
	b.WriteByte('\n')
	return b.String()
}
