// Benchmark harness: one benchmark per figure and table of the paper.
// Each benchmark regenerates its artifact and reports the headline
// shape quantities via b.ReportMetric, so `go test -bench=. -benchmem`
// doubles as the experiment reproduction run. cmd/figures prints the
// same artifacts as full tables.
package skeletonhunter_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"skeletonhunter/internal/analyzer"
	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/correlate"
	"skeletonhunter/internal/detect"
	"skeletonhunter/internal/figures"
	"skeletonhunter/internal/hcluster"
	"skeletonhunter/internal/localize"
	"skeletonhunter/internal/netsim"
	"skeletonhunter/internal/overlay"
	"skeletonhunter/internal/parallelism"
	"skeletonhunter/internal/probe"
	"skeletonhunter/internal/sim"
	"skeletonhunter/internal/skeleton"
	"skeletonhunter/internal/stats"
	"skeletonhunter/internal/topology"
	"skeletonhunter/internal/traffic"
)

func BenchmarkFig02ContainerLifetime(b *testing.B) {
	var f figures.Fig02
	for i := 0; i < b.N; i++ {
		f = figures.Fig02ContainerLifetime(1, 5000)
	}
	b.ReportMetric(f.CDF[0][2], "P(small≤60min)")
	b.ReportMetric(f.CDF[2][2], "P(large≤60min)")
}

func BenchmarkFig03LifetimeByConfig(b *testing.B) {
	var f figures.Fig03
	for i := 0; i < b.N; i++ {
		f = figures.Fig03LifetimeByConfig(1, 5000)
	}
	b.ReportMetric(f.CDF[0][2], "P(lowend≤60min)")
	b.ReportMetric(f.CDF[2][2], "P(highend≤60min)")
}

func BenchmarkFig04StartupTime(b *testing.B) {
	var f figures.Fig04
	for i := 0; i < b.N; i++ {
		f = figures.Fig04StartupTime(1)
	}
	last := f.Startup[5]
	b.ReportMetric(last[len(last)-1].Seconds(), "tail-startup-s")
}

func BenchmarkFig05RNICsPerContainer(b *testing.B) {
	var f figures.Fig05
	for i := 0; i < b.N; i++ {
		f = figures.Fig05RNICsPerContainer(1, 20000)
	}
	b.ReportMetric(float64(f.Counts[8])/float64(f.Total), "share-8rnic")
}

func BenchmarkFig06FlowTableItems(b *testing.B) {
	var f figures.Fig06
	for i := 0; i < b.N; i++ {
		f = figures.Fig06FlowTableItems(1, 20000)
	}
	b.ReportMetric(f.Mean, "mean-items")
	b.ReportMetric(float64(f.Max), "max-items")
}

func BenchmarkFig07BurstCycles(b *testing.B) {
	var f figures.Fig07
	for i := 0; i < b.N; i++ {
		f = figures.Fig07BurstCycles(1)
	}
	b.ReportMetric(f.PeakGbps, "peak-gbps")
	b.ReportMetric(f.IdleFrac, "idle-frac")
}

func BenchmarkFig09TrafficMatrix(b *testing.B) {
	var f figures.Fig09
	var err error
	for i := 0; i < b.N; i++ {
		f, err = figures.Fig09TrafficMatrix()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(f.DenseDensity, "dense-density")
	b.ReportMetric(f.MoEDensity, "moe-density")
}

func BenchmarkFig12JobSizes(b *testing.B) {
	var f figures.Fig12
	for i := 0; i < b.N; i++ {
		f = figures.Fig12JobSizes(1, 20000)
	}
	b.ReportMetric(float64(f.Counts[512])/float64(f.Total), "share-512gpu")
}

func BenchmarkFig13STFTFeatures(b *testing.B) {
	var f figures.Fig13
	for i := 0; i < b.N; i++ {
		f = figures.Fig13STFTFeatures(1)
	}
	b.ReportMetric(f.DistAB, "within-class-dist")
	b.ReportMetric(f.DistAC, "cross-class-dist")
}

func BenchmarkFig14LongTermTracking(b *testing.B) {
	var f figures.Fig14
	var err error
	for i := 0; i < b.N; i++ {
		f, err = figures.Fig14LongTermTracking(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	rejected := 0
	for _, w := range f.Windows {
		if w.Rejected {
			rejected++
		}
	}
	b.ReportMetric(float64(rejected), "windows-rejected")
}

func BenchmarkFig15ProbingScale(b *testing.B) {
	var f figures.Fig15
	var err error
	for i := 0; i < b.N; i++ {
		f, err = figures.Fig15ProbingScale()
		if err != nil {
			b.Fatal(err)
		}
	}
	last := f.Rows[len(f.Rows)-1]
	b.ReportMetric(float64(last.FullMesh)/float64(last.Basic), "fullmesh/basic")
	b.ReportMetric(float64(last.Basic)/float64(last.Skeleton), "basic/skeleton")
	b.ReportMetric(100*last.SkeletonReduction, "skeleton-reduction-%")
}

func BenchmarkFig16ProbingTime(b *testing.B) {
	var f figures.Fig16
	var err error
	for i := 0; i < b.N; i++ {
		f, err = figures.Fig16ProbingTime()
		if err != nil {
			b.Fatal(err)
		}
	}
	last := f.Rows[len(f.Rows)-1]
	b.ReportMetric(last.FullMesh.Seconds(), "fullmesh-round-s")
	b.ReportMetric(last.Basic.Seconds(), "basic-round-s")
	b.ReportMetric(last.Skeleton.Seconds(), "skeleton-round-s")
}

func BenchmarkFig17AgentOverhead(b *testing.B) {
	var f figures.Fig17
	for i := 0; i < b.N; i++ {
		f = figures.Fig17AgentOverhead()
	}
	n := len(f.Ages)
	b.ReportMetric(f.CPU[n-1], "steady-cpu-%")
	b.ReportMetric(f.MemMB[n-1], "steady-mem-MB")
}

func BenchmarkFig18CaseStudy(b *testing.B) {
	var f figures.Fig18
	var err error
	for i := 0; i < b.N; i++ {
		f, err = figures.Fig18CaseStudy(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(f.DetectionLatency.Seconds(), "detection-latency-s")
	b.ReportMetric((f.RecoverAt - f.IsolateAt).Seconds(), "recovery-s")
}

func BenchmarkTable1IssueCatalog(b *testing.B) {
	var t figures.Table1
	var err error
	for i := 0; i < b.N; i++ {
		t, err = figures.Table1IssueCatalog(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(t.Detected()), "detected/19")
	b.ReportMetric(float64(t.Localized()), "localized/19")
}

func BenchmarkHeadlineAccuracy(b *testing.B) {
	var h figures.Headline
	var err error
	for i := 0; i < b.N; i++ {
		h, err = figures.HeadlineAccuracy(1, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*h.Report.Precision(), "precision-%")
	b.ReportMetric(100*h.Report.Recall(), "recall-%")
	b.ReportMetric(100*h.Report.LocalizationAccuracy(), "localization-%")
	b.ReportMetric(h.Report.MeanDetectionLatency.Seconds(), "mean-detect-s")
}

func BenchmarkFailureRateReduction(b *testing.B) {
	var f figures.FailureRate
	var err error
	for i := 0; i < b.N; i++ {
		f, err = figures.FailureRateReduction(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(f.Before), "failures-before/month")
	b.ReportMetric(float64(f.After), "failures-after/month")
	b.ReportMetric(f.ReductionPct, "reduction-%")
}

func BenchmarkTrainingImpact(b *testing.B) {
	var im figures.Impact
	var err error
	for i := 0; i < b.N; i++ {
		im, err = figures.TrainingImpact(1, 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(im.FailedWithout), "jobs-failed-without")
	b.ReportMetric(float64(im.FailedWith), "jobs-failed-with")
	b.ReportMetric(float64(im.IterationsWith), "rounds-with")
}

// BenchmarkSkeletonInference512 measures full-pipeline inference cost
// at the paper's headline scale (512 endpoints): STFT fingerprinting +
// constrained clustering + stage ordering. The paper picked STFT for
// its low runtime cost (§5.1); this is that cost, end to end.
func BenchmarkSkeletonInference512(b *testing.B) {
	par := parallelism.Config{TP: 8, PP: 8, DP: 8}
	gen := &traffic.Generator{Par: par, GPUsPerContainer: 8, Seed: 17, IterPeriod: 60 * time.Second}
	var eps []skeleton.EndpointSeries
	for _, ep := range gen.Endpoints() {
		eps = append(eps, skeleton.EndpointSeries{
			Container: ep.Container, Rail: ep.Rail, Host: ep.Container,
			Series: gen.Series(ep, 1800*time.Second),
		})
	}
	b.ResetTimer()
	var inf skeleton.Inference
	var err error
	for i := 0; i < b.N; i++ {
		inf, err = skeleton.Infer(eps, skeleton.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(inf.DP), "inferred-DP")
	b.ReportMetric(float64(inf.PP), "inferred-PP")
	b.ReportMetric(float64(len(inf.Pairs)), "skeleton-pairs")
}

// --- Ablations (DESIGN.md §4) ---

// seriesWithJitter builds inference input with the given inter-replica
// phase jitter (different DP replicas drift slightly in burst phase —
// the regime that separates the feature/constraint choices).
func seriesWithJitter(par parallelism.Config, jitter int, seed int64) ([]skeleton.EndpointSeries, *traffic.Generator) {
	gen := &traffic.Generator{Par: par, GPUsPerContainer: 8, Seed: seed, PhaseJitterSamples: jitter}
	var eps []skeleton.EndpointSeries
	for _, ep := range gen.Endpoints() {
		eps = append(eps, skeleton.EndpointSeries{
			Container: ep.Container, Rail: ep.Rail, Host: ep.Container,
			Series: gen.Series(ep, 900*time.Second),
		})
	}
	return eps, gen
}

func inferencePurity(eps []skeleton.EndpointSeries, gen *traffic.Generator, opts skeleton.Options) (purity float64, inf skeleton.Inference) {
	inf, err := skeleton.Infer(eps, opts)
	if err != nil {
		return 0, inf
	}
	correct, total := 0, 0
	for _, g := range inf.Groups {
		counts := map[traffic.Position]int{}
		for _, m := range g {
			pos, _ := gen.PositionOf(parallelism.Endpoint{Container: eps[m].Container, Rail: eps[m].Rail})
			counts[pos]++
		}
		best := 0
		for _, c := range counts {
			if c > best {
				best = c
			}
		}
		correct += best
		total += len(g)
	}
	return float64(correct) / float64(total), inf
}

// BenchmarkAblationSTFT compares skeleton-inference grouping purity
// with STFT fingerprints versus raw time-domain features under
// realistic inter-replica phase jitter (§5.1's feature-choice
// rationale): magnitude spectra are phase-invariant, raw series are
// not.
func BenchmarkAblationSTFT(b *testing.B) {
	par := parallelism.Config{TP: 8, PP: 4, DP: 4}
	eps, gen := seriesWithJitter(par, 2, 5)
	var stft, td float64
	for i := 0; i < b.N; i++ {
		stft, _ = inferencePurity(eps, gen, skeleton.Options{})
		td, _ = inferencePurity(eps, gen, skeleton.Options{TimeDomainFeatures: true})
	}
	b.ReportMetric(100*stft, "stft-purity-%")
	b.ReportMetric(100*td, "timedomain-purity-%")
}

// BenchmarkAblationConstraints compares constrained (Eq. 1–3) versus
// unconstrained clustering in the degraded-feature regime (time-domain
// + jitter): the constraints force a structurally valid partition
// (balanced group sizes whose count divides N, so a DP estimate
// exists), while unconstrained clustering over-splits into an
// uninterpretable shape.
func BenchmarkAblationConstraints(b *testing.B) {
	par := parallelism.Config{TP: 8, PP: 4, DP: 4} // true DP = 4
	eps, gen := seriesWithJitter(par, 2, 5)
	opts := skeleton.Options{TimeDomainFeatures: true}
	var conVar, unconVar float64
	var conDP, unconDP int
	for i := 0; i < b.N; i++ {
		_, con := inferencePurity(eps, gen, opts)
		unconOpts := opts
		unconOpts.Unconstrained = true
		_, uncon := inferencePurity(eps, gen, unconOpts)
		conVar = hcluster.GroupSizeVariance(con.Groups)
		unconVar = hcluster.GroupSizeVariance(uncon.Groups)
		conDP, unconDP = con.DP, uncon.DP
	}
	b.ReportMetric(conVar, "constrained-size-var")
	b.ReportMetric(unconVar, "unconstrained-size-var")
	b.ReportMetric(float64(conDP), "constrained-inferred-DP")
	b.ReportMetric(float64(unconDP), "unconstrained-inferred-DP")
}

// BenchmarkAblationActivation quantifies the startup false probes that
// incremental ping-list activation avoids: during a task's phased
// startup, an immediate-activation prober loses every probe aimed at a
// not-yet-started container, each a would-be false unconnectivity.
func BenchmarkAblationActivation(b *testing.B) {
	var immediateLost, incrementalLost int
	for i := 0; i < b.N; i++ {
		immediateLost, incrementalLost = 0, 0
		eng := sim.NewEngine(3)
		fab, err := topology.New(topology.Spec{Pods: 1, HostsPerPod: 8, Rails: 8, AggPerPod: 2})
		if err != nil {
			b.Fatal(err)
		}
		ovl := overlay.NewNetwork()
		cp := cluster.NewControlPlane(eng, fab, ovl, cluster.DefaultLagModel())
		task, err := cp.Submit(cluster.TaskSpec{Par: parallelism.Config{TP: 8, PP: 2, DP: 2}})
		if err != nil {
			b.Fatal(err)
		}
		net := netsim.New(eng, fab, ovl)
		// Sample each second of the startup phase.
		for tick := 0; tick < 240; tick++ {
			eng.RunUntil(eng.Now() + time.Second)
			for _, src := range task.Containers {
				if src.State != cluster.Running {
					continue
				}
				for _, dst := range task.Containers {
					if dst == src {
						continue
					}
					// Immediate activation probes regardless of dst state.
					if net.Probe(src.Addrs[0], dst.Addrs[0], uint64(tick)).Lost {
						immediateLost++
					}
					// Incremental activation probes only Running peers —
					// and those probes succeed.
					if dst.State == cluster.Running {
						if net.Probe(src.Addrs[0], dst.Addrs[0], uint64(tick)).Lost {
							incrementalLost++
						}
					}
				}
			}
		}
	}
	b.ReportMetric(float64(immediateLost), "immediate-false-lost")
	b.ReportMetric(float64(incrementalLost), "incremental-false-lost")
}

// BenchmarkAblationDisentangle compares the component inspections of
// optimistic overlay–underlay disentanglement against the exhaustive
// X×Y×Z sweep of the multiplicative effect (§1, §3).
func BenchmarkAblationDisentangle(b *testing.B) {
	// A production-shaped task: 128 containers × 8 RNICs × 16 virtual
	// components per RNIC (the paper's example reaches 128K at 1K
	// containers).
	const containers, rnics, virt = 128, 8, 16
	exhaustive := containers * rnics * virt
	// Optimistic: overlay chain (≈6 components) + tomography over the
	// evidence paths (≈2 links × pairs, bounded by vote table size) +
	// one offload dump (rails entries).
	optimistic := 6 + 2*rnics + rnics
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = float64(exhaustive) / float64(optimistic)
	}
	b.ReportMetric(float64(exhaustive), "exhaustive-inspections")
	b.ReportMetric(float64(optimistic), "optimistic-inspections")
	b.ReportMetric(ratio, "reduction-x")
}

// BenchmarkAblationLongTerm shows that gradual degradation evades the
// short-term LOF detector but is caught by the long-term Z-test
// (Fig. 14's purpose): latency creeps +0.3 % per window, slow enough
// that every window clusters into its look-back, yet after an hour the
// distribution has clearly left the fitted reference.
func BenchmarkAblationLongTerm(b *testing.B) {
	runOnce := func(longTerm bool) (short, long bool) {
		cfg := detect.Config{}
		if !longTerm {
			cfg.ZThreshold = 1e18 // effectively disables the Z-test
		}
		d := detect.New(cfg, func(a detect.Anomaly) {
			switch a.Type {
			case detect.LatencyShortTerm:
				short = true
			case detect.LatencyLongTerm:
				long = true
			}
		})
		key := detect.PairKey{Task: "drift", DstContainer: 1}
		var st detect.Pair
		r := rand.New(rand.NewSource(9))
		median := 16.0
		at := time.Duration(0)
		for at < 2*time.Hour {
			dist := stats.LogNormal{Mu: math.Log(median), Sigma: 0.08}
			for i := 0; i < 30; i++ {
				rtt := time.Duration(dist.Sample(r) * float64(time.Microsecond))
				d.ObserveMany(key, &st, []detect.Sample{{At: at, RTT: rtt}})
				at += time.Second
			}
			median *= 1.003 // +0.3 % per 30 s window
		}
		d.Flush(key, &st, at)
		return short, long
	}
	var shortOnly, longSeen bool
	for i := 0; i < b.N; i++ {
		shortOnly, _ = runOnce(false)
		_, longSeen = runOnce(true)
	}
	b.ReportMetric(boolMetric(longSeen), "detected-with-longterm")
	b.ReportMetric(boolMetric(shortOnly), "detected-shortterm-only")
}

// BenchmarkAblationCUSUMvsLOF compares the sequential (per-sample)
// CUSUM detector against the windowed LOF on the same moderate latency
// shift: CUSUM reacts in a handful of samples, LOF waits for its
// 30-sample window to close. The CUSUM is the correlate layer's own
// detector — level k = 1σ, h = 5σ over log-RTT — armed with the
// healthy reference as its baseline. The production system prefers LOF
// for the first layer (no parametric reference, robust to multimodal
// histories); this quantifies what that choice costs in reaction time.
func BenchmarkAblationCUSUMvsLOF(b *testing.B) {
	healthy := stats.LogNormal{Mu: math.Log(16), Sigma: 0.1}
	shifted := stats.LogNormal{Mu: math.Log(22), Sigma: 0.1}
	var cusumSamples, lofSamples float64
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(6))
		c := correlate.CUSUM{Mu: healthy.Mu, Sig: healthy.Sigma}
		cusumSamples = 300
		for s := 0; s < 300; s++ {
			if fired, _, _, _ := c.Observe(math.Log(shifted.Sample(r))); fired {
				cusumSamples = float64(s + 1)
				break
			}
		}
		// LOF detects at the close of the first fully-shifted window.
		lofSamples = 30
	}
	b.ReportMetric(cusumSamples, "cusum-samples-to-detect")
	b.ReportMetric(lofSamples, "lof-samples-to-detect")
}

// --- Analysis-plane pipeline (DESIGN.md §analysis-plane) ---

// benchAnalyzer builds an analyzer on a one-pod fabric and names its
// benchmark tasks.
func benchAnalyzer(b *testing.B, workers, tasks int) (*analyzer.Analyzer, []cluster.TaskID) {
	eng := sim.NewEngine(7)
	fab, err := topology.New(topology.Spec{Pods: 1, HostsPerPod: 8, Rails: 8, AggPerPod: 2})
	if err != nil {
		b.Fatal(err)
	}
	ovl := overlay.NewNetwork()
	cp := cluster.NewControlPlane(eng, fab, ovl, cluster.DefaultLagModel())
	net := netsim.New(eng, fab, ovl)
	loc := localize.NewWithControlPlane(net, cp)
	taskIDs := make([]cluster.TaskID, tasks)
	for i := range taskIDs {
		taskIDs[i] = cluster.TaskID(fmt.Sprintf("bench-task-%02d", i))
	}
	return analyzer.New(eng, loc, analyzer.Config{Workers: workers}), taskIDs
}

// benchAnalyzerRound drives the sharded analysis plane at a
// production-shaped load: 16 concurrent task shards, each ingesting a
// full 30-sample detection window for 24 pairs per round (11,520
// records per round), then running one analysis round. Healthy RTTs
// keep the localizer mostly out of the loop so the numbers isolate
// the ingest→window→detect path that dominates steady-state cost.
func benchAnalyzerRound(b *testing.B, workers int) {
	const (
		tasks            = 16
		pairsPerTask     = 24
		samplesPerWindow = 30
	)
	an, taskIDs := benchAnalyzer(b, workers, tasks)
	dist := stats.LogNormal{Mu: math.Log(16), Sigma: 0.1}
	r := rand.New(rand.NewSource(5))
	batch := make(probe.Batch, 0, pairsPerTask*samplesPerWindow)
	at := time.Duration(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, id := range taskIDs {
			batch = batch[:0]
			for p := 0; p < pairsPerTask; p++ {
				for s := 0; s < samplesPerWindow; s++ {
					batch = append(batch, probe.Record{
						Task:         id,
						SrcContainer: p, SrcRail: p % 8,
						DstContainer: p + 1, DstRail: p % 8,
						At:  at + time.Duration(s)*time.Second,
						RTT: time.Duration(dist.Sample(r) * float64(time.Microsecond)),
					})
				}
			}
			an.IngestBatch(batch)
		}
		at += samplesPerWindow * time.Second
		an.Round(at)
	}
	b.StopTimer()
	total := float64(b.N) * tasks * pairsPerTask * samplesPerWindow
	b.ReportMetric(total/b.Elapsed().Seconds(), "records/s")
	b.ReportMetric(float64(an.Shards()), "shards")
	// Healthy iid load: long runs may see the odd statistical-outlier
	// window flag, which is fine — it exercises the localize stage too.
	b.ReportMetric(float64(len(an.Alarms())), "alarms")
}

// BenchmarkAnalyzerRoundSerial pins the round fan-out to one worker —
// the pre-refactor serial baseline.
func BenchmarkAnalyzerRoundSerial(b *testing.B) { benchAnalyzerRound(b, 1) }

// BenchmarkAnalyzerRoundSharded lets the round fan out across
// GOMAXPROCS workers; alarms are bit-identical to the serial run (see
// internal/hunter determinism tests), only wall-clock differs.
func BenchmarkAnalyzerRoundSharded(b *testing.B) { benchAnalyzerRound(b, 0) }

// BenchmarkAnalyzerRoundAgentShaped feeds the analysis round the inbox
// the fleet produces: every batch is one agent's round, one observation
// time for the whole batch, its records in basic-ping-list target order
// (destination container, then rail — not pair-key order), and ten
// agent rounds queue per analysis interval. 16 tasks of 4 containers
// on 8 rails probe 15,360 records per interval; the round fans out over
// GOMAXPROCS workers.
func BenchmarkAnalyzerRoundAgentShaped(b *testing.B) {
	const (
		tasks           = 16
		containers      = 4
		rails           = 8
		agentRounds     = 10
		agentRoundEvery = 3 * time.Second
	)
	an, taskIDs := benchAnalyzer(b, 0, tasks)
	dist := stats.LogNormal{Mu: math.Log(16), Sigma: 0.1}
	r := rand.New(rand.NewSource(5))
	batch := make(probe.Batch, 0, (containers-1)*rails)
	at := time.Duration(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for round := 0; round < agentRounds; round++ {
			for _, id := range taskIDs {
				for src := 0; src < containers; src++ {
					batch = batch[:0]
					for dst := 0; dst < containers; dst++ {
						if dst == src {
							continue
						}
						for rail := 0; rail < rails; rail++ {
							batch = append(batch, probe.Record{
								Task:         id,
								SrcContainer: src, SrcRail: rail,
								DstContainer: dst, DstRail: rail,
								At:  at,
								RTT: time.Duration(dist.Sample(r) * float64(time.Microsecond)),
							})
						}
					}
					an.IngestBatch(batch)
				}
			}
			at += agentRoundEvery
		}
		an.Round(at)
	}
	b.StopTimer()
	total := float64(b.N) * agentRounds * tasks * containers * (containers - 1) * rails
	b.ReportMetric(total/b.Elapsed().Seconds(), "records/s")
	b.ReportMetric(float64(len(an.Alarms())), "alarms")
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
