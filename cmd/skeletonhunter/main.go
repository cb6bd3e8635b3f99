// Command skeletonhunter runs a complete simulated deployment end to
// end: it brings up a containerized training cloud, submits a training
// task, lets the monitoring system reach steady state, infers the
// task's traffic skeleton, injects a chosen failure, and reports
// detection, localization and accuracy.
//
// Usage:
//
//	skeletonhunter [-hosts 8] [-tp 8 -pp 2 -dp 2] [-issue 9] [-seed 1] [-v]
//
// -issue selects the Table-1 issue number (1–19) to inject; 0 runs a
// healthy deployment.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/correlate"
	"skeletonhunter/internal/faults"
	"skeletonhunter/internal/hunter"
	"skeletonhunter/internal/metrics"
	"skeletonhunter/internal/parallelism"
	"skeletonhunter/internal/remedy"
	"skeletonhunter/internal/topology"
)

func main() {
	hosts := flag.Int("hosts", 8, "physical hosts in the fabric")
	tp := flag.Int("tp", 8, "tensor-parallel degree")
	pp := flag.Int("pp", 2, "pipeline-parallel degree")
	dp := flag.Int("dp", 2, "data-parallel degree")
	ep := flag.Int("ep", 1, "expert-parallel degree (MoE)")
	issue := flag.Int("issue", 9, "Table-1 issue number to inject (0 = none)")
	seed := flag.Int64("seed", 1, "simulation seed")
	workers := flag.Int("workers", 0, "worker count for the sharded monitoring round — probe, ingest, detect, localize (0 = GOMAXPROCS); alarms are identical at any value")
	verbose := flag.Bool("v", false, "print every alarm")
	stats := flag.Bool("stats", false, "print the monitoring plane's self-monitoring counters and stage timings at exit")
	telDrop := flag.Float64("tel-drop", 0, "telemetry fault: probability an agent batch is dropped before ingest")
	telDup := flag.Float64("tel-dup", 0, "telemetry fault: probability a batch is delivered twice")
	telReorder := flag.Float64("tel-reorder", 0, "telemetry fault: probability a batch is held and delivered out of order")
	telDelay := flag.Float64("tel-delay", 0, "telemetry fault: probability an analysis round is withheld")
	telStale := flag.Bool("tel-stale", false, "telemetry fault: freeze controller ping lists (agents probe stale lists)")
	telStorm := flag.Float64("tel-storm", 0, "telemetry fault: fraction of sidecar agents killed (and restarted 30s later) after steady state")
	crashAt := flag.Duration("crash-at", 0, "crash the monitoring controller at this sim time (0 = never); it recovers from its last checkpoint")
	crashDown := flag.Duration("crash-down", 90*time.Second, "how long a crashed controller stays down before recovering")
	ckptInterval := flag.Duration("checkpoint-interval", 2*time.Minute, "control-plane checkpoint period (0 = no periodic checkpoints)")
	httpAddr := flag.String("http", "", "serve the operator query API on this address (e.g. 127.0.0.1:8080) while the run executes")
	remedyOn := flag.Bool("remedy", false, "enable the self-healing remediation plane: policy-driven repair with safety rails and verify-then-commit")
	remedyDry := flag.Bool("remedy-dry-run", false, "remediation records repair intent without executing anything (implies -remedy)")
	remedyBudget := flag.Int("remedy-budget", 4, "max remediation actions per budget window")
	remedyWindow := flag.Duration("remedy-window", 10*time.Minute, "remediation budget window")
	remedyBlast := flag.Float64("remedy-blast", 0.25, "max fraction of hosts simultaneously under remediation")
	correlateOn := flag.Bool("correlate", false, "arm the second-layer gray-failure detector (CUSUM change-points, alarm dedup, lead-lag causal chains)")
	gray := flag.String("gray", "", `inject a gray failure: "droop" (ramped ToR congestion), "partial" (subtle RNIC latency), or "flap" (blinking link); implies -correlate`)
	flag.Parse()

	cfg := runConfig{
		hosts:   *hosts,
		par:     parallelism.Config{TP: *tp, PP: *pp, DP: *dp, EP: *ep},
		issue:   faults.IssueType(*issue),
		seed:    *seed,
		workers: *workers,
		verbose: *verbose,
		stats:   *stats,
		telemetry: faults.TelemetryOptions{
			DropBatchProb:      *telDrop,
			DuplicateBatchProb: *telDup,
			ReorderBatchProb:   *telReorder,
			DelayRoundProb:     *telDelay,
			StalePingLists:     *telStale,
		},
		stormFrac:    *telStorm,
		crashAt:      *crashAt,
		crashDown:    *crashDown,
		ckptInterval: *ckptInterval,
		httpAddr:     *httpAddr,
		correlate:    *correlateOn || *gray != "",
		gray:         *gray,
	}
	if *remedyOn || *remedyDry {
		cfg.remedy = &remedy.Config{
			Budget:      *remedyBudget,
			Window:      *remedyWindow,
			BlastRadius: *remedyBlast,
			DryRun:      *remedyDry,
		}
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "skeletonhunter:", err)
		os.Exit(1)
	}
}

type runConfig struct {
	hosts        int
	par          parallelism.Config
	issue        faults.IssueType
	seed         int64
	workers      int
	verbose      bool
	stats        bool
	telemetry    faults.TelemetryOptions
	stormFrac    float64
	crashAt      time.Duration
	crashDown    time.Duration
	ckptInterval time.Duration
	httpAddr     string
	remedy       *remedy.Config
	correlate    bool
	gray         string
}

func (c runConfig) telemetryEnabled() bool {
	return c.telemetry != (faults.TelemetryOptions{})
}

func run(cfg runConfig) error {
	hosts, par, issue, seed, workers, verbose :=
		cfg.hosts, cfg.par, cfg.issue, cfg.seed, cfg.workers, cfg.verbose
	opts := hunter.Options{
		Seed:               seed,
		Hosts:              hosts,
		Workers:            workers,
		CheckpointInterval: cfg.ckptInterval,
		HTTPAddr:           cfg.httpAddr,
		Remedy:             cfg.remedy,
	}
	if cfg.correlate {
		opts.Correlate = &correlate.Config{}
	}
	d, err := hunter.New(opts)
	if err != nil {
		return err
	}
	if d.API != nil {
		defer d.API.Close()
		fmt.Printf("query API: http://%s/v1/incidents\n", d.API.Addr())
		fmt.Printf("watch feed: http://%s/v1/watch?cursor=0 (add &stream=sse to stream)\n", d.API.Addr())
	}
	var crash *faults.ControllerCrash
	if cfg.crashAt > 0 {
		crash = d.ScheduleControllerCrash(cfg.crashAt, cfg.crashDown)
		fmt.Printf("controller crash scheduled at t=%v (down %v, recovering from last checkpoint)\n",
			cfg.crashAt, cfg.crashDown)
	}
	fmt.Printf("fabric: %d hosts × %d rails, %d physical links\n",
		d.Fabric.Hosts(), d.Fabric.Spec.Rails, d.Fabric.NumLinks())

	task, err := d.SubmitTask(cluster.TaskSpec{Par: par})
	if err != nil {
		return err
	}
	fmt.Printf("submitted %s (%s, %d containers)\n", task.ID, par, task.NumContainers())

	// Wait out the phased startup, then report.
	d.Run(15 * time.Minute)
	fmt.Printf("t=%-8v %d/%d containers running, %d sidecar agents\n",
		d.Engine.Now().Round(time.Second), len(task.RunningContainers()), task.NumContainers(), d.Agents())

	st, _ := d.Controller.StatsOf(task.ID)
	fmt.Printf("ping list: full-mesh %d → basic %d targets (phase %s)\n",
		st.FullMeshTargets, st.BasicTargets, st.Phase)

	inf, err := d.InferSkeleton(task, 900*time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("skeleton inferred: DP=%d TP×PP=%d (TP=%d, PP=%d), %d probe pairs\n",
		inf.DP, inf.TPxPP, inf.TP, inf.PP, len(inf.Pairs))
	st, _ = d.Controller.StatsOf(task.ID)
	fmt.Printf("ping list: now %d targets (%.1f%% below full mesh)\n",
		st.CurrentTargets, 100*(1-float64(st.CurrentTargets)/float64(st.FullMeshTargets)))

	if cfg.telemetryEnabled() {
		d.SetTelemetryFaults(cfg.telemetry)
		fmt.Printf("telemetry faults on: drop=%.2f dup=%.2f reorder=%.2f delay=%.2f stale=%v\n",
			cfg.telemetry.DropBatchProb, cfg.telemetry.DuplicateBatchProb,
			cfg.telemetry.ReorderBatchProb, cfg.telemetry.DelayRoundProb,
			cfg.telemetry.StalePingLists)
	}
	if cfg.stormFrac > 0 {
		killed := d.AgentRestartStorm(cfg.stormFrac, 30*time.Second)
		fmt.Printf("agent restart storm: %d sidecar agents killed, restarting in 30s\n", killed)
	}

	d.Run(5 * time.Minute) // detector history on the skeleton list

	if cfg.gray != "" {
		kind, gtgt, err := grayTarget(d, task, cfg.gray)
		if err != nil {
			return err
		}
		gin, err := d.Injector.InjectGray(kind, gtgt)
		if err != nil {
			return err
		}
		fmt.Printf("t=%-8v injected gray failure (%s) → %v\n",
			d.Engine.Now().Round(time.Second), gin.Info.Name, gin.Components)
	}

	if issue == 0 {
		run := 5 * time.Minute
		if cfg.gray != "" {
			// Gray degradations build evidence over rounds: give the
			// drift accumulators and lead-lag window time to converge.
			run = 8 * time.Minute
		}
		d.Run(run)
		fmt.Printf("healthy run: %d alarms\n", len(d.Analyzer.Alarms()))
		if cfg.gray != "" {
			d.Analyzer.Flush(d.Engine.Now())
			reportIncidents(d)
			reportGray(d)
		}
		reportCrash(d, crash)
		if cfg.stats {
			fmt.Printf("self-monitoring stats:\n%s", indent(d.Stats().String()))
		}
		return nil
	}

	info, ok := faults.InfoOf(issue)
	if !ok {
		return fmt.Errorf("unknown issue %d", issue)
	}
	tgt, err := pickTarget(d, task, issue)
	if err != nil {
		return err
	}
	in, err := d.Injector.Inject(issue, tgt)
	if err != nil {
		return err
	}
	fmt.Printf("t=%-8v injected issue %d (%s; expected symptom %s) → %v\n",
		d.Engine.Now().Round(time.Second), info.Type, info.Name, info.Symptom, in.Components)

	d.Run(3 * time.Minute)
	if issue != faults.ContainerCrash {
		d.Injector.Clear(in)
	}
	d.Run(time.Minute)

	rep := metrics.Score(d.Injector.Injections(), d.Analyzer.Alarms(), time.Minute)
	fmt.Printf("alarms: %d; detected: %v; localized correctly: %v; detection latency: %s\n",
		rep.Alarms, rep.DetectedInjections == 1, rep.LocalizedInjections == 1,
		rep.MeanDetectionLatency.Round(time.Second))
	for i, al := range d.Analyzer.Alarms() {
		if !verbose && i > 2 {
			fmt.Printf("  … %d more alarms\n", len(d.Analyzer.Alarms())-i)
			break
		}
		fmt.Printf("  alarm t=%v: %d anomalies\n", al.At.Round(time.Second), len(al.Anomalies))
		for _, v := range al.Verdicts {
			fmt.Printf("    [%s] %s → %v\n", v.Layer, v.Detail, v.Components)
		}
	}
	fmt.Printf("blacklist: %d components\n", len(d.Analyzer.Blacklist()))
	reportIncidents(d)
	reportGray(d)
	reportRemedy(d)
	reportCrash(d, crash)
	if verbose {
		c := d.Stats().Counters
		fmt.Printf("pipeline: ingest=%d detect=%d localize=%d alarm=%d over %d task shard(s)\n",
			c["pipeline-ingest"], c["pipeline-detect"], c["pipeline-localize"], c["pipeline-alarm"], d.Analyzer.Shards())
	}
	if cfg.stats {
		fmt.Printf("self-monitoring stats:\n%s", indent(d.Stats().String()))
	}
	return nil
}

// reportIncidents prints the incident ledger the correlator folded the
// alarm stream into — the operator's view of the same run.
func reportIncidents(d *hunter.Deployment) {
	incs := d.Incidents.Incidents()
	open, mit, res := d.Incidents.Counts()
	fmt.Printf("incidents: %d (%d open, %d mitigating, %d resolved)\n", len(incs), open, mit, res)
	for _, in := range incs {
		fmt.Printf("  %s %-8s %-8s %s: %d alarms, %d evidence records, ttd=%s",
			in.ID, in.Severity, in.State, in.Component,
			in.AlarmCount, in.Evidence.TotalRecords, in.TimeToDetect.Round(time.Second))
		if in.Mitigation != "" {
			fmt.Printf(", mitigated by %s after %s", in.Mitigation, in.TimeToMitigate.Round(time.Second))
		}
		fmt.Println()
	}
}

// reportGray prints the second-layer correlate summary: change-point
// alarms, how many repeats the dedup filter absorbed, and every causal
// chain attached to a gray incident's evidence.
func reportGray(d *hunter.Deployment) {
	if d.Correlate == nil {
		return
	}
	alarms, suppressed, chains := d.Correlate.Counts()
	fmt.Printf("correlate: %d gray alarms (%d repeats suppressed, %d causal chains)\n",
		alarms, suppressed, chains)
	for _, in := range d.Incidents.Incidents() {
		if !in.Gray {
			continue
		}
		for _, ch := range in.Evidence.Chains {
			fmt.Printf("  %s chain: %s\n", in.ID, ch)
		}
	}
}

// grayTarget maps the -gray flag onto a gray fault kind and target in
// the task's probe footprint, mirroring pickTarget for hard issues.
func grayTarget(d *hunter.Deployment, task *cluster.Task, gray string) (faults.GrayKind, faults.Target, error) {
	a := task.Containers[0].Addrs[0]
	nic := topology.NIC{Host: a.Host, Rail: a.Rail}
	pod := d.Fabric.PodOf(a.Host)
	switch gray {
	case "droop":
		return faults.GrayCongestionDroop, faults.Target{Switch: d.Fabric.ToR(pod, a.Rail)}, nil
	case "partial":
		return faults.GrayPartialRTT, faults.Target{Host: a.Host, Rail: a.Rail}, nil
	case "flap":
		link := topology.MakeLinkID(nic.ID(), d.Fabric.ToR(pod, a.Rail))
		return faults.GrayFlappingLink, faults.Target{Link: link}, nil
	}
	return 0, faults.Target{}, fmt.Errorf("unknown -gray kind %q (want droop, partial, or flap)", gray)
}

// reportRemedy prints the remediation audit ledger: every repair the
// engine planned, what the rails did with it, and the incidents' TTR
// clocks.
func reportRemedy(d *hunter.Deployment) {
	if d.Remedy == nil {
		return
	}
	audit := d.Remedy.Audit()
	deferred, verifying := d.Remedy.Pending()
	mode := ""
	if d.Remedy.Config().DryRun {
		mode = " (dry run)"
	}
	fmt.Printf("remediation%s: %d actions (%d deferred, %d verifying)\n", mode, len(audit), deferred, verifying)
	for _, a := range audit {
		fmt.Printf("  remedy#%d %-19s %-11s %s", a.ID, a.Kind, a.State, a.Component)
		if a.Detail != "" {
			fmt.Printf(" — %s", a.Detail)
		}
		fmt.Println()
	}
	for _, in := range d.Incidents.Incidents() {
		if in.RepairedAt > 0 {
			fmt.Printf("  %s %s repaired after %s (ttr)\n", in.ID, in.Component, in.TimeToRepair.Round(time.Second))
		}
	}
}

// reportCrash summarizes an injected controller crash: when it died
// and recovered, the epoch it came back on, and how the recovery
// machinery behaved.
func reportCrash(d *hunter.Deployment, crash *faults.ControllerCrash) {
	if crash == nil {
		return
	}
	if !crash.Crashed {
		fmt.Printf("controller crash: scheduled at t=%v but the run ended first\n", crash.At)
		return
	}
	status := "still down"
	if crash.Restored {
		status = fmt.Sprintf("recovered at t=%v on epoch %d", crash.RestoredAt.Round(time.Second), d.Controller.Epoch())
	}
	snap := d.Stats()
	fmt.Printf("controller crash: died at t=%v, %s; checkpoints=%d re-registrations=%d\n",
		crash.CrashedAt.Round(time.Second), status,
		snap.Counters["checkpoints-taken"], snap.Counters["agent-reregisters"])
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = "  " + l
	}
	return strings.Join(lines, "\n") + "\n"
}

func pickTarget(d *hunter.Deployment, task *cluster.Task, issue faults.IssueType) (faults.Target, error) {
	a := task.Containers[0].Addrs[0]
	nic := topology.NIC{Host: a.Host, Rail: a.Rail}
	pod := d.Fabric.PodOf(a.Host)
	link := topology.MakeLinkID(nic.ID(), d.Fabric.ToR(pod, a.Rail))
	switch issue {
	case faults.CRCError, faults.SwitchPortDown, faults.SwitchPortFlapping:
		return faults.Target{Link: link}, nil
	case faults.SwitchOffline, faults.CongestionControlIssue:
		return faults.Target{Switch: d.Fabric.ToR(pod, a.Rail)}, nil
	case faults.RNICHardwareFailure, faults.RNICFirmwareNotResponding,
		faults.RNICPortDown, faults.RNICPortFlapping, faults.BondError:
		return faults.Target{Host: a.Host, Rail: a.Rail}, nil
	case faults.OffloadingFailure:
		return faults.Target{Host: a.Host, Rail: a.Rail, VNI: a.VNI}, nil
	case faults.GIDChange, faults.PCIeNICError, faults.GPUDirectRDMAError,
		faults.NotUsingRDMA, faults.RepetitiveFlowOffloading,
		faults.SuboptimalFlowOffloading, faults.HugepageMisconfiguration:
		return faults.Target{Host: a.Host}, nil
	case faults.ContainerCrash:
		return faults.Target{Container: task.Containers[len(task.Containers)-1].ID}, nil
	}
	return faults.Target{}, fmt.Errorf("no target rule for issue %d", issue)
}
