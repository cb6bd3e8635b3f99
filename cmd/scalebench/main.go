// Command scalebench runs a paper-scale monitoring campaign — by
// default 4096 hosts × 8 rails (32K RNICs) — against the simulated
// deployment and reports the numbers that matter at that scale:
// probing rounds per wall-clock second, heap allocations per round,
// and peak heap, alongside the campaign's detection outcome. CI
// archives the JSON report (BENCH_scale.json) so throughput and
// allocation regressions diff across commits like any other benchmark.
//
// The campaign runs once per entry of the -workers matrix (parallel
// round-engine fan-out) and cross-checks the runs' outcome
// fingerprints: alarms, blacklist, and incidents must be bit-identical
// at every worker count, or the command fails. Wall-clock figures of
// course vary with the machine; the campaign outcome does not.
//
// The -campaign flag selects the variant: "probe" (the default,
// detection only), "heal", which arms the remediation plane and —
// after the measured rounds — runs a settle phase so planned repairs
// execute and their verify windows commit, or "gray", which arms the
// second-layer correlate detector and injects gray degradations
// (a ramped ToR and a subtly slow RNIC) alongside the hard faults.
//
// Three further variants replay the adversarial scenario packs of
// internal/scenario instead of the default fleet-and-faults schedule:
// "flap" (flap+ghost: flapping links under a corrupted topology view),
// "rdma-mask" (transport retry masks an escalating-loss link until the
// collective collapses), and "churn" (trace-driven container churn
// around hard faults). The pack supplies the tasks and the fault
// schedule; the campaign runs to the pack's horizon, the outcome
// carries the pack's ground-truth score, and -gate2x enforces the
// pack's sanity floor (recall > 0; for rdma-mask, a collapse with
// detection before it) instead of the speedup gate, which is
// meaningless on a pack-sized fleet. The worker-matrix fingerprint
// cross-check applies to every variant.
//
// In
// heal mode the outcome carries repaired-incident and remedy-action
// counts and -gate2x additionally fails the run if no incident was
// actually healed; in gray mode the outcome carries correlate alarm,
// suppression, and causal-chain counts, and -gate2x fails the run
// unless at least one gray alarm was raised and one duplicate was
// suppressed. Either way the extra plane's ledger folds into the
// cross-worker fingerprint check.
//
// Usage:
//
//	scalebench [-hosts 4096] [-rounds 30] [-workers 1,4,16] [-campaign heal|gray|flap|rdma-mask|churn] [-short] [-o BENCH_scale.json]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/correlate"
	"skeletonhunter/internal/detect"
	"skeletonhunter/internal/faults"
	"skeletonhunter/internal/hunter"
	"skeletonhunter/internal/obs"
	"skeletonhunter/internal/parallelism"
	"skeletonhunter/internal/remedy"
	"skeletonhunter/internal/scenario"
	"skeletonhunter/internal/topology"
)

// Report is the campaign's JSON output.
type Report struct {
	Config ConfigInfo `json:"config"`
	Fleet  FleetInfo  `json:"fleet"`
	// Matrix holds one entry per -workers value, in the order given.
	Matrix []WorkerPerf `json:"matrix"`
	// Perf echoes the highest-worker-count matrix entry — the headline
	// figures earlier single-run reports carried in this field.
	Perf PerfInfo `json:"perf"`
	// Deterministic reports whether every matrix entry produced the
	// same outcome fingerprint (alarms, blacklist, incidents).
	Deterministic bool        `json:"deterministic"`
	Outcome       OutcomeInfo `json:"outcome"`
	Finished      string      `json:"finished"` // wall-clock timestamp, for artifact bookkeeping
}

type ConfigInfo struct {
	Hosts         int    `json:"hosts"`
	Rails         int    `json:"rails"`
	Seed          int64  `json:"seed"`
	WarmupRounds  int    `json:"warmup_rounds"`
	MeasureRounds int    `json:"measure_rounds"`
	Workers       []int  `json:"workers"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	Mode          string `json:"mode"`     // "full" or "short"
	Campaign      string `json:"campaign"` // "probe" or "heal"
}

type FleetInfo struct {
	Pods   int `json:"pods"`
	RNICs  int `json:"rnics"`
	Links  int `json:"links"`
	Tasks  int `json:"tasks"`
	Agents int `json:"agents"`
}

// WorkerPerf is one matrix point: the campaign replayed at a given
// round-engine worker count.
type WorkerPerf struct {
	Workers        int     `json:"workers"`
	WallSeconds    float64 `json:"wall_seconds"`
	RoundsPerSec   float64 `json:"rounds_per_sec"`
	ProbesPerRound float64 `json:"probes_per_round"`
	AllocsPerRound float64 `json:"allocs_per_round"`
	BytesPerRound  float64 `json:"bytes_per_round"`
	PeakHeapBytes  uint64  `json:"peak_heap_bytes"`
	UtilizationPct uint64  `json:"worker_utilization_pct"`
	Fingerprint    string  `json:"fingerprint"`
}

type PerfInfo struct {
	WallSeconds    float64 `json:"wall_seconds"`
	RoundsPerSec   float64 `json:"rounds_per_sec"`
	ProbesPerRound float64 `json:"probes_per_round"`
	AllocsPerRound float64 `json:"allocs_per_round"`
	BytesPerRound  float64 `json:"bytes_per_round"`
	PeakHeapBytes  uint64  `json:"peak_heap_bytes"`
}

type OutcomeInfo struct {
	Alarms      int    `json:"alarms"`
	Blacklisted int    `json:"blacklisted"`
	Incidents   int    `json:"incidents"`
	ProbesSent  uint64 `json:"probes_sent"`
	RecordsSeen uint64 `json:"records_ingested"`
	// Heal-campaign fields: zero (and omitted) in probe mode.
	Repaired        int `json:"incidents_repaired,omitempty"`
	RemedyCommitted int `json:"remedy_committed,omitempty"`
	RemedyEscalated int `json:"remedy_escalated,omitempty"`
	// Gray-campaign fields: zero (and omitted) unless -campaign gray.
	GrayAlarms     int `json:"gray_alarms,omitempty"`
	GraySuppressed int `json:"gray_suppressed,omitempty"`
	ChainsEmitted  int `json:"chains_emitted,omitempty"`
	// Scenario-campaign outcome: nil unless -campaign names a pack.
	Scenario *ScenarioOutcome `json:"scenario,omitempty"`
}

// ScenarioOutcome is a scenario campaign's ground-truth score plus the
// rdma-mask workload truth.
type ScenarioOutcome struct {
	scenario.PackScore
	CollapseAtSec float64 `json:"collapse_at_sec,omitempty"`
	Collapsed     bool    `json:"collapsed,omitempty"`
	PreCollapse   bool    `json:"detected_before_collapse,omitempty"`
}

// scenarioCampaigns maps -campaign values to scenario pack names.
var scenarioCampaigns = map[string]string{
	"flap":      "flap-ghost",
	"rdma-mask": "rdma-mask",
	"churn":     "churn-replay",
}

// fastestLag removes the minutes-scale container lifecycle delays of
// the production-shaped model: a scale campaign wants the whole fleet
// probing from the first simulated second.
func fastestLag() cluster.LagModel {
	return cluster.LagModel{
		CreateLag:    func(*rand.Rand, int) time.Duration { return 0 },
		StartupDelay: func(*rand.Rand) time.Duration { return time.Second },
		StopLag:      func(*rand.Rand) time.Duration { return 0 },
	}
}

func main() {
	hosts := flag.Int("hosts", 4096, "physical hosts in the fabric")
	rounds := flag.Int("rounds", 30, "measured probing rounds (1 s of simulated time each)")
	warmup := flag.Int("warmup", 45, "warmup probing rounds before faults are injected")
	seed := flag.Int64("seed", 1, "simulation seed")
	workersFlag := flag.String("workers", "1,4,16", "comma-separated round-engine worker matrix")
	campaign := flag.String("campaign", "probe", `campaign variant: "probe" (detect only) or "heal" (remediation plane armed)`)
	short := flag.Bool("short", false, "CI mode: shrink hosts/rounds/warmup unless set explicitly")
	gate2x := flag.Bool("gate2x", false, "fail unless the largest worker count is ≥2× faster than workers=1 (skipped on <4 cores)")
	out := flag.String("o", "BENCH_scale.json", "report output path")
	verbose := flag.Bool("v", false, "print campaign progress")
	flag.Parse()

	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	mode := "full"
	if *short {
		mode = "short"
		if !explicit["hosts"] {
			*hosts = 64
		}
		if !explicit["rounds"] {
			*rounds = 10
		}
		if !explicit["warmup"] {
			*warmup = 20
		}
	}
	workers, err := parseWorkers(*workersFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scalebench:", err)
		os.Exit(2)
	}
	if _, isScenario := scenarioCampaigns[*campaign]; !isScenario &&
		*campaign != "probe" && *campaign != "heal" && *campaign != "gray" {
		fmt.Fprintf(os.Stderr, "scalebench: bad -campaign %q (want probe, heal, gray, flap, rdma-mask, or churn)\n", *campaign)
		os.Exit(2)
	}
	if _, isScenario := scenarioCampaigns[*campaign]; isScenario && !explicit["hosts"] {
		// Packs submit their own pack-sized tenants; a 4096-host fabric
		// only slows the replay down without adding probe coverage.
		*hosts = 64
	}
	if *campaign == "gray" {
		// The correlate layer folds at the 10 s analysis cadence, so the
		// 1 s probing rounds above are too few for its warmup to elapse:
		// stretch the campaign unless the caller pinned the knobs.
		if !explicit["warmup"] {
			*warmup = 120
		}
		if !explicit["rounds"] {
			*rounds = 60
		}
	}

	rep, err := runMatrix(*hosts, *rounds, *warmup, *seed, workers, mode, *campaign, *verbose)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scalebench:", err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "scalebench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "scalebench:", err)
		os.Exit(1)
	}
	for _, wp := range rep.Matrix {
		fmt.Printf("scalebench: workers=%-2d %6.1f rounds/sec, %8.0f allocs/round, util %d%%, fp %s\n",
			wp.Workers, wp.RoundsPerSec, wp.AllocsPerRound, wp.UtilizationPct, wp.Fingerprint[:12])
	}
	if *campaign == "heal" {
		fmt.Printf("scalebench: heal campaign: %d incidents repaired, %d actions committed, %d escalated\n",
			rep.Outcome.Repaired, rep.Outcome.RemedyCommitted, rep.Outcome.RemedyEscalated)
	}
	if *campaign == "gray" {
		fmt.Printf("scalebench: gray campaign: %d correlate alarms, %d suppressed, %d chains\n",
			rep.Outcome.GrayAlarms, rep.Outcome.GraySuppressed, rep.Outcome.ChainsEmitted)
	}
	if sc := rep.Outcome.Scenario; sc != nil {
		fmt.Printf("scalebench: scenario %s: precision %.2f recall %.2f strict %.2f ttd %.1fs (%d episodes)\n",
			sc.Pack, sc.Precision, sc.Recall, sc.StrictRecall, sc.MeanTTDSec, sc.Episodes)
	}
	fmt.Printf("scalebench: %d hosts, deterministic=%v → %s\n", rep.Config.Hosts, rep.Deterministic, *out)

	if !rep.Deterministic {
		fmt.Fprintln(os.Stderr, "scalebench: FAIL: outcome fingerprints differ across worker counts")
		os.Exit(1)
	}
	if *gate2x {
		if _, isScenario := scenarioCampaigns[*campaign]; isScenario {
			gateScenario(rep)
		} else {
			gateSpeedup(rep)
			if *campaign == "heal" {
				gateHealed(rep)
			}
			if *campaign == "gray" {
				gateGray(rep)
			}
		}
	}
}

// gateScenario is a scenario campaign's acceptance floor under
// -gate2x: the pack must have produced ground-truth episodes and
// detected at least one of them, and the rdma-mask pack must
// additionally have collapsed its collective job with detection
// strictly before the collapse. (The speedup gate is skipped: a
// pack-sized fleet has nothing for extra workers to parallelize.)
func gateScenario(rep *Report) {
	sc := rep.Outcome.Scenario
	if sc == nil {
		fmt.Fprintln(os.Stderr, "scalebench: FAIL: scenario campaign produced no scenario outcome")
		os.Exit(1)
	}
	if sc.Episodes < 1 || sc.Recall <= 0 {
		fmt.Fprintf(os.Stderr, "scalebench: FAIL: pack %s scored %d episodes, recall %.2f (want ≥1 episode detected)\n",
			sc.Pack, sc.Episodes, sc.Recall)
		os.Exit(1)
	}
	if sc.RunErrs > 0 {
		fmt.Fprintf(os.Stderr, "scalebench: FAIL: pack %s logged %d action errors\n", sc.Pack, sc.RunErrs)
		os.Exit(1)
	}
	if sc.Pack == "rdma-mask" && (!sc.Collapsed || !sc.PreCollapse) {
		fmt.Fprintf(os.Stderr, "scalebench: FAIL: rdma-mask collapsed=%v detected-before-collapse=%v, want both\n",
			sc.Collapsed, sc.PreCollapse)
		os.Exit(1)
	}
	fmt.Printf("scalebench: scenario gate passed (%s: recall %.2f over %d episodes)\n", sc.Pack, sc.Recall, sc.Episodes)
}

// gateGray is the gray campaign's acceptance floor under -gate2x: the
// correlate layer must have raised at least one change-point alarm and
// deduplicated at least one repeat — a campaign where the second layer
// saw nothing (or never had to suppress) proves nothing.
func gateGray(rep *Report) {
	if rep.Outcome.GrayAlarms < 1 || rep.Outcome.GraySuppressed < 1 {
		fmt.Fprintf(os.Stderr, "scalebench: FAIL: gray campaign raised %d correlate alarms (%d suppressed), want ≥1 of each\n",
			rep.Outcome.GrayAlarms, rep.Outcome.GraySuppressed)
		os.Exit(1)
	}
	fmt.Printf("scalebench: gray gate passed (%d alarms, %d suppressed, %d chains)\n",
		rep.Outcome.GrayAlarms, rep.Outcome.GraySuppressed, rep.Outcome.ChainsEmitted)
}

// gateHealed is the heal campaign's acceptance floor under -gate2x:
// the settle phase must have committed at least one repair with its
// TTR clock stamped, or detection worked but remediation did not.
func gateHealed(rep *Report) {
	if rep.Outcome.Repaired < 1 || rep.Outcome.RemedyCommitted < 1 {
		fmt.Fprintf(os.Stderr, "scalebench: FAIL: heal campaign repaired %d incidents (%d committed actions), want ≥1\n",
			rep.Outcome.Repaired, rep.Outcome.RemedyCommitted)
		os.Exit(1)
	}
	fmt.Printf("scalebench: healed gate passed (%d repaired)\n", rep.Outcome.Repaired)
}

func parseWorkers(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -workers entry %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, errors.New("-workers matrix is empty")
	}
	return out, nil
}

// gateSpeedup enforces the coarse CI floor: the largest worker count
// must beat workers=1 by ≥2×. Meaningless without cores to run the
// workers on, so it is skipped (loudly) below 4 CPUs.
func gateSpeedup(rep *Report) {
	if runtime.NumCPU() < 4 {
		fmt.Printf("scalebench: speedup gate skipped (%d CPUs < 4)\n", runtime.NumCPU())
		return
	}
	var base, best *WorkerPerf
	for i := range rep.Matrix {
		wp := &rep.Matrix[i]
		if wp.Workers == 1 {
			base = wp
		}
		if best == nil || wp.Workers > best.Workers {
			best = wp
		}
	}
	if base == nil || best == nil || best.Workers == 1 {
		fmt.Println("scalebench: speedup gate skipped (matrix lacks a 1-vs-N pair)")
		return
	}
	speedup := best.RoundsPerSec / base.RoundsPerSec
	fmt.Printf("scalebench: speedup workers=%d vs 1: %.2fx (gate 2.00x)\n", best.Workers, speedup)
	if speedup < 2.0 {
		fmt.Fprintf(os.Stderr, "scalebench: FAIL: workers=%d is only %.2fx faster than workers=1\n",
			best.Workers, speedup)
		os.Exit(1)
	}
}

func runMatrix(hosts, rounds, warmup int, seed int64, workers []int, mode, campaign string, verbose bool) (*Report, error) {
	rep := &Report{
		Config: ConfigInfo{
			Hosts: hosts, Seed: seed,
			WarmupRounds: warmup, MeasureRounds: rounds,
			Workers: workers, GOMAXPROCS: runtime.GOMAXPROCS(0), Mode: mode,
			Campaign: campaign,
		},
		Deterministic: true,
	}
	for _, w := range workers {
		wp, fleet, outcome, err := run(hosts, rounds, warmup, seed, w, campaign, verbose)
		if err != nil {
			return nil, err
		}
		rep.Fleet = *fleet
		rep.Config.Rails = topology.Production(hosts).Rails
		rep.Outcome = *outcome
		rep.Matrix = append(rep.Matrix, *wp)
		if wp.Fingerprint != rep.Matrix[0].Fingerprint {
			rep.Deterministic = false
		}
		if wp.Workers >= rep.Matrix[0].Workers {
			rep.Perf = PerfInfo{
				WallSeconds:    wp.WallSeconds,
				RoundsPerSec:   wp.RoundsPerSec,
				ProbesPerRound: wp.ProbesPerRound,
				AllocsPerRound: wp.AllocsPerRound,
				BytesPerRound:  wp.BytesPerRound,
				PeakHeapBytes:  wp.PeakHeapBytes,
			}
		}
	}
	rep.Finished = time.Now().UTC().Format(time.RFC3339)
	return rep, nil
}

func run(hosts, rounds, warmup int, seed int64, workers int, campaign string, verbose bool) (*WorkerPerf, *FleetInfo, *OutcomeInfo, error) {
	if pack, ok := scenarioCampaigns[campaign]; ok {
		return runScenario(pack, hosts, seed, workers, verbose)
	}
	heal, gray := campaign == "heal", campaign == "gray"
	spec := topology.Production(hosts)
	opts := hunter.Options{
		Seed:    seed,
		Spec:    spec,
		Lag:     fastestLag(),
		Workers: workers,
		// Short windows keep the detect→alarm latency inside the
		// measured phase at the campaign's compressed timescale.
		Detect:           detect.Config{ShortWindow: 10 * time.Second},
		AnalysisInterval: 10 * time.Second,
	}
	if heal {
		// A compressed verify window keeps the post-measurement settle
		// phase short: repairs planned during the measured rounds commit
		// within the two simulated minutes run after the clock stops.
		opts.Remedy = &remedy.Config{VerifyAfter: 30 * time.Second}
	}
	if gray {
		// A short calibration window: the stretched warmup above gives
		// the correlator ~12 analysis rounds, and the measured phase must
		// leave room for alarms to mint and repeats to be suppressed.
		opts.Correlate = &correlate.Config{Warmup: 6}
	}
	d, err := hunter.New(opts)
	if err != nil {
		return nil, nil, nil, err
	}

	// Fill the fleet with 12-container tenants: 96 GPUs = 12 hosts per
	// task against 32-host pods, so every third task straddles a pod
	// boundary and its same-rail probes fan out across the full
	// agg²×spine ECMP set — the cross-pod traversal the path iterator
	// exists for.
	par := parallelism.Config{TP: 8, PP: 4, DP: 3}
	tasks := 0
	for {
		if _, err := d.SubmitTask(cluster.TaskSpec{Par: par}); err != nil {
			if errors.Is(err, cluster.ErrNoCapacity) {
				break
			}
			return nil, nil, nil, err
		}
		tasks++
	}
	if tasks == 0 {
		return nil, nil, nil, fmt.Errorf("fleet of %d hosts fits no %d-host task", hosts, 12)
	}
	if verbose {
		fmt.Printf("fleet: %d tasks / %d hosts; workers %d; warmup %d rounds\n", tasks, hosts, workers, warmup)
	}
	d.Run(time.Duration(warmup) * time.Second)

	// Fault schedule: one RNIC down, one ToR port down, one agg switch
	// offline — host-, port- and switch-scoped failures active at once.
	nic := topology.NIC{Host: hosts / 3, Rail: 3}
	if _, err := d.Injector.Inject(faults.RNICPortDown, faults.Target{Host: nic.Host, Rail: nic.Rail}); err != nil {
		return nil, nil, nil, err
	}
	port := hosts / 2
	portLink := topology.MakeLinkID(topology.NIC{Host: port, Rail: 5}.ID(), d.Fabric.ToR(d.Fabric.PodOf(port), 5))
	if _, err := d.Injector.Inject(faults.SwitchPortDown, faults.Target{Link: portLink}); err != nil {
		return nil, nil, nil, err
	}
	if _, err := d.Injector.Inject(faults.SwitchOffline, faults.Target{Switch: d.Fabric.Agg(0, 1)}); err != nil {
		return nil, nil, nil, err
	}
	if gray {
		// Gray degradations on top of the hard faults: a ToR whose
		// latency ramps from zero and an RNIC a few µs slow — signals
		// only the correlate layer is built to surface.
		if _, err := d.Injector.InjectGray(faults.GrayCongestionDroop, faults.Target{Switch: d.Fabric.ToR(0, 1)}); err != nil {
			return nil, nil, nil, err
		}
		if _, err := d.Injector.InjectGray(faults.GrayPartialRTT, faults.Target{Host: hosts / 4, Rail: 2}); err != nil {
			return nil, nil, nil, err
		}
	}

	before := d.Stats().Counters
	runtime.GC()
	var m0, m1, ms runtime.MemStats
	runtime.ReadMemStats(&m0)
	peak := m0.HeapAlloc
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		d.Run(time.Second)
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
		if verbose && (r+1)%10 == 0 {
			fmt.Printf("round %d/%d: %d alarms, heap %d MiB\n",
				r+1, rounds, len(d.Analyzer.Alarms()), ms.HeapAlloc>>20)
		}
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if heal {
		// Settle outside the measured window: let planned repairs
		// execute and their verify deadlines pass so the audit ledger
		// (and the fingerprint it folds into) reflects committed state.
		d.Run(2 * time.Minute)
	}
	d.Analyzer.Flush(d.Engine.Now())
	after := d.Stats().Counters

	probes := after[obs.ProbesSent.String()] - before[obs.ProbesSent.String()]
	incidents := len(d.Incidents.Incidents())
	fleet := &FleetInfo{
		Pods:   spec.Pods,
		RNICs:  hosts * spec.Rails,
		Links:  d.Fabric.NumLinks(),
		Tasks:  tasks,
		Agents: tasks * 12,
	}
	wp := &WorkerPerf{
		Workers:        workers,
		WallSeconds:    wall.Seconds(),
		RoundsPerSec:   float64(rounds) / wall.Seconds(),
		ProbesPerRound: float64(probes) / float64(rounds),
		AllocsPerRound: float64(m1.Mallocs-m0.Mallocs) / float64(rounds),
		BytesPerRound:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(rounds),
		PeakHeapBytes:  peak,
		UtilizationPct: after["worker-utilization-pct"],
		Fingerprint:    d.Fingerprint(),
	}
	outcome := &OutcomeInfo{
		Alarms:      len(d.Analyzer.Alarms()),
		Blacklisted: len(d.Analyzer.Blacklist()),
		Incidents:   incidents,
		ProbesSent:  after[obs.ProbesSent.String()],
		RecordsSeen: after[obs.RecordsIngested.String()],
	}
	if d.Correlate != nil {
		outcome.GrayAlarms, outcome.GraySuppressed, outcome.ChainsEmitted = d.Correlate.Counts()
	}
	if d.Remedy != nil {
		outcome.Repaired = int(after[obs.IncidentsRepaired.String()])
		for _, a := range d.Remedy.Audit() {
			switch a.State {
			case remedy.StateCommitted:
				outcome.RemedyCommitted++
			case remedy.StateEscalated:
				outcome.RemedyEscalated++
			}
		}
	}
	return wp, fleet, outcome, nil
}

// runScenario replays one scenario pack as the campaign: the pack
// supplies the tasks and the fault schedule, the replay runs to the
// pack's horizon in one-second rounds for the usual perf accounting,
// and the outcome carries the pack's ground-truth score. The same
// fingerprint cross-check as every other campaign applies across the
// worker matrix.
func runScenario(pack string, hosts int, seed int64, workers int, verbose bool) (*WorkerPerf, *FleetInfo, *OutcomeInfo, error) {
	spec := topology.Production(hosts)
	d, err := hunter.New(hunter.Options{
		Seed:             seed,
		Spec:             spec,
		Lag:              fastestLag(),
		Workers:          workers,
		Detect:           detect.Config{ShortWindow: 10 * time.Second},
		AnalysisInterval: 10 * time.Second,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	s, ok := scenario.Pack(pack, d.Fabric, seed)
	if !ok {
		return nil, nil, nil, fmt.Errorf("unknown scenario pack %q", pack)
	}
	log, err := scenario.Install(d, s)
	if err != nil {
		return nil, nil, nil, err
	}
	rounds := int(s.Horizon / time.Second)
	if verbose {
		fmt.Printf("scenario %s: %d actions over %v (%d rounds); workers %d\n",
			pack, len(s.Actions), s.Horizon, rounds, workers)
	}

	before := d.Stats().Counters
	runtime.GC()
	var m0, m1, ms runtime.MemStats
	runtime.ReadMemStats(&m0)
	peak := m0.HeapAlloc
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		d.Run(time.Second)
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
		if verbose && (r+1)%120 == 0 {
			fmt.Printf("round %d/%d: %d alarms, heap %d MiB\n",
				r+1, rounds, len(d.Analyzer.Alarms()), ms.HeapAlloc>>20)
		}
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	d.Analyzer.Flush(d.Engine.Now())
	after := d.Stats().Counters

	probes := after[obs.ProbesSent.String()] - before[obs.ProbesSent.String()]
	incidents := len(d.Incidents.Incidents())
	fleet := &FleetInfo{
		Pods:   spec.Pods,
		RNICs:  hosts * spec.Rails,
		Links:  d.Fabric.NumLinks(),
		Tasks:  len(log.Tasks),
		Agents: d.Agents(),
	}
	wp := &WorkerPerf{
		Workers:        workers,
		WallSeconds:    wall.Seconds(),
		RoundsPerSec:   float64(rounds) / wall.Seconds(),
		ProbesPerRound: float64(probes) / float64(rounds),
		AllocsPerRound: float64(m1.Mallocs-m0.Mallocs) / float64(rounds),
		BytesPerRound:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(rounds),
		PeakHeapBytes:  peak,
		UtilizationPct: after["worker-utilization-pct"],
		Fingerprint:    d.Fingerprint(),
	}
	sc := &ScenarioOutcome{
		PackScore: scenario.ScorePack(log, d.Injector.Injections(), d.Analyzer.Alarms()),
	}
	if at, collapsed := log.CollapseAt(); collapsed {
		sc.Collapsed = true
		sc.CollapseAtSec = at.Seconds()
		sc.PreCollapse = scenario.PreCollapseDetection(d.Injector.Injections(), d.Analyzer.Alarms(), at)
	}
	outcome := &OutcomeInfo{
		Alarms:      len(d.Analyzer.Alarms()),
		Blacklisted: len(d.Analyzer.Blacklist()),
		Incidents:   incidents,
		ProbesSent:  after[obs.ProbesSent.String()],
		RecordsSeen: after[obs.RecordsIngested.String()],
		Scenario:    sc,
	}
	return wp, fleet, outcome, nil
}
