// Command bench runs one schedule campaign end to end and writes its
// report. A campaign is a scenario.Schedule generator, the arms the
// schedule is played in, a scorer that turns each arm's run into named
// metrics, and a declarative list of named gates over those metrics.
// Every campaign writes the same report schema — campaign, seed,
// hosts, per-arm fingerprint, metrics and wall figures, and gates. The
// fingerprint and metrics are a pure function of (campaign, seed,
// hosts); only the scale campaigns fill the wall figures (rounds/s,
// allocations, heap, worker utilization). Any failed gate exits 1.
//
// Campaigns:
//
//   - scenarios (seed 7, 8 hosts): the three adversarial packs of
//     internal/scenario, plus flap-ghost's clean arm (the same schedule
//     with the view corruption stripped). Gates: post-refresh strict
//     recall within 10 points of the clean arm's (flap_recovered), and
//     an rdma-mask detection strictly before the collective collapses
//     (rdma_pre_collapse).
//   - correlate (seed 7, 64 hosts): the gray-mix schedule, played with
//     the correlate layer off and on. Gates: the on arm strictly
//     improves gray recall without degrading hard recall or precision.
//   - scale (seed 1, 4,096 hosts × 8 rails): the fleet-fill schedule —
//     hard faults at 45 s, then 30 measured one-second rounds — played
//     at 1, 4 and 16 round-engine workers. Gates: every arm's
//     fingerprint is equal, and 16 workers run at least 2× the rounds/s
//     of one (skipped, loudly, below 4 CPUs).
//   - scale-gray (seed 1, 4,096 hosts): fleet-fill plus a drooping ToR
//     and a slow RNIC, with the correlate layer armed; 120 warm-up and
//     60 measured rounds. Gates: scale's, plus at least one gray alarm
//     and one suppressed repeat.
//   - remedy (seed 47, its own two-pods-of-eight fabric): the heal-trio
//     schedule with remediation armed (time-to-repair p50/p99), then a
//     job-restart goodput loop through an RNIC hard-down with
//     remediation on (healed) and off (blacklist-only). Gates: all
//     three faults repaired, and healed goodput strictly above
//     blacklist-only.
//
// Usage:
//
//	bench -campaign correlate|remedy|scale|scale-gray|scenarios [-seed N] [-hosts N] [-o BENCH_<campaign>.json]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/correlate"
	"skeletonhunter/internal/detect"
	"skeletonhunter/internal/hunter"
	"skeletonhunter/internal/obs"
	"skeletonhunter/internal/remedy"
	"skeletonhunter/internal/scenario"
	"skeletonhunter/internal/topology"
	"skeletonhunter/internal/trainsim"
)

// Report is every campaign's JSON output.
type Report struct {
	Campaign string       `json:"campaign"`
	Seed     int64        `json:"seed"`
	Hosts    int          `json:"hosts"`
	Arms     []Arm        `json:"arms"`
	Gates    []GateResult `json:"gates"`
}

// Arm is one scored play of a campaign's schedule.
type Arm struct {
	Name string `json:"name"`
	// Fingerprint hashes the arm's alarm, blacklist and incident
	// history (hunter.Deployment.Fingerprint).
	Fingerprint string             `json:"fingerprint"`
	Metrics     map[string]float64 `json:"metrics"`
	// Wall holds the machine-dependent figures of the measured rounds.
	Wall map[string]float64 `json:"wall,omitempty"`
}

// GateResult is one named gate's verdict.
type GateResult struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Reason string `json:"reason"`
}

// minSpeedupCPUs is the machine size below which a wall-clock speedup
// is unmeasurable, so speedup gates skip.
const minSpeedupCPUs = 4

// gate requires arm's metric to be at least (strict: above) the same
// metric of the ref arm plus bound, or bound itself when ref is empty.
// A speedup gate compares wall figures instead and wants the ref arm's
// figure times speedup. A sameFingerprint gate requires every arm to
// share one fingerprint.
type gate struct {
	name, arm, metric string
	strict            bool
	ref               string
	bound             float64
	speedup           float64
	sameFingerprint   bool
}

func (g gate) eval(arms []Arm) GateResult {
	if g.sameFingerprint {
		for _, a := range arms[1:] {
			if a.Fingerprint != arms[0].Fingerprint {
				return GateResult{Name: g.name, Reason: fmt.Sprintf("%s fingerprint %.12s differs from %s's %.12s",
					a.Name, a.Fingerprint, arms[0].Name, arms[0].Fingerprint)}
			}
		}
		return GateResult{Name: g.name, Pass: true,
			Reason: fmt.Sprintf("%d arms share fingerprint %.12s", len(arms), arms[0].Fingerprint)}
	}
	if g.speedup != 0 && runtime.NumCPU() < minSpeedupCPUs {
		return GateResult{Name: g.name, Pass: true,
			Reason: fmt.Sprintf("skipped: %d CPUs < %d", runtime.NumCPU(), minSpeedupCPUs)}
	}
	figure := func(name string) (float64, bool) {
		for _, a := range arms {
			if a.Name == name {
				v, ok := a.Metrics[g.metric]
				if g.speedup != 0 {
					v, ok = a.Wall[g.metric]
				}
				return v, ok
			}
		}
		return 0, false
	}
	got, ok := figure(g.arm)
	want, of := g.bound, ""
	if g.ref != "" {
		v, refOK := figure(g.ref)
		want, ok, of = v+g.bound, ok && refOK, " ("+g.ref+")"
		switch {
		case g.speedup != 0:
			want, of = v*g.speedup, fmt.Sprintf(" (%s × %.2f)", g.ref, g.speedup)
		case g.bound != 0:
			of = fmt.Sprintf(" (%s %+.2f)", g.ref, g.bound)
		}
	}
	if !ok {
		return GateResult{Name: g.name, Reason: fmt.Sprintf("metric %s missing", g.metric)}
	}
	op, pass := ">=", got >= want
	if g.strict {
		op, pass = ">", got > want
	}
	return GateResult{Name: g.name, Pass: pass,
		Reason: fmt.Sprintf("%s %s %.3f, want %s %.3f%s", g.arm, g.metric, got, op, want, of)}
}

type campaign struct {
	seed  int64 // default seed
	hosts int   // default fabric size
	fixed bool  // the campaign builds its own fabric: -hosts may only name its size
	arms  func(seed int64, hosts int) ([]Arm, error)
	gates []gate
}

var scaleGates = []gate{
	{name: "fingerprints_equal", sameFingerprint: true},
	{name: "speedup_2x", arm: "workers-16", metric: "rounds_per_sec", ref: "workers-1", speedup: 2},
}

var campaigns = map[string]campaign{
	"scenarios": {seed: 7, hosts: 8, arms: scenarioArms, gates: []gate{
		{name: "flap_recovered", arm: "flap-ghost", metric: "post_recall", ref: "flap-ghost-clean", bound: -0.10},
		{name: "rdma_pre_collapse", arm: "rdma-mask", metric: "detected_before_collapse", bound: 1},
	}},
	"correlate": {seed: 7, hosts: 64, arms: correlateArms, gates: []gate{
		{name: "gray_recall_improved", arm: "on", metric: "gray_recall", strict: true, ref: "off"},
		{name: "hard_recall_held", arm: "on", metric: "hard_recall", ref: "off"},
		{name: "precision_held", arm: "on", metric: "precision", ref: "off"},
	}},
	"scale": {seed: 1, hosts: 4096, arms: scaleArms(false), gates: scaleGates},
	"scale-gray": {seed: 1, hosts: 4096, arms: scaleArms(true), gates: append([]gate{
		{name: "gray_alarms", arm: "workers-16", metric: "gray_alarms", bound: 1},
		{name: "gray_suppressed", arm: "workers-16", metric: "gray_suppressed", bound: 1},
	}, scaleGates...)},
	"remedy": {seed: 47, hosts: remedySpec.Pods * remedySpec.HostsPerPod, fixed: true, arms: remedyArms, gates: []gate{
		{name: "repaired", arm: "heal", metric: "repaired", bound: 3},
		{name: "goodput_improved", arm: "healed", metric: "iterations", strict: true, ref: "blacklist-only"},
	}},
}

// campaignNames lists the campaign table's keys, sorted.
func campaignNames() []string {
	names := make([]string, 0, len(campaigns))
	for name := range campaigns {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func main() {
	name := flag.String("campaign", "", "campaign to run: "+strings.Join(campaignNames(), ", "))
	seed := flag.Int64("seed", 0, "schedule generation and simulation seed, shared by every arm (0: the campaign's default)")
	hosts := flag.Int("hosts", 0, "hosts in the simulated fabric (0: the campaign's default)")
	out := flag.String("o", "", "report output path (default BENCH_<campaign>.json, dashes as underscores)")
	flag.Parse()

	start := time.Now()
	rep, err := run(*name, *seed, *hosts)
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		*out = "BENCH_" + strings.ReplaceAll(*name, "-", "_") + ".json"
	}
	if err := writeReport(rep, *out); err != nil {
		fatal(err)
	}
	for _, a := range rep.Arms {
		fmt.Printf("bench: %-16s fp %.12s%s\n", a.Name, a.Fingerprint, sortedFigures(a.Metrics))
		if a.Wall != nil {
			fmt.Printf("bench: %-16s wall%s\n", a.Name, sortedFigures(a.Wall))
		}
	}
	failed := false
	for _, g := range rep.Gates {
		verdict := "pass"
		if !g.Pass {
			verdict, failed = "FAIL", true
		}
		fmt.Printf("bench: gate %-20s %s: %s\n", g.Name, verdict, g.Reason)
	}
	fmt.Printf("bench: %s seed %d, %d hosts → %s (%.1fs wall)\n",
		rep.Campaign, rep.Seed, rep.Hosts, *out, time.Since(start).Seconds())
	if failed {
		os.Exit(1)
	}
}

func sortedFigures(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%.4g", k, m[k])
	}
	return b.String()
}

// run plays the named campaign's arms and evaluates its gates. A zero
// seed or hosts takes the campaign's default.
func run(name string, seed int64, hosts int) (*Report, error) {
	c, ok := campaigns[name]
	if !ok {
		return nil, fmt.Errorf("unknown campaign %q (want %s)", name, strings.Join(campaignNames(), ", "))
	}
	if seed == 0 {
		seed = c.seed
	}
	switch {
	case hosts <= 0:
		hosts = c.hosts
	case c.fixed && hosts != c.hosts:
		return nil, fmt.Errorf("%s runs on its own %d-host fabric, not %d hosts", name, c.hosts, hosts)
	}
	arms, err := c.arms(seed, hosts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &Report{Campaign: name, Seed: seed, Hosts: hosts, Arms: arms, Gates: evalGates(c.gates, arms)}, nil
}

func evalGates(gates []gate, arms []Arm) []GateResult {
	out := make([]GateResult, len(gates))
	for i, g := range gates {
		out[i] = g.eval(arms)
	}
	return out
}

func writeReport(rep *Report, path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// instantLag drops the minutes-scale container lifecycle delays of the
// production-shaped model: every container runs one simulated second
// after its task is submitted.
var instantLag = cluster.LagModel{
	CreateLag:    func(*rand.Rand, int) time.Duration { return 0 },
	StartupDelay: func(*rand.Rand) time.Duration { return time.Second },
	StopLag:      func(*rand.Rand) time.Duration { return 0 },
}

// fleetOptions is the deployment the fleet schedules (gray-mix,
// fleet-fill) play on: a production fabric probing from the first
// simulated second, with 10 s detector windows folded at a 10 s
// analysis cadence so detect→alarm latency fits the compressed
// timescale.
func fleetOptions(seed int64, hosts int) hunter.Options {
	return hunter.Options{
		Seed:             seed,
		Spec:             topology.Production(hosts),
		Lag:              instantLag,
		Detect:           detect.Config{ShortWindow: 10 * time.Second},
		AnalysisInterval: 10 * time.Second,
	}
}

// scenarioArms plays every pack, plus flap-ghost's clean arm, and adds
// the pack-specific phase and workload metrics the gates read.
func scenarioArms(seed int64, hosts int) ([]Arm, error) {
	fab, err := topology.New(scenario.PackSpec(hosts))
	if err != nil {
		return nil, err
	}
	play := func(s *scenario.Schedule) (*hunter.Deployment, *scenario.RunLog, Arm, error) {
		d, err := hunter.New(scenario.PackOptions(seed, hosts))
		if err != nil {
			return nil, nil, Arm{}, err
		}
		log, err := scenario.Run(d, s)
		if err != nil {
			return nil, nil, Arm{}, err
		}
		ps := scenario.ScorePack(log, d.Injector.Injections(), d.Analyzer.Alarms())
		return d, log, Arm{Name: s.Name, Fingerprint: d.Fingerprint(), Metrics: map[string]float64{
			"precision":     ps.Precision,
			"recall":        ps.Recall,
			"strict_recall": ps.StrictRecall,
			"mean_ttd_sec":  ps.MeanTTDSec,
			"alarms":        float64(ps.Alarms),
			"injections":    float64(ps.Injections),
			"episodes":      float64(ps.Episodes),
			"run_errs":      float64(ps.RunErrs),
		}}, nil
	}
	var arms []Arm
	for _, name := range scenario.PackNames {
		s, _ := scenario.Pack(name, fab, seed)
		d, log, arm, err := play(s)
		if err != nil {
			return nil, fmt.Errorf("pack %s: %w", name, err)
		}
		arms = append(arms, arm)
		switch name {
		case "flap-ghost":
			if !log.HasGhost || !log.HasRefresh {
				return nil, errors.New("flap-ghost: ghost/refresh actions never fired")
			}
			cd, _, clean, err := play(s.Strip(scenario.ActGhostView, scenario.ActRefreshView))
			if err != nil {
				return nil, fmt.Errorf("flap-ghost clean arm: %w", err)
			}
			clean.Name = name + "-clean"
			arms = append(arms, clean)
			// Both arms are scored over the ghost arm's phases.
			for _, a := range []struct {
				d *hunter.Deployment
				m map[string]float64
			}{{d, arm.Metrics}, {cd, clean.Metrics}} {
				ins, als := a.d.Injector.Injections(), a.d.Analyzer.Alarms()
				a.m["ghost_recall"] = scenario.FlapPhaseRecall(ins, als, log.GhostAt, log.RefreshAt)
				a.m["post_recall"] = scenario.FlapPhaseRecall(ins, als, log.RefreshAt, s.Horizon)
			}
		case "rdma-mask":
			at, collapsed := log.CollapseAt()
			arm.Metrics["collapse_at_sec"] = at.Seconds()
			arm.Metrics["collapsed"] = b2f(collapsed)
			arm.Metrics["detected_before_collapse"] = b2f(collapsed &&
				scenario.PreCollapseDetection(d.Injector.Injections(), d.Analyzer.Alarms(), at))
		}
	}
	return arms, nil
}

// correlateArms plays the gray-mix schedule on a production fabric with
// the correlate layer off, then on.
func correlateArms(seed int64, hosts int) ([]Arm, error) {
	fab, err := topology.New(topology.Production(hosts))
	if err != nil {
		return nil, err
	}
	s := scenario.GrayMix(fab, seed)
	var arms []Arm
	for _, name := range []string{"off", "on"} {
		opts := fleetOptions(seed, hosts)
		if name == "on" {
			opts.Correlate = &correlate.Config{}
		}
		d, err := hunter.New(opts)
		if err != nil {
			return nil, err
		}
		var gray []correlate.Alarm
		d.OnGray = func(al correlate.Alarm) { gray = append(gray, al) }
		log, err := scenario.Run(d, s)
		if err != nil {
			return nil, fmt.Errorf("%s arm: %w", name, err)
		}
		d.Analyzer.Flush(d.Engine.Now())

		sc := scenario.ScoreGray(log, d.Analyzer.Alarms(), gray)
		grays, caught := 0, 0
		for _, io := range sc.Injections {
			grays += int(b2f(io.Gray))
			caught += int(b2f(io.Caught))
		}
		m := map[string]float64{
			"gray_recall":       sc.GrayRecall,
			"hard_recall":       sc.HardRecall,
			"precision":         sc.Precision,
			"mean_gray_ttd_sec": sc.MeanGrayTTDSec,
			"gray_faults":       float64(grays),
			"hard_faults":       float64(len(sc.Injections) - grays),
			"caught":            float64(caught),
			"hard_alarms":       float64(len(d.Analyzer.Alarms())),
			"run_errs":          float64(len(log.Errs)),
		}
		addGrayCounts(d, m)
		arms = append(arms, Arm{Name: name, Fingerprint: d.Fingerprint(), Metrics: m})
	}
	return arms, nil
}

// addGrayCounts adds the correlate layer's alarm, suppression and
// causal-chain counts when it is armed.
func addGrayCounts(d *hunter.Deployment, m map[string]float64) {
	if d.Correlate != nil {
		alarms, suppressed, chains := d.Correlate.Counts()
		m["gray_alarms"], m["gray_suppressed"], m["chains_emitted"] = float64(alarms), float64(suppressed), float64(chains)
	}
}

// playTo installs s on d and runs the engine to at, holding back the
// actions due at or after at until every event due at at has run. The
// held actions therefore act on the state at the end of their instant,
// after its probe round, as a caller acting between d.Run calls does;
// scenario.Run fires an action before the other events of its instant.
// The held actions due at at fire before playTo returns. It returns the
// run logs of the early and the held actions.
func playTo(d *hunter.Deployment, s *scenario.Schedule, at time.Duration) (early, held *scenario.RunLog, err error) {
	cut := sort.Search(len(s.Actions), func(i int) bool { return s.Actions[i].At >= at })
	head, tail := *s, *s
	head.Actions, tail.Actions = s.Actions[:cut], s.Actions[cut:]
	if early, err = scenario.Install(d, &head); err != nil {
		return nil, nil, err
	}
	d.Engine.RunUntil(at)
	if held, err = scenario.Install(d, &tail); err != nil {
		return nil, nil, err
	}
	d.Engine.RunUntil(at)
	return early, held, nil
}

// scaleArms returns the scale campaign's arms: the fleet-fill schedule
// played once per round-engine worker count. The warm-up runs to the
// faults; the measured rounds then run one simulated second at a time
// so the arm's wall figures can sample the heap between them.
func scaleArms(gray bool) func(seed int64, hosts int) ([]Arm, error) {
	warmup, rounds := 45*time.Second, 30
	if gray {
		// The correlate layer folds at the 10 s analysis cadence: the
		// stretched campaign lets its calibration elapse and leaves
		// room for alarms to mint and repeats to be suppressed.
		warmup, rounds = 120*time.Second, 60
	}
	return func(seed int64, hosts int) ([]Arm, error) {
		var arms []Arm
		for _, workers := range []int{1, 4, 16} {
			opts := fleetOptions(seed, hosts)
			opts.Workers = workers
			if gray {
				opts.Correlate = &correlate.Config{Warmup: 6}
			}
			d, err := hunter.New(opts)
			if err != nil {
				return nil, err
			}
			s := scenario.FleetFill(d.Fabric, seed, warmup, warmup+time.Duration(rounds)*time.Second, gray)
			fill, faults, err := playTo(d, s, warmup)
			if err != nil {
				return nil, err
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
				peak = max(peak, ms.HeapAlloc)
			}
			wall := time.Since(t0).Seconds()
			runtime.ReadMemStats(&m1)
			d.Analyzer.Flush(d.Engine.Now())
			after := d.Stats().Counters

			probes := after[obs.ProbesSent.String()] - before[obs.ProbesSent.String()]
			m := map[string]float64{
				"tasks":            float64(len(fill.Tasks)),
				"agents":           float64(d.Agents()),
				"alarms":           float64(len(d.Analyzer.Alarms())),
				"blacklisted":      float64(len(d.Analyzer.Blacklist())),
				"incidents":        float64(len(d.Incidents.Incidents())),
				"probes_sent":      float64(after[obs.ProbesSent.String()]),
				"records_ingested": float64(after[obs.RecordsIngested.String()]),
				"probes_per_round": float64(probes) / float64(rounds),
				"run_errs":         float64(len(fill.Errs) + len(faults.Errs)),
			}
			addGrayCounts(d, m)
			arms = append(arms, Arm{Name: fmt.Sprintf("workers-%d", workers), Fingerprint: d.Fingerprint(), Metrics: m,
				Wall: map[string]float64{
					"rounds_per_sec":         float64(rounds) / wall,
					"allocs_per_round":       float64(m1.Mallocs-m0.Mallocs) / float64(rounds),
					"bytes_per_round":        float64(m1.TotalAlloc-m0.TotalAlloc) / float64(rounds),
					"peak_heap_bytes":        float64(peak),
					"worker_utilization_pct": float64(after["worker-utilization-pct"]),
				}})
		}
		return arms, nil
	}
}

// remedySpec is the remedy campaign's fabric: two pods of eight hosts,
// so every drain play has spare capacity to land on.
var remedySpec = topology.Spec{Pods: 2, HostsPerPod: 8, Rails: 8, AggPerPod: 2, Spines: 2}

// goodputSegments is how many 30-second job-restart segments each
// goodput arm runs through the fault.
const goodputSegments = 60

// remedyOptions configures a remedy-campaign deployment. With heal, the
// remediation plane is armed and tuned for the compressed timescale: a
// two-minute verify window and budget room for the three repairs.
func remedyOptions(seed int64, heal bool) hunter.Options {
	opts := hunter.Options{Seed: seed, Spec: remedySpec, Lag: instantLag}
	if heal {
		opts.Remedy = &remedy.Config{
			Window:      10 * time.Minute,
			Budget:      4,
			BlastRadius: 0.5,
			Cooldown:    30 * time.Minute,
			VerifyAfter: 2 * time.Minute,
		}
	}
	return opts
}

// remedyArms plays the heal-trio schedule with remediation armed and
// distills the time-to-repair distribution from the incident log, then
// plays the goodput arms: the same task and its RNIC hard-down, with
// remediation on (healed) and off (blacklist-only), under a job-restart
// loop.
func remedyArms(seed int64, _ int) ([]Arm, error) {
	fab, err := topology.New(remedySpec)
	if err != nil {
		return nil, err
	}
	heal := scenario.HealTrio(fab, seed)
	d, err := hunter.New(remedyOptions(seed, true))
	if err != nil {
		return nil, err
	}
	if _, _, err := playTo(d, heal, heal.Actions[1].At); err != nil {
		return nil, err
	}
	d.Engine.RunUntil(heal.Horizon)
	var ttr []float64
	for _, inc := range d.Incidents.Incidents() {
		if inc.RepairedAt != 0 && inc.TimeToRepair > 0 {
			ttr = append(ttr, inc.TimeToRepair.Seconds())
		}
	}
	sort.Float64s(ttr)
	committed := 0
	for _, a := range d.Remedy.Audit() {
		if a.State == remedy.StateCommitted {
			committed++
		}
	}
	arms := []Arm{{Name: "heal", Fingerprint: d.Fingerprint(), Metrics: map[string]float64{
		"repaired":  float64(len(ttr)),
		"committed": float64(committed),
		"ttr_p50_s": percentile(ttr, 0.50),
		"ttr_p99_s": percentile(ttr, 0.99),
	}}}

	// The task and its RNIC hard-down: the schedule stops at the fault
	// and the restart loop takes over.
	goodput := &scenario.Schedule{Name: "goodput", Seed: seed, Horizon: heal.Actions[1].At, Actions: heal.Actions[:2]}
	for _, name := range []string{"healed", "blacklist-only"} {
		d, err := hunter.New(remedyOptions(seed, name == "healed"))
		if err != nil {
			return nil, err
		}
		log, _, err := playTo(d, goodput, goodput.Horizon)
		if err != nil {
			return nil, err
		}
		task := log.Tasks[0]
		if task == nil {
			return nil, fmt.Errorf("%s arm: task never submitted: %v", name, log.Errs)
		}
		iters, err := restartLoop(d, task)
		if err != nil {
			return nil, fmt.Errorf("%s arm: %w", name, err)
		}
		arms = append(arms, Arm{Name: name, Fingerprint: d.Fingerprint(), Metrics: map[string]float64{
			"iterations": float64(iters),
		}})
	}
	return arms, nil
}

// restartLoop measures training progress through the fault: a failed
// job resubmits on the next 30-second segment boundary. With
// remediation on, the restart lands on healed capacity and sticks;
// blacklist-only leaves the containers in place, so every restart dies
// at the collective timeout.
func restartLoop(d *hunter.Deployment, task *cluster.Task) (int, error) {
	cfg := trainsim.Config{IterBase: 10 * time.Second}
	job, err := trainsim.Start(d.Engine, d.Net, task, cfg)
	if err != nil {
		return 0, err
	}
	total := 0
	for seg := 0; seg < goodputSegments; seg++ {
		d.Run(30 * time.Second)
		if job != nil && job.Failed {
			total += job.Iterations
			job.Stop()
			job = nil
			continue
		}
		if job == nil {
			if j, err := trainsim.Start(d.Engine, d.Net, task, cfg); err == nil {
				job = j
			}
		}
	}
	if job != nil {
		total += job.Iterations
		job.Stop()
	}
	return total, nil
}

// percentile returns the nearest-rank percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	return sorted[min(max(idx, 0), len(sorted)-1)]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
