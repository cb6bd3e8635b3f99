// Command bench runs one schedule campaign end to end and writes its
// report. A campaign is a scenario.Schedule generator, the arms the
// schedule is played in, a scorer that turns each arm's run into named
// metrics, and a declarative list of named gates over those metrics.
// Every campaign writes the same report schema — campaign, seed,
// hosts, per-arm metrics and gates — and the report is a pure function
// of (campaign, seed, hosts): wall time goes to stdout only. Any failed
// gate exits 1.
//
// Campaigns:
//
//   - scenarios (8 hosts): the three adversarial packs of
//     internal/scenario, plus flap-ghost's clean arm (the same schedule
//     with the view corruption stripped). Gates: post-refresh strict
//     recall within 10 points of the clean arm's (flap_recovered), and
//     an rdma-mask detection strictly before the collective collapses
//     (rdma_pre_collapse).
//   - correlate (64 hosts): the gray-mix schedule, played with the
//     correlate layer off and on. Gates: the on arm strictly improves
//     gray recall without degrading hard recall or precision.
//
// Usage:
//
//	bench -campaign scenarios|correlate [-seed 7] [-hosts N] [-o BENCH_<campaign>.json]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/correlate"
	"skeletonhunter/internal/detect"
	"skeletonhunter/internal/hunter"
	"skeletonhunter/internal/scenario"
	"skeletonhunter/internal/topology"
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
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

// GateResult is one named gate's verdict.
type GateResult struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Reason string `json:"reason"`
}

// gate requires arm's metric to be at least (strict: above) the same
// metric of the ref arm plus bound, or bound itself when ref is empty.
type gate struct {
	name, arm, metric string
	strict            bool
	ref               string
	bound             float64
}

func (g gate) eval(arms map[string]map[string]float64) GateResult {
	got, ok := arms[g.arm][g.metric]
	want, of := g.bound, ""
	if g.ref != "" {
		v, refOK := arms[g.ref][g.metric]
		want, ok, of = v+g.bound, ok && refOK, " ("+g.ref+")"
		if g.bound != 0 {
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
	hosts int // default fabric size
	arms  func(seed int64, hosts int) ([]Arm, error)
	gates []gate
}

var campaigns = map[string]campaign{
	"scenarios": {hosts: 8, arms: scenarioArms, gates: []gate{
		{name: "flap_recovered", arm: "flap-ghost", metric: "post_recall", ref: "flap-ghost-clean", bound: -0.10},
		{name: "rdma_pre_collapse", arm: "rdma-mask", metric: "detected_before_collapse", bound: 1},
	}},
	"correlate": {hosts: 64, arms: correlateArms, gates: []gate{
		{name: "gray_recall_improved", arm: "on", metric: "gray_recall", strict: true, ref: "off"},
		{name: "hard_recall_held", arm: "on", metric: "hard_recall", ref: "off"},
		{name: "precision_held", arm: "on", metric: "precision", ref: "off"},
	}},
}

func main() {
	name := flag.String("campaign", "", "campaign to run: scenarios or correlate")
	seed := flag.Int64("seed", 7, "schedule generation and simulation seed (every arm shares it)")
	hosts := flag.Int("hosts", 0, "hosts in the simulated fabric (0: the campaign's default)")
	out := flag.String("o", "", "report output path (default BENCH_<campaign>.json)")
	flag.Parse()

	start := time.Now()
	rep, err := run(*name, *seed, *hosts)
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		*out = "BENCH_" + *name + ".json"
	}
	if err := writeReport(rep, *out); err != nil {
		fatal(err)
	}
	for _, a := range rep.Arms {
		keys := make([]string, 0, len(a.Metrics))
		for k := range a.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("bench: %-16s", a.Name)
		for _, k := range keys {
			fmt.Printf(" %s=%.4g", k, a.Metrics[k])
		}
		fmt.Println()
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

// run plays the named campaign's arms and evaluates its gates.
func run(name string, seed int64, hosts int) (*Report, error) {
	c, ok := campaigns[name]
	if !ok {
		return nil, fmt.Errorf("unknown campaign %q (want scenarios or correlate)", name)
	}
	if hosts <= 0 {
		hosts = c.hosts
	}
	arms, err := c.arms(seed, hosts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &Report{Campaign: name, Seed: seed, Hosts: hosts, Arms: arms, Gates: evalGates(c.gates, arms)}, nil
}

func evalGates(gates []gate, arms []Arm) []GateResult {
	byName := make(map[string]map[string]float64, len(arms))
	for _, a := range arms {
		byName[a.Name] = a.Metrics
	}
	out := make([]GateResult, len(gates))
	for i, g := range gates {
		out[i] = g.eval(byName)
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
		return d, log, Arm{Name: s.Name, Metrics: map[string]float64{
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
	spec := topology.Production(hosts)
	fab, err := topology.New(spec)
	if err != nil {
		return nil, err
	}
	s := scenario.GrayMix(fab, seed)
	var arms []Arm
	for _, name := range []string{"off", "on"} {
		opts := hunter.Options{
			Seed: seed,
			Spec: spec,
			Lag: cluster.LagModel{
				CreateLag:    func(*rand.Rand, int) time.Duration { return 0 },
				StartupDelay: func(*rand.Rand) time.Duration { return time.Second },
				StopLag:      func(*rand.Rand) time.Duration { return 0 },
			},
			Detect:           detect.Config{ShortWindow: 10 * time.Second},
			AnalysisInterval: 10 * time.Second,
		}
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
		if d.Correlate != nil {
			alarms, suppressed, chains := d.Correlate.Counts()
			m["gray_alarms"], m["gray_suppressed"], m["chains_emitted"] = float64(alarms), float64(suppressed), float64(chains)
		}
		arms = append(arms, Arm{Name: name, Metrics: m})
	}
	return arms, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
