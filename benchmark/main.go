// Command benchmark is the repository benchmark: four seeded campaigns
// against hunter.Deployment, end-to-end metrics from an untraced run,
// per-layer metrics from a traced run timed from the harness side, and
// built-in output checks. BENCHMARK.json at the repository root is its
// contract; README.md in this directory explains every metric.
//
//	go run ./benchmark                                  # all workloads, untraced
//	go run ./benchmark -workload fault-storm -trace 1   # one workload, untraced + traced
//	go run ./benchmark -aa                              # two sets, compared against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
)

// defaultSeconds mirrors run_seconds in BENCHMARK.json.
const defaultSeconds = 15

// report is one workload's results.
type report struct {
	Workload    string   `json:"workload"`
	Why         string   `json:"why"`
	Seed        int64    `json:"seed"`
	Ticks       int      `json:"ticks"`
	Workers     int      `json:"workers"`
	Fingerprint string   `json:"fingerprint"`
	Ops         int      `json:"ops"`
	FailedOps   int      `json:"failed_ops"`
	Failures    []string `json:"failures,omitempty"`
	EndToEnd    []metric `json:"end_to_end"`
	PerLayer    []metric `json:"per_layer,omitempty"`
	// Timings summarizes each wall-clock distribution as the median and
	// the highest percentile that has ten samples beyond it.
	Timings []timing `json:"timings"`
}

type timing struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	picked
}

// MarshalJSON renders a metric as {name, value, unit[, n]} with a null
// value for an absent histogram.
func (m metric) MarshalJSON() ([]byte, error) {
	out := struct {
		Name  string   `json:"name"`
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
		N     int      `json:"n,omitempty"`
	}{Name: m.Name, Unit: m.Unit, N: m.N}
	if !m.Null {
		out.Value = &m.Value
	}
	return json.Marshal(out)
}

type suiteConfig struct {
	names    []string
	run      runConfig
	traced   bool
	traceOut string
}

// runSuite runs the selected workloads: every one untraced, then — in
// traced mode — each again under the step tracer, plus the untraced
// sibling of a fleet workload so that the fleet-steady/fleet-serial
// fingerprint check and the parallel speedup exist even when the
// driver asks for one workload.
func runSuite(cfg suiteConfig, logw io.Writer) ([]*report, error) {
	var selected []*workload
	for _, name := range cfg.names {
		w := workloadByName(name)
		if w == nil {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		selected = append(selected, w)
	}
	untraced := map[string]*outcome{}
	runUntraced := func(w *workload) error {
		if untraced[w.name] != nil {
			return nil
		}
		fmt.Fprintf(logw, "# %s seed %d: untraced run\n", w.name, cfg.run.seed)
		o, err := run(w, cfg.run, nil)
		if err != nil {
			return err
		}
		untraced[w.name] = o
		return nil
	}
	for _, w := range selected {
		if err := runUntraced(w); err != nil {
			return nil, err
		}
		if s := w.sibling(); s != nil && cfg.traced {
			if err := runUntraced(s); err != nil {
				return nil, err
			}
		}
	}
	traced := map[string]*outcome{}
	if cfg.traced {
		for _, w := range selected {
			fmt.Fprintf(logw, "# %s seed %d: traced run\n", w.name, cfg.run.seed)
			o, err := run(w, cfg.run, newRecorder())
			if err != nil {
				return nil, err
			}
			traced[w.name] = o
		}
	}

	speedup := 0.0
	if st, se := untraced["fleet-steady"], untraced["fleet-serial"]; st != nil && se != nil && se.probesPerS() > 0 {
		speedup = st.probesPerS() / se.probesPerS()
	}
	var reports []*report
	for _, w := range selected {
		u := untraced[w.name]
		rep := &report{Workload: w.name, Why: w.why, Seed: u.seed, Ticks: u.ticks, Workers: u.workers,
			Fingerprint: u.fingerprint, Ops: u.ops, Failures: u.failures, EndToEnd: u.endToEnd(),
			Timings: []timing{
				{"tick", "ms", pick(u.tickMs)},
				{"analysis_tick", "ms", pick(u.analysisMs)},
				{"api_get", "ms", pick(u.api.getMs)},
			}}
		if s := w.sibling(); s != nil && untraced[s.name] != nil && untraced[s.name].fingerprint != u.fingerprint {
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: fingerprint %.12s differs from %s's %.12s",
				w.name, u.fingerprint, s.name, untraced[s.name].fingerprint))
		}
		if t := traced[w.name]; t != nil {
			rep.Ops += t.ops
			rep.Failures = append(rep.Failures, t.failures...)
			if t.fingerprint != u.fingerprint {
				rep.Failures = append(rep.Failures, fmt.Sprintf("%s: traced fingerprint %.12s differs from untraced %.12s",
					w.name, t.fingerprint, u.fingerprint))
			}
			if diff := diffCounts(u.counts, t.counts); len(diff) > 0 {
				rep.Failures = append(rep.Failures, fmt.Sprintf("%s: traced counts differ from untraced: %s",
					w.name, strings.Join(diff, ", ")))
			}
			rep.PerLayer = t.perLayer(u, speedup)
			for _, name := range []string{spanProbeRound, spanAnalyzer, spanGrayFanout, spanInfer} {
				rep.Timings = append(rep.Timings, timing{name, "ms", pick(t.rec.durations(name))})
			}
			if cfg.traceOut != "" {
				if err := writeSpans(cfg.traceOut, w.name, len(selected) > 1, t.rec); err != nil {
					return nil, err
				}
			}
		}
		rep.FailedOps = len(rep.Failures)
		reports = append(reports, rep)
	}
	return reports, nil
}

// writeSpans writes one workload's span file; with several workloads
// the name is inserted before the extension.
func writeSpans(path, workload string, multi bool, r *recorder) error {
	if multi {
		ext := ""
		if i := strings.LastIndex(path, "."); i > strings.LastIndex(path, "/") {
			path, ext = path[:i], path[i:]
		}
		path = path + "." + workload + ext
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printReports(w io.Writer, reports []*report) {
	for _, rep := range reports {
		fmt.Fprintf(w, "\n== %s  seed=%d ticks=%d workers=%d fingerprint=%.12s\n   %s\n",
			rep.Workload, rep.Seed, rep.Ticks, rep.Workers, rep.Fingerprint, rep.Why)
		fmt.Fprintf(w, "   ops=%d failed_ops=%d\n", rep.Ops, rep.FailedOps)
		for _, f := range rep.Failures {
			fmt.Fprintf(w, "   FAILED: %s\n", f)
		}
		printMetrics(w, "end-to-end (untraced run)", rep.EndToEnd)
		if rep.PerLayer != nil {
			printMetrics(w, "per-layer (traced run)", rep.PerLayer)
		}
		fmt.Fprintln(w, " -- timing distributions")
		for _, t := range rep.Timings {
			line := fmt.Sprintf("   %-30s p50 %.6g", t.Name, t.P50)
			if t.HiName != "" {
				line += fmt.Sprintf("  %s %.6g", t.HiName, t.Hi)
			}
			fmt.Fprintf(w, "%s %s  (n=%d)\n", line, t.Unit, t.N)
		}
	}
}

func printMetrics(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, " -- %s\n", title)
	for _, m := range ms {
		val := fmt.Sprintf("%.6g", m.Value)
		if m.Null {
			val = "null"
		}
		line := fmt.Sprintf("   %-30s %14s %s", m.Name, val, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Fprintln(w, line)
	}
}

// resultLine is the driver contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func resultOf(reports []*report, traced bool) resultLine {
	out := resultLine{Correct: true, Metrics: map[string]resultValue{}}
	for _, rep := range reports {
		out.Attempted += rep.Ops
		out.Failed += rep.FailedOps
		ms := rep.EndToEnd
		if traced {
			ms = rep.PerLayer
		}
		for _, m := range ms {
			name := m.Name
			if len(reports) > 1 {
				name = rep.Workload + "/" + name
			}
			out.Metrics[name] = resultValue{Value: m.Value, Unit: m.Unit}
		}
	}
	out.Correct = out.Failed == 0
	return out
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	all := make([]string, len(workloads))
	for i, w := range workloads {
		all[i] = w.name
	}
	workloadFlag := fs.String("workload", strings.Join(all, ","), "comma-separated workloads to run")
	seed := fs.Int64("seed", 1, "workload seed (2 is the held-out seed for later claims)")
	seconds := fs.Int("seconds", defaultSeconds, "run budget; sets the fixed number of measured ticks per workload")
	trace := fs.String("trace", "0", "1: also run each workload traced and report per-layer metrics")
	traceOut := fs.String("trace-out", "", "write the traced run's spans here as JSON lines")
	aa := fs.Bool("aa", false, "run the selection twice and fail unless the two sets agree within the BENCHMARK.json bounds")
	quick := fs.Bool("quick", false, "smoke sizes: 64 hosts, 20 ticks")
	outPath := fs.String("o", "", "write the full results as JSON")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile")
	memprofile := fs.String("memprofile", "", "write a heap profile at exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	var traced bool
	switch *trace {
	case "0", "false":
	case "1", "true":
		traced = true
	default:
		return fail(fmt.Errorf("bad -trace %q (want 0 or 1)", *trace))
	}
	if *seconds < 1 {
		return fail(fmt.Errorf("bad -seconds %d", *seconds))
	}

	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(100)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	cfg := suiteConfig{
		names:    strings.Split(*workloadFlag, ","),
		run:      runConfig{seed: *seed, seconds: *seconds, quick: *quick, workers: procs},
		traced:   traced,
		traceOut: *traceOut,
	}
	reports, err := runSuite(cfg, stderr)
	if err != nil {
		return fail(err)
	}
	printReports(stdout, reports)
	code := 0
	if *aa {
		second, err := runSuite(cfg, stderr)
		if err != nil {
			return fail(err)
		}
		ok, err := compareAA(stdout, reports, second)
		if err != nil {
			return fail(err)
		}
		if !ok {
			code = 1
		}
	}
	if *outPath != "" {
		data, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fail(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
	}
	res := resultOf(reports, traced)
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "\n%s\n", line)
	if !res.Correct {
		code = 1
	}
	return code
}
