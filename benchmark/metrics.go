package main

import (
	"math"
	"sort"
)

// metric is one reported number. Null marks an obs histogram the
// system no longer (or on this workload never) provides; N is the
// sample count behind a timing percentile, 0 when not applicable.
type metric struct {
	Name  string
	Unit  string
	Value float64
	Null  bool
	N     int
}

// def names a metric and its unit. Direction and regression bound live
// in BENCHMARK.json alone; a test keeps the two lists in step.
type def struct{ name, unit string }

// simSeconds is the unit of simulated (not wall-clock) time.
const simSeconds = "sim_s"

var endToEndDefs = []def{
	{"setup_s", "s"},
	{"probes_per_s", "1/s"},
	{"tick_ms_p50", "ms"},
	{"tick_ms_p90", "ms"},
	{"allocs_per_probe", "count"},
	{"alloc_bytes_per_probe", "B"},
	{"peak_heap_mib", "MiB"},
	{"live_heap_mib", "MiB"},
	{"detect_precision", "ratio"},
	{"detect_recall", "ratio"},
	{"localize_strict_recall", "ratio"},
	{"ttd_sim_s", simSeconds},
	{"api_get_ms_p50", "ms"},
}

// exactEndToEnd are the end-to-end metrics computed in simulated time:
// they repeat exactly for one workload and seed.
var exactEndToEnd = map[string]bool{
	"detect_precision": true, "detect_recall": true, "localize_strict_recall": true, "ttd_sim_s": true,
}

var perLayerDefs = []def{
	{"sim.events", "count"},
	{"sim.other_ms", "ms"},
	{"hunter.new_ms", "ms"},
	{"hunter.fill_ms", "ms"},
	{"hunter.warmup_ms", "ms"},
	{"hunter.ticks_per_s", "1/s"},
	{"hunter.analysis_tick_ms_p50", "ms"},
	{"probe.round_ms_sum", "ms"},
	{"probe.round_ms_p50", "ms"},
	{"probe.rounds", "count"},
	{"probe.probes", "count"},
	{"probe.groups_per_tick", "count"},
	{"probe.work_ms", "ms"},
	{"probe.worker_util_pct", "%"},
	{"probe.serial_share_pct", "%"},
	{"probe.parallel_speedup", "ratio"},
	{"netsim.probe_ns", "ns"},
	{"netsim.replay_probes", "count"},
	{"netsim.lost_pct", "%"},
	{"controller.pinglist_ns", "ns"},
	{"controller.targets_per_agent", "count"},
	{"cluster.tasks", "count"},
	{"cluster.agents_peak", "count"},
	{"skeleton.infer_ms_p50", "ms"},
	{"skeleton.infer_ms_p90", "ms"},
	{"skeleton.infers", "count"},
	{"skeleton.infer_errs", "count"},
	{"logstore.commit_ms", "ms"},
	{"logstore.records_logged", "count"},
	{"logstore.index_keys", "count"},
	{"logstore.index_entries", "count"},
	{"logstore.index_keys_dropped", "count"},
	{"analyzer.round_ms_sum", "ms"},
	{"analyzer.round_ms_p50", "ms"},
	{"analyzer.round_ms_max", "ms"},
	{"analyzer.self_ms", "ms"},
	{"analyzer.rounds", "count"},
	{"analyzer.records_ingested", "count"},
	{"analyzer.records_shed", "count"},
	{"analyzer.alarms", "count"},
	{"detect.drain_ms", "ms"},
	{"detect.windows", "count"},
	{"detect.anomalies", "count"},
	{"localize.ms", "ms"},
	{"localize.anomalies_in", "count"},
	{"correlate.fold_ms", "ms"},
	{"correlate.changepoints", "count"},
	{"correlate.deduped", "count"},
	{"correlate.chains", "count"},
	{"correlate.series", "count"},
	{"hunter.alarm_fanout_ms", "ms"},
	{"hunter.alarm_fanout_calls", "count"},
	{"hunter.gray_fanout_ms", "ms"},
	{"hunter.gray_fanout_calls", "count"},
	{"incident.opened", "count"},
	{"incident.reopened", "count"},
	{"incident.resolved", "count"},
	{"incident.live", "count"},
	{"remedy.executed", "count"},
	{"remedy.committed", "count"},
	{"remedy.deferred", "count"},
	{"remedy.escalated", "count"},
	{"apiserver.epochs", "count"},
	{"apiserver.epochs_per_alarm", "ratio"},
	{"apiserver.get_ms_p99", "ms"},
	{"apiserver.cond_get_us_p50", "us"},
	{"apiserver.watch_ms_p50", "ms"},
	{"apiserver.not_modified_pct", "%"},
	{"apiserver.body_kib_p50", "KiB"},
	{"apiserver.watch_resyncs", "count"},
	{"hunter.checkpoint_ms_p50", "ms"},
	{"hunter.recover_ms_p50", "ms"},
	{"hunter.fingerprint_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_pct", "%"},
	{"runtime.gc_pause_ms_sum", "ms"},
	{"hunter.trace_overhead_pct", "%"},
	{"hunter.named_span_pct", "%"},
}

// histOf maps the per-layer metrics copied through from obs histogram
// sums to the histogram they read.
var histOf = map[string]string{
	"probe.work_ms":      "stage-probe-ms",
	"logstore.commit_ms": "stage-ingest-ms",
	"detect.drain_ms":    "stage-detect-ms",
	"localize.ms":        "stage-localize-ms",
	"correlate.fold_ms":  "stage-correlate-ms",
}

const mib = 1 << 20

func perProbe(x, probes uint64) float64 {
	if probes == 0 {
		return 0
	}
	return float64(x) / float64(probes)
}

func (o *outcome) probesPerS() float64 {
	if o.wall <= 0 {
		return 0
	}
	return float64(o.probes) / o.wall.Seconds()
}

// endToEnd reports what a user of the system sees, from the untraced
// run.
func (o *outcome) endToEnd() []metric {
	v := map[string]metric{
		"setup_s":                {Value: o.setupS},
		"probes_per_s":           {Value: o.probesPerS()},
		"tick_ms_p50":            {Value: percentile(o.tickMs, 0.5), N: len(o.tickMs)},
		"tick_ms_p90":            {Value: percentile(o.tickMs, 0.9), N: len(o.tickMs)},
		"allocs_per_probe":       {Value: perProbe(o.allocObjs, o.probes)},
		"alloc_bytes_per_probe":  {Value: perProbe(o.allocByte, o.probes)},
		"peak_heap_mib":          {Value: float64(o.peakHeap) / mib},
		"live_heap_mib":          {Value: float64(o.liveHeap) / mib},
		"detect_precision":       {Value: o.score.Precision},
		"detect_recall":          {Value: o.score.Recall},
		"localize_strict_recall": {Value: o.score.StrictRecall},
		"ttd_sim_s":              {Value: o.score.MeanTTDSec},
		"api_get_ms_p50":         {Value: percentile(o.api.getMs, 0.5), N: len(o.api.getMs)},
	}
	return fill(endToEndDefs, v)
}

// perLayer reports single-layer numbers from the traced run t. u is
// the untraced run of the same workload and seed (for the tracing
// overhead); speedup is probes_per_s of fleet-steady over fleet-serial
// when both ran, else 0.
func (t *outcome) perLayer(u *outcome, speedup float64) []metric {
	r := t.rec
	v := map[string]metric{}
	for name, x := range t.counts {
		v[name] = metric{Value: x}
	}
	for name, hist := range histOf {
		if x, ok := t.histMs[hist]; ok {
			v[name] = metric{Value: x}
		} else {
			v[name] = metric{Null: true}
		}
	}
	timed := func(prefix, span string) []float64 {
		xs := r.durations(span)
		v[prefix+"_p50"] = metric{Value: percentile(xs, 0.5), N: len(xs)}
		return xs
	}
	wallMs, otherMs := ms(t.wall), r.selfMs(spanOther)

	v["sim.other_ms"] = metric{Value: otherMs}
	v["hunter.new_ms"] = metric{Value: t.newMs}
	v["hunter.fill_ms"] = metric{Value: t.fillMs}
	v["hunter.warmup_ms"] = metric{Value: t.warmupMs}
	v["hunter.ticks_per_s"] = metric{Value: float64(t.ticks) / t.wall.Seconds()}
	v["hunter.analysis_tick_ms_p50"] = metric{Value: percentile(t.analysisMs, 0.5), N: len(t.analysisMs)}

	rounds := timed("probe.round_ms", spanProbeRound)
	v["probe.round_ms_sum"] = metric{Value: sum(rounds), N: len(rounds)}
	if t.capNs > 0 {
		v["probe.worker_util_pct"] = metric{Value: 100 * float64(t.busyNs) / float64(t.capNs)}
	}
	if s := sum(rounds); s > 0 && t.workers > 0 {
		parallel := float64(t.capNs) / float64(t.workers) / 1e6
		v["probe.serial_share_pct"] = metric{Value: 100 * (1 - parallel/s)}
	}
	v["probe.parallel_speedup"] = metric{Value: speedup}

	if t.replayProbes > 0 {
		v["netsim.probe_ns"] = metric{Value: float64(t.replayNs) / float64(t.replayProbes)}
		v["netsim.lost_pct"] = metric{Value: 100 * float64(t.replayLost) / float64(t.replayProbes)}
	}
	v["netsim.replay_probes"] = metric{Value: float64(t.replayProbes)}
	if t.pinglistAgents > 0 {
		v["controller.pinglist_ns"] = metric{Value: float64(t.pinglistNs) / float64(t.pinglistAgents)}
		v["controller.targets_per_agent"] = metric{Value: float64(t.pinglistTargets) / float64(t.pinglistAgents)}
	}

	infers := timed("skeleton.infer_ms", spanInfer)
	v["skeleton.infer_ms_p90"] = metric{Value: percentile(infers, 0.9), N: len(infers)}

	an := timed("analyzer.round_ms", spanAnalyzer)
	v["analyzer.round_ms_sum"] = metric{Value: sum(an), N: len(an)}
	v["analyzer.round_ms_max"] = metric{Value: percentile(an, 1), N: len(an)}
	v["analyzer.self_ms"] = metric{Value: r.selfMs(spanAnalyzer)}

	alarmFan, grayFan := r.durations(spanAlarmFanout), r.durations(spanGrayFanout)
	v["hunter.alarm_fanout_ms"] = metric{Value: sum(alarmFan)}
	v["hunter.alarm_fanout_calls"] = metric{Value: float64(len(alarmFan))}
	v["hunter.gray_fanout_ms"] = metric{Value: sum(grayFan)}
	v["hunter.gray_fanout_calls"] = metric{Value: float64(len(grayFan))}

	v["apiserver.get_ms_p99"] = metric{Value: percentile(t.api.getMs, 0.99), N: len(t.api.getMs)}
	v["apiserver.cond_get_us_p50"] = metric{Value: percentile(t.api.condUs, 0.5), N: len(t.api.condUs)}
	v["apiserver.watch_ms_p50"] = metric{Value: percentile(t.api.watchMs, 0.5), N: len(t.api.watchMs)}

	timed("hunter.checkpoint_ms", spanCheckpoint)
	timed("hunter.recover_ms", spanRecover)
	v["hunter.fingerprint_ms"] = metric{Value: t.fingerprintMs}

	v["runtime.gc_cycles"] = metric{Value: float64(t.gcCycles)}
	v["runtime.gc_cpu_pct"] = metric{Value: t.gcCPUPct}
	v["runtime.gc_pause_ms_sum"] = metric{Value: t.gcPauseMs}
	if u != nil && u.wall > 0 {
		v["hunter.trace_overhead_pct"] = metric{Value: 100 * (t.wall.Seconds()/u.wall.Seconds() - 1)}
	}
	if wallMs > 0 {
		v["hunter.named_span_pct"] = metric{Value: 100 * (1 - (otherMs+r.selfMs(spanTick))/wallMs)}
	}
	return fill(perLayerDefs, v)
}

// fill orders computed values by the definition list and stamps names
// and units; a definition nothing computed reports 0.
func fill(defs []def, v map[string]metric) []metric {
	out := make([]metric, 0, len(defs))
	for _, d := range defs {
		m := v[d.name]
		m.Name, m.Unit = d.name, d.unit
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
		}
		out = append(out, m)
	}
	return out
}

// diffCounts lists the exact-repeat counts on which two runs differ.
func diffCounts(a, b map[string]float64) []string {
	var out []string
	for name, x := range a {
		if y, ok := b[name]; !ok || x != y {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
