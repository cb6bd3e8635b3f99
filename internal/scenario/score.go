package scenario

import (
	"fmt"
	"strings"
	"time"

	"skeletonhunter/internal/analyzer"
	"skeletonhunter/internal/component"
	"skeletonhunter/internal/correlate"
	"skeletonhunter/internal/faults"
	"skeletonhunter/internal/metrics"
)

// ScoreGrace is the trailing window alarms may lag a cleared fault by
// and still count: the detector's 30 s aggregation window plus an
// analysis round.
const ScoreGrace = 45 * time.Second

// PackScore is one pack's headline numbers against its ground truth.
// Recall and TTD are episode-based (metrics.Report): flap bursts and
// loss staircases record many windows per fault occurrence, and the
// pack is judged on occurrences, not windows.
type PackScore struct {
	Pack         string
	Seed         int64
	Precision    float64
	Recall       float64 // detected episodes / episodes
	StrictRecall float64 // localized episodes / episodes
	MeanTTDSec   float64
	Alarms       int
	Injections   int
	Episodes     int
	RunErrs      int
}

// ScorePack folds a completed run's ground truth and alarm stream into
// the pack's headline numbers.
func ScorePack(log *RunLog, injections []*faults.Injection, alarms []analyzer.Alarm) PackScore {
	r := metrics.Score(injections, alarms, ScoreGrace)
	return PackScore{
		Pack:         log.Schedule.Name,
		Seed:         log.Schedule.Seed,
		Precision:    r.Precision(),
		Recall:       r.EpisodeRecall(),
		StrictRecall: strictRecall(r),
		MeanTTDSec:   r.MeanEpisodeLatency.Seconds(),
		Alarms:       r.Alarms,
		Injections:   r.Injections,
		Episodes:     r.Episodes,
		RunErrs:      len(log.Errs),
	}
}

func strictRecall(r metrics.Report) float64 {
	if r.Episodes == 0 {
		return 1
	}
	return float64(r.LocalizedEpisodes) / float64(r.Episodes)
}

// WindowedScore restricts scoring to one phase of a campaign: only
// alarms raised in [from, to] count, against only the injections whose
// grace-extended window intersects [from, to]. The flap+ghost gate
// compares the post-refresh phase of the ghost arm against the same
// phase of the clean arm.
func WindowedScore(injections []*faults.Injection, alarms []analyzer.Alarm, from, to time.Duration) metrics.Report {
	var ins []*faults.Injection
	for _, in := range injections {
		if in.Cleared && in.ClearedAt+ScoreGrace < from {
			continue
		}
		if in.At > to {
			continue
		}
		ins = append(ins, in)
	}
	var als []analyzer.Alarm
	for _, a := range alarms {
		if a.At >= from && a.At <= to {
			als = append(als, a)
		}
	}
	return metrics.Score(ins, als, ScoreGrace)
}

// FlapPhaseRecall scores the flap+ghost pack's phase of interest: the
// localization-strict episode recall of flap windows using only the
// alarms of [from, to].
func FlapPhaseRecall(injections []*faults.Injection, alarms []analyzer.Alarm, from, to time.Duration) float64 {
	r := WindowedScore(injections, alarms, from, to)
	if r.Episodes == 0 {
		return 1
	}
	return float64(r.LocalizedEpisodes) / float64(r.Episodes)
}

// PreCollapseDetection reports whether any alarm attributable to the
// given injections fired strictly before the collective collapse —
// rdma-mask's acceptance bar: detection recall must be non-zero while
// the workload is still alive.
func PreCollapseDetection(injections []*faults.Injection, alarms []analyzer.Alarm, collapse time.Duration) bool {
	r := WindowedScore(injections, alarms, 0, collapse-time.Nanosecond)
	return r.DetectedEpisodes > 0
}

// GrayScore scores one arm of a mixed gray + hard campaign (GrayMix).
// Recall is localization-strict: an injection counts as caught only
// when an alarm names one of its accepted components inside its active
// window. Precision is active-window: an alarm is a true positive iff
// any injection was active when it fired.
type GrayScore struct {
	GrayRecall     float64
	HardRecall     float64
	Precision      float64
	MeanGrayTTDSec float64
	Injections     []InjectionOutcome
}

// InjectionOutcome is one scheduled fault's scored fate in an arm.
type InjectionOutcome struct {
	Name       string
	Gray       bool
	Component  component.ID
	Caught     bool
	CaughtBy   string // "detect", "correlate", or "both"
	LatencySec float64
}

// accepted pairs an injection with the component IDs an alarm may
// legitimately name for it.
type accepted struct {
	in     *faults.Injection
	accept map[component.ID]bool
}

// acceptSet widens an injection's ground truth where layers attribute
// differently: a queue change-point names the switch a gray fault's
// config degrades, and a fault on an attach link is correctly pinned
// by naming the RNIC at the link's host end.
func acceptSet(a Action, in *faults.Injection) map[component.ID]bool {
	acc := make(map[component.ID]bool, len(in.Components)+1)
	for _, c := range in.Components {
		acc[c] = true
	}
	if a.Kind == ActInjectGray && a.Switch != "" {
		acc[component.Switch(a.Switch)] = true
	}
	for _, end := range strings.Split(string(a.Link), "--") {
		var host, rail int
		if n, err := fmt.Sscanf(end, "nic/h%d/r%d", &host, &rail); err == nil && n == 2 {
			acc[component.RNIC(host, rail)] = true
		}
	}
	return acc
}

// ScoreGray scores a completed run's injections, in schedule order,
// against the first layer's alarms and the correlate layer's alarm
// stream as OnGray delivered it.
func ScoreGray(log *RunLog, hard []analyzer.Alarm, gray []correlate.Alarm) GrayScore {
	var sched []accepted
	for i, a := range log.Schedule.Actions {
		if in := log.Injections[i]; in != nil {
			sched = append(sched, accepted{in: in, accept: acceptSet(a, in)})
		}
	}
	var sc GrayScore
	tp, total := 0, 0
	countAlarm := func(at time.Duration) {
		total++
		for _, s := range sched {
			if metrics.Active(s.in, at, 0) {
				tp++
				return
			}
		}
	}
	for _, a := range hard {
		countAlarm(a.At)
	}
	seen := map[int]bool{}
	for _, al := range gray {
		// OnGray re-delivers an alarm every round it changes; precision
		// counts each minted alarm once, at its first anomaly time.
		if seen[al.Seq] {
			continue
		}
		seen[al.Seq] = true
		countAlarm(al.At)
	}
	sc.Precision = 1
	if total > 0 {
		sc.Precision = float64(tp) / float64(total)
	}

	grayTotal, grayCaught, hardTotal, hardCaught := 0, 0, 0, 0
	var ttdSum time.Duration
	for _, s := range sched {
		io := InjectionOutcome{
			Name:      s.in.Info.Name,
			Gray:      s.in.IsGray(),
			Component: s.in.Components[0],
		}
		first := time.Duration(-1)
		byDetect, byCorrelate := false, false
		for _, a := range hard {
			if !metrics.Active(s.in, a.At, 0) {
				continue
			}
			for _, c := range a.Components() {
				if s.accept[c] {
					byDetect = true
					if first < 0 || a.At < first {
						first = a.At
					}
					break
				}
			}
		}
		for _, al := range gray {
			if !s.accept[al.Component] || !metrics.Active(s.in, al.At, 0) {
				continue
			}
			byCorrelate = true
			if first < 0 || al.At < first {
				first = al.At
			}
		}
		io.Caught = byDetect || byCorrelate
		switch {
		case byDetect && byCorrelate:
			io.CaughtBy = "both"
		case byDetect:
			io.CaughtBy = "detect"
		case byCorrelate:
			io.CaughtBy = "correlate"
		}
		if io.Caught {
			io.LatencySec = (first - s.in.At).Seconds()
		}
		if io.Gray {
			grayTotal++
			if io.Caught {
				grayCaught++
				ttdSum += first - s.in.At
			}
		} else {
			hardTotal++
			if io.Caught {
				hardCaught++
			}
		}
		sc.Injections = append(sc.Injections, io)
	}
	if grayTotal > 0 {
		sc.GrayRecall = float64(grayCaught) / float64(grayTotal)
	}
	if hardTotal > 0 {
		sc.HardRecall = float64(hardCaught) / float64(hardTotal)
	}
	if grayCaught > 0 {
		sc.MeanGrayTTDSec = (ttdSum / time.Duration(grayCaught)).Seconds()
	}
	return sc
}
