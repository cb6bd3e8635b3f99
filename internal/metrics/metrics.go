// Package metrics scores SkeletonHunter against the fault injector's
// ground truth, producing the §7.1 headline numbers: detection
// precision and recall, localization accuracy, and mean detection
// latency.
//
// Matching rules: an alarm is a true positive when at least one
// injection was active at its timestamp, or had cleared no more than
// grace before it (detection lags onset, so a just-cleared fault's
// anomalies may flush late); alarms raised before a fault's onset
// never match it. An injection counts as detected when any alarm fires
// inside its active window (plus the trailing grace); a detected
// injection is correctly localized when some in-window alarm names one
// of the injection's ground-truth components.
package metrics

import (
	"sort"
	"strings"
	"time"

	"skeletonhunter/internal/analyzer"
	"skeletonhunter/internal/component"
	"skeletonhunter/internal/faults"
)

// Report carries the scored campaign.
type Report struct {
	Injections int
	Alarms     int

	TruePositiveAlarms  int
	FalsePositiveAlarms int
	DetectedInjections  int
	MissedInjections    int
	LocalizedInjections int

	// MeanDetectionLatency averages (first alarm − injection time) over
	// detected injections.
	MeanDetectionLatency time.Duration

	// Episode aggregation. Flapping and escalating faults record many
	// adjacent or overlapping ground-truth windows on the same
	// component; counting each window as its own injection double-
	// credits one alarm against all of them and skews recall and
	// latency. Injections sharing an identical component set whose
	// grace-extended windows overlap or touch are merged into episodes,
	// and the episode-side numbers below score one fault occurrence
	// once, however many windows recorded it.
	Episodes          int
	DetectedEpisodes  int
	MissedEpisodes    int
	LocalizedEpisodes int
	// MeanEpisodeLatency averages (first in-episode alarm − episode
	// onset) over detected episodes.
	MeanEpisodeLatency time.Duration
}

// EpisodeRecall is detected episodes / all episodes.
func (r Report) EpisodeRecall() float64 {
	if r.Episodes == 0 {
		return 1
	}
	return float64(r.DetectedEpisodes) / float64(r.Episodes)
}

// Precision is TP alarms / all alarms.
func (r Report) Precision() float64 {
	if r.Alarms == 0 {
		return 1
	}
	return float64(r.TruePositiveAlarms) / float64(r.Alarms)
}

// Recall is detected injections / all injections.
func (r Report) Recall() float64 {
	if r.Injections == 0 {
		return 1
	}
	return float64(r.DetectedInjections) / float64(r.Injections)
}

// LocalizationAccuracy is correctly localized / detected injections.
func (r Report) LocalizationAccuracy() float64 {
	if r.DetectedInjections == 0 {
		return 0
	}
	return float64(r.LocalizedInjections) / float64(r.DetectedInjections)
}

// Active implements Score's matching window: exact at onset,
// grace-extended at the cleared end.
func Active(in *faults.Injection, at, grace time.Duration) bool {
	if at < in.At {
		return false
	}
	return !in.Cleared || at <= in.ClearedAt+grace
}

// Score matches alarms against injections. grace extends each
// injection's window past its *cleared* end only — detection lags
// fault onset (a 30 s aggregation window plus an analysis round), so
// anomalies from a just-cleared fault may still flush up to grace
// afterwards and count as true positives. The onset end is exact: an
// alarm raised before a fault exists cannot have detected it, so
// pre-onset alarms are always false positives. An injection is active
// for an alarm at time t iff in.At ≤ t ≤ in.ClearedAt+grace (with no
// upper bound while uncleared), both boundaries inclusive.
func Score(injections []*faults.Injection, alarms []analyzer.Alarm, grace time.Duration) Report {
	r := Report{Injections: len(injections), Alarms: len(alarms)}

	// Alarm-side: precision.
	for _, a := range alarms {
		tp := false
		for _, in := range injections {
			if Active(in, a.At, grace) {
				tp = true
				break
			}
		}
		if tp {
			r.TruePositiveAlarms++
		} else {
			r.FalsePositiveAlarms++
		}
	}

	// Injection-side: recall, localization, latency.
	var latencySum time.Duration
	for _, in := range injections {
		detected := false
		localized := false
		var firstAlarm time.Duration
		for _, a := range alarms {
			if !Active(in, a.At, grace) {
				continue
			}
			if !detected {
				detected = true
				firstAlarm = a.At
			}
			if componentsIntersect(a.Components(), in.Components) {
				localized = true
			}
		}
		if detected {
			r.DetectedInjections++
			latencySum += firstAlarm - in.At
			if localized {
				r.LocalizedInjections++
			}
		} else {
			r.MissedInjections++
		}
	}
	if r.DetectedInjections > 0 {
		r.MeanDetectionLatency = latencySum / time.Duration(r.DetectedInjections)
	}

	// Episode-side: score each merged same-component fault interval
	// once. For campaigns whose windows are all disjoint this reduces
	// to the per-injection numbers above.
	var epLatency time.Duration
	for _, ep := range buildEpisodes(injections, grace) {
		r.Episodes++
		detected, localized := false, false
		var first time.Duration
		for _, a := range alarms {
			if a.At < ep.start || (!ep.open && a.At > ep.end) {
				continue
			}
			if !detected || a.At < first {
				detected = true
				first = a.At
			}
			if componentsIntersect(a.Components(), ep.comps) {
				localized = true
			}
		}
		if detected {
			r.DetectedEpisodes++
			epLatency += first - ep.start
			if localized {
				r.LocalizedEpisodes++
			}
		} else {
			r.MissedEpisodes++
		}
	}
	if r.DetectedEpisodes > 0 {
		r.MeanEpisodeLatency = epLatency / time.Duration(r.DetectedEpisodes)
	}
	return r
}

// episode is one merged ground-truth interval for one component set.
// end includes the trailing grace; open means an uncleared window made
// the interval unbounded.
type episode struct {
	comps []component.ID
	start time.Duration
	end   time.Duration
	open  bool
}

// buildEpisodes merges the grace-extended windows of injections with
// identical component sets whenever they overlap or touch (a window
// starting exactly where the previous one ends joins it). Windows of
// different component sets never merge — two links flapping in the
// same span are two episodes.
func buildEpisodes(injections []*faults.Injection, grace time.Duration) []episode {
	sig := func(comps []component.ID) string {
		parts := make([]string, len(comps))
		for i, c := range comps {
			parts[i] = string(c)
		}
		sort.Strings(parts)
		return strings.Join(parts, ",")
	}
	groups := map[string][]*faults.Injection{}
	var order []string
	for _, in := range injections {
		k := sig(in.Components)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], in)
	}
	var eps []episode
	for _, k := range order {
		ins := groups[k]
		sort.SliceStable(ins, func(i, j int) bool { return ins[i].At < ins[j].At })
		for _, in := range ins {
			end := in.ClearedAt + grace
			open := !in.Cleared
			if len(eps) > 0 {
				cur := &eps[len(eps)-1]
				if sig(cur.comps) == k && (cur.open || in.At <= cur.end) {
					cur.open = cur.open || open
					if !cur.open && end > cur.end {
						cur.end = end
					}
					continue
				}
			}
			eps = append(eps, episode{comps: in.Components, start: in.At, end: end, open: open})
		}
	}
	return eps
}

func componentsIntersect(a []component.ID, b []component.ID) bool {
	set := make(map[component.ID]bool, len(a))
	for _, c := range a {
		set[c] = true
	}
	for _, c := range b {
		if set[c] {
			return true
		}
	}
	return false
}
