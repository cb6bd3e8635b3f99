package scenario

import (
	"testing"
	"time"

	"skeletonhunter/internal/analyzer"
	"skeletonhunter/internal/component"
	"skeletonhunter/internal/correlate"
	"skeletonhunter/internal/faults"
	"skeletonhunter/internal/localize"
	"skeletonhunter/internal/trainsim"
)

func injection(at, cleared time.Duration, comps ...component.ID) *faults.Injection {
	in := &faults.Injection{At: at, Components: comps}
	if cleared > 0 {
		in.Cleared = true
		in.ClearedAt = cleared
	}
	return in
}

func alarm(at time.Duration, comps ...component.ID) analyzer.Alarm {
	return analyzer.Alarm{
		At:       at,
		Verdicts: []localize.Verdict{{Components: comps}},
	}
}

func TestScorePackHeadlineNumbers(t *testing.T) {
	link := component.Link("a->b")
	log := &RunLog{Schedule: &Schedule{Name: "flap-ghost", Seed: 9}}
	injections := []*faults.Injection{
		injection(time.Minute, 2*time.Minute, link),
		// Adjacent window of the same flap: merges into the episode.
		injection(2*time.Minute+10*time.Second, 3*time.Minute, link),
	}
	alarms := []analyzer.Alarm{alarm(time.Minute+30*time.Second, link)}
	ps := ScorePack(log, injections, alarms)
	if ps.Pack != "flap-ghost" || ps.Seed != 9 {
		t.Fatalf("identity fields wrong: %+v", ps)
	}
	if ps.Episodes != 1 {
		t.Fatalf("episodes = %d, want 1 (windows merge)", ps.Episodes)
	}
	if ps.Recall != 1 || ps.StrictRecall != 1 {
		t.Fatalf("recall/strict = %v/%v, want 1/1", ps.Recall, ps.StrictRecall)
	}
	if ps.Precision != 1 {
		t.Fatalf("precision = %v, want 1", ps.Precision)
	}
	if want := 30.0; ps.MeanTTDSec != want {
		t.Fatalf("mean TTD = %v s, want %v", ps.MeanTTDSec, want)
	}
	if ps.Injections != 2 || ps.Alarms != 1 {
		t.Fatalf("counts %d/%d, want 2/1", ps.Injections, ps.Alarms)
	}
}

func TestScorePackNoEpisodes(t *testing.T) {
	log := &RunLog{Schedule: &Schedule{Name: "empty"}}
	ps := ScorePack(log, nil, nil)
	if ps.Recall != 1 || ps.StrictRecall != 1 || ps.Precision != 1 {
		t.Fatalf("empty run should score perfect vacuously: %+v", ps)
	}
}

func TestWindowedScoreClipsBothStreams(t *testing.T) {
	link := component.Link("a->b")
	injections := []*faults.Injection{
		injection(time.Minute, 2*time.Minute, link),     // long before the window
		injection(10*time.Minute, 11*time.Minute, link), // inside
		injection(20*time.Minute, 21*time.Minute, link), // after
	}
	alarms := []analyzer.Alarm{
		alarm(90*time.Second, link),                // before: dropped
		alarm(10*time.Minute+30*time.Second, link), // inside: kept
		alarm(20*time.Minute+10*time.Second, link), // after: dropped
	}
	r := WindowedScore(injections, alarms, 9*time.Minute, 12*time.Minute)
	if r.Injections != 1 {
		t.Fatalf("windowed injections = %d, want 1", r.Injections)
	}
	if r.Alarms != 1 {
		t.Fatalf("windowed alarms = %d, want 1", r.Alarms)
	}
	if r.DetectedEpisodes != 1 || r.LocalizedEpisodes != 1 {
		t.Fatalf("windowed episode detection %d/%d, want 1/1", r.DetectedEpisodes, r.LocalizedEpisodes)
	}
}

func TestWindowedScoreKeepsGraceStraddlers(t *testing.T) {
	link := component.Link("a->b")
	// Cleared 10 s before the window, but within ScoreGrace of it.
	injections := []*faults.Injection{injection(time.Minute, 5*time.Minute, link)}
	r := WindowedScore(injections, nil, 5*time.Minute+10*time.Second, 6*time.Minute)
	if r.Injections != 1 {
		t.Fatalf("grace straddler dropped: %d injections", r.Injections)
	}
}

func TestFlapPhaseRecallVacuouslyPerfect(t *testing.T) {
	if got := FlapPhaseRecall(nil, nil, 0, time.Minute); got != 1 {
		t.Fatalf("no-episode phase recall = %v, want 1", got)
	}
}

func TestPreCollapseDetection(t *testing.T) {
	link := component.Link("a->b")
	injections := []*faults.Injection{injection(2*time.Minute, 0, link)}
	early := []analyzer.Alarm{alarm(3*time.Minute, link)}
	late := []analyzer.Alarm{alarm(10*time.Minute, link)}
	collapse := 9 * time.Minute
	if !PreCollapseDetection(injections, early, collapse) {
		t.Fatal("alarm before collapse not credited")
	}
	if PreCollapseDetection(injections, late, collapse) {
		t.Fatal("alarm after collapse credited")
	}
	if PreCollapseDetection(injections, nil, collapse) {
		t.Fatal("no alarms credited")
	}
	// An alarm exactly at the collapse instant is too late.
	atCollapse := []analyzer.Alarm{alarm(collapse, link)}
	if PreCollapseDetection(injections, atCollapse, collapse) {
		t.Fatal("alarm at collapse instant credited")
	}
}

func TestCollapseAtPicksEarliestFailure(t *testing.T) {
	log := &RunLog{Jobs: map[int]*trainsim.Job{}}
	if _, ok := log.CollapseAt(); ok {
		t.Fatal("empty job map reported a collapse")
	}
	log.Jobs[1] = &trainsim.Job{Failed: false}
	if _, ok := log.CollapseAt(); ok {
		t.Fatal("healthy job reported a collapse")
	}
	log.Jobs[2] = &trainsim.Job{Failed: true, FailedAt: 9 * time.Minute}
	log.Jobs[3] = &trainsim.Job{Failed: true, FailedAt: 7 * time.Minute}
	at, ok := log.CollapseAt()
	if !ok || at != 7*time.Minute {
		t.Fatalf("CollapseAt = %v/%v, want 7m/true", at, ok)
	}
}

func TestScoreLocalizationStrict(t *testing.T) {
	comp := component.RNIC(1, 0)
	log := &RunLog{
		Schedule: &Schedule{Actions: []Action{{
			At: 10 * time.Minute, Kind: ActInjectGray, Issue: int(faults.GrayPartialRTT), Host: 1, Rail: 0,
		}}},
		Injections: map[int]*faults.Injection{0: {
			Type:       faults.IssueType(101), // gray offset range
			At:         10 * time.Minute,
			Components: []component.ID{comp},
		}},
	}
	// In-window but mis-localized: counts for precision, not recall.
	wrong := []analyzer.Alarm{{
		At:       11 * time.Minute,
		Verdicts: []localize.Verdict{{Components: []component.ID{"switch/tor/9/9"}}},
	}}
	sc := ScoreGray(log, wrong, nil)
	if sc.GrayRecall != 0 || sc.HardRecall != 0 {
		t.Fatalf("mis-localized alarm scored as caught: %+v", sc)
	}
	if sc.Precision != 1 {
		t.Fatalf("in-window alarm scored as false positive: precision %v", sc.Precision)
	}

	// A correlate alarm naming the component catches the injection; a
	// pre-onset alarm is a false positive.
	gray := []correlate.Alarm{
		{Seq: 1, Component: comp, At: 12 * time.Minute},
		{Seq: 1, Component: comp, At: 12 * time.Minute}, // re-delivered: counted once
		{Seq: 2, Component: comp, At: 5 * time.Minute},  // pre-onset
	}
	sc = ScoreGray(log, nil, gray)
	if sc.GrayRecall != 1 || sc.HardRecall != 0 {
		t.Fatalf("recall: %+v", sc)
	}
	if len(sc.Injections) != 1 || !sc.Injections[0].Caught || sc.Injections[0].CaughtBy != "correlate" {
		t.Fatalf("correlate catch not scored: %+v", sc.Injections)
	}
	if sc.Injections[0].LatencySec != 120 {
		t.Fatalf("latency = %v s, want 120", sc.Injections[0].LatencySec)
	}
	if sc.Precision != 0.5 {
		t.Fatalf("precision = %v, want 0.5 (1 TP, 1 pre-onset FP)", sc.Precision)
	}
}

// TestAcceptSetFromAction pins the accept-set rules derived from the
// action: a switch-targeted gray fault also accepts the switch, and an
// injection on an attach link also accepts the RNIC at its host end.
func TestAcceptSetFromAction(t *testing.T) {
	fab := testFabric(t)
	tor := fab.ToR(0, 1)
	droop := Action{Kind: ActInjectGray, Issue: int(faults.GrayCongestionDroop), Switch: tor}
	acc := acceptSet(droop, &faults.Injection{Components: []component.ID{component.SwitchConfig(tor)}})
	if !acc[component.SwitchConfig(tor)] || !acc[component.Switch(tor)] || len(acc) != 2 {
		t.Fatalf("switch gray accept set = %v", acc)
	}
	link := attachLink(fab, 3, 6)
	down := Action{Kind: ActInject, Issue: int(faults.SwitchPortDown), Link: link}
	acc = acceptSet(down, &faults.Injection{Components: []component.ID{component.Link(link)}})
	if !acc[component.Link(link)] || !acc[component.RNIC(3, 6)] || len(acc) != 2 {
		t.Fatalf("attach-link accept set = %v", acc)
	}
	rnic := Action{Kind: ActInject, Issue: int(faults.RNICPortDown), Host: 3, Rail: 6}
	if acc = acceptSet(rnic, &faults.Injection{Components: []component.ID{component.RNIC(3, 6)}}); len(acc) != 1 {
		t.Fatalf("RNIC accept set widened: %v", acc)
	}
}
