// Scenario-pack acceptance: the three adversarial campaigns of
// internal/scenario run end to end on a real deployment, their ground
// truth is scored, and the campaign outcome is bit-identical across
// round-engine worker counts and across a mid-campaign controller
// crash/recovery. External test package: internal/scenario imports
// hunter, so these tests must sit outside package hunter to avoid an
// import cycle.
package hunter_test

import (
	"testing"
	"time"

	"skeletonhunter/internal/hunter"
	"skeletonhunter/internal/scenario"
	"skeletonhunter/internal/topology"
)

// packSeed pins every acceptance campaign: the packs are deterministic
// per seed, so the assertions below are exact, not statistical.
const packSeed = 7

type packOptions struct {
	workers            int
	checkpointInterval time.Duration
}

// packDeployment builds the deployment `cmd/bench -campaign scenarios`
// plays the packs on (scenario.PackOptions), so these acceptance tests
// and the CI gate cannot drift apart.
func packDeployment(t *testing.T, o packOptions) *hunter.Deployment {
	t.Helper()
	opts := scenario.PackOptions(packSeed, 8)
	opts.Workers = o.workers
	opts.CheckpointInterval = o.checkpointInterval
	d, err := hunter.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// runPack plays one pack (or a pre-built schedule) to its horizon and
// returns the deployment and run log for scoring.
func runPack(t *testing.T, s *scenario.Schedule, o packOptions) (*hunter.Deployment, *scenario.RunLog) {
	t.Helper()
	d := packDeployment(t, o)
	log, err := scenario.Run(d, s)
	if err != nil {
		t.Fatal(err)
	}
	return d, log
}

func packSchedule(t *testing.T, name string) *scenario.Schedule {
	t.Helper()
	fab, err := topology.New(scenario.PackSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	s, ok := scenario.Pack(name, fab, packSeed)
	if !ok {
		t.Fatalf("unknown pack %q", name)
	}
	return s
}

// TestFlapGhostAcceptance is the flap+ghost pack's deterministic
// acceptance run: while the stale view hides the flapping links,
// strict (localization) recall collapses relative to a clean arm with
// the identical fault schedule; once the view refreshes, it recovers
// to within 10 points of the clean arm's same-phase recall — the
// `cmd/bench -campaign scenarios` CI gate, asserted here at the unit
// level.
func TestFlapGhostAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("14-minute simulated campaign")
	}
	s := packSchedule(t, "flap-ghost")
	clean := s.Strip(scenario.ActGhostView, scenario.ActRefreshView)

	gd, glog := runPack(t, s, packOptions{})
	cd, _ := runPack(t, clean, packOptions{})

	if !glog.HasGhost || !glog.HasRefresh {
		t.Fatalf("ghost/refresh never fired: %+v", glog)
	}
	ghostFrom, ghostTo := glog.GhostAt, glog.RefreshAt
	postFrom, postTo := glog.RefreshAt, s.Horizon

	ghostPhase := scenario.FlapPhaseRecall(gd.Injector.Injections(), gd.Analyzer.Alarms(), ghostFrom, ghostTo)
	cleanGhostPhase := scenario.FlapPhaseRecall(cd.Injector.Injections(), cd.Analyzer.Alarms(), ghostFrom, ghostTo)
	post := scenario.FlapPhaseRecall(gd.Injector.Injections(), gd.Analyzer.Alarms(), postFrom, postTo)
	cleanPost := scenario.FlapPhaseRecall(cd.Injector.Injections(), cd.Analyzer.Alarms(), postFrom, postTo)

	// The stale view must actually hurt: localization during the ghost
	// phase falls well below the clean arm's.
	if cleanGhostPhase == 0 {
		t.Fatalf("clean arm localized nothing in the ghost phase (recall %v) — pack miscalibrated", cleanGhostPhase)
	}
	if ghostPhase >= cleanGhostPhase {
		t.Fatalf("ghost view did not degrade localization: ghost %v ≥ clean %v", ghostPhase, cleanGhostPhase)
	}
	// The CI gate: post-refresh recall recovers to within 10 points of
	// the clean arm's same-phase recall.
	if post < cleanPost-0.10 {
		t.Fatalf("post-refresh recall %v did not recover to within 10%% of clean arm %v", post, cleanPost)
	}
}

// TestRDMAMaskAcceptance is the rdma-mask pack's deterministic
// acceptance run: the loss staircase under transport retry collapses
// the collective job, and at least one ground-truth episode is
// detected strictly before the collapse — the `cmd/bench -campaign scenarios` CI gate.
func TestRDMAMaskAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("12-minute simulated campaign")
	}
	s := packSchedule(t, "rdma-mask")
	d, log := runPack(t, s, packOptions{})

	if len(log.Jobs) == 0 {
		t.Fatalf("no collective job started: errs %v", log.Errs)
	}
	collapse, collapsed := log.CollapseAt()
	if !collapsed {
		t.Fatal("loss staircase never collapsed the collective job")
	}
	// The collapse belongs to the final (past-retry-budget) step.
	if collapse < 9*time.Minute {
		t.Fatalf("collective collapsed at %v, before the 9m step that outruns the retry budget", collapse)
	}
	if !scenario.PreCollapseDetection(d.Injector.Injections(), d.Analyzer.Alarms(), collapse) {
		t.Fatalf("no episode detected before the collapse at %v (the SHIFT failure mode)", collapse)
	}
}

// TestChurnReplayAcceptance is the churn-replay pack's deterministic
// acceptance run: trace-driven container churn neither hides the two
// hard faults (recall) nor masquerades as failures (precision).
func TestChurnReplayAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("14-minute simulated campaign")
	}
	s := packSchedule(t, "churn-replay")
	d, log := runPack(t, s, packOptions{})

	if len(log.Errs) != 0 {
		t.Fatalf("scenario errors: %v", log.Errs)
	}
	if log.Inferences == 0 {
		t.Fatal("churn never exercised skeleton inference")
	}
	ps := scenario.ScorePack(log, d.Injector.Injections(), d.Analyzer.Alarms())
	if ps.Episodes != 2 {
		t.Fatalf("episodes = %d, want 2 hard-fault episodes", ps.Episodes)
	}
	if ps.Recall != 1 {
		t.Fatalf("hard faults lost in the churn: recall %v (score %+v)", ps.Recall, ps)
	}
	if ps.Precision != 1 {
		t.Fatalf("churn produced false alarms: precision %v (score %+v)", ps.Precision, ps)
	}
}

// TestScenarioPackWorkerDeterminism is the metamorphic battery's first
// axis: every pack's outcome fingerprint — alarms, blacklist,
// incidents — is bit-identical at 1, 4, and 16 round-engine workers.
func TestScenarioPackWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("nine simulated campaigns")
	}
	for _, name := range scenario.PackNames {
		t.Run(name, func(t *testing.T) {
			s := packSchedule(t, name)
			d1, _ := runPack(t, s, packOptions{workers: 1})
			want := d1.Fingerprint()
			for _, workers := range []int{4, 16} {
				d, _ := runPack(t, s, packOptions{workers: workers})
				if got := d.Fingerprint(); got != want {
					t.Fatalf("pack %s fingerprint diverges at %d workers:\n  1:  %s\n  %d: %s",
						name, workers, want, workers, got)
				}
			}
		})
	}
}

// TestScenarioPackCrashDeterminism is the battery's second axis: a
// mid-campaign controller crash and checkpoint recovery is itself
// deterministic — two crashed replays of the same pack land on the
// same fingerprint — and the crash completes (the campaign does not
// wedge against a dead controller).
func TestScenarioPackCrashDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("six simulated campaigns")
	}
	crashed := func(name string) string {
		s := packSchedule(t, name)
		d := packDeployment(t, packOptions{checkpointInterval: 2 * time.Minute})
		if _, err := scenario.Install(d, s); err != nil {
			t.Fatal(err)
		}
		// Crash after the 6:00 checkpoint, mid-campaign for every pack
		// (horizons are 12–14 m), recover after 60 s of downtime.
		rec := d.ScheduleControllerCrash(7*time.Minute+10*time.Second, time.Minute)
		d.Run(s.Horizon)
		if !rec.Crashed || !rec.Restored {
			t.Fatalf("pack %s crash did not complete: %+v", name, rec)
		}
		return d.Fingerprint()
	}
	for _, name := range scenario.PackNames {
		t.Run(name, func(t *testing.T) {
			a := crashed(name)
			b := crashed(name)
			if a != b {
				t.Fatalf("pack %s crash recovery not deterministic:\n  %s\n  %s", name, a, b)
			}
		})
	}
}
