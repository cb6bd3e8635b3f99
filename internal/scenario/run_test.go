package scenario

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/faults"
	"skeletonhunter/internal/hunter"
	"skeletonhunter/internal/topology"
)

func fastLag() cluster.LagModel {
	return cluster.LagModel{
		CreateLag:    func(r *rand.Rand, i int) time.Duration { return time.Duration(i) * time.Second },
		StartupDelay: func(r *rand.Rand) time.Duration { return 5 * time.Second },
		StopLag:      func(r *rand.Rand) time.Duration { return time.Second },
	}
}

func testDeployment(t *testing.T, seed int64) *hunter.Deployment {
	t.Helper()
	d, err := hunter.New(hunter.Options{
		Seed:             seed,
		Spec:             topology.Spec{Pods: 1, HostsPerPod: 8, Rails: 8, AggPerPod: 2},
		Lag:              fastLag(),
		AnalysisInterval: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("hunter.New: %v", err)
	}
	return d
}

// miniSchedule exercises every action kind on one small deployment.
func miniSchedule(fab *topology.Fabric) *Schedule {
	link := attachLink(fab, 0, 0)
	return &Schedule{
		Name:    "mini",
		Seed:    5,
		Horizon: 5 * time.Minute,
		Actions: []Action{
			{At: 0, Kind: ActSubmit, TP: 8, PP: 2, DP: 2},
			{At: 10 * time.Second, Kind: ActTransport, Retries: 1, RetryLatency: 500 * time.Microsecond},
			{At: 20 * time.Second, Kind: ActGhostView, Links: []topology.LinkID{link}},
			{At: 30 * time.Second, Kind: ActTrain, Ref: 0, Window: 10 * time.Second},
			{At: 40 * time.Second, Kind: ActNoop},
			{At: time.Minute, Kind: ActInject, Issue: int(faults.SwitchPortDown), Link: link},
			{At: 2 * time.Minute, Kind: ActRefreshView},
			{At: 2*time.Minute + 30*time.Second, Kind: ActClear, Ref: 5},
			{At: 3 * time.Minute, Kind: ActInjectLoss, Link: link, Loss: 0.3},
			{At: 3*time.Minute + 30*time.Second, Kind: ActClear, Ref: 8},
			{At: 4 * time.Minute, Kind: ActInfer, Ref: 0, Window: 900 * time.Second},
			{At: 4*time.Minute + 30*time.Second, Kind: ActTransport}, // disarm retry
			{At: 4*time.Minute + 40*time.Second, Kind: ActFinish, Ref: 0},
			{At: 4*time.Minute + 45*time.Second, Kind: ActInjectGray, Issue: int(faults.GrayCongestionDroop), Switch: fab.ToR(0, 1)},
			{At: 4*time.Minute + 50*time.Second, Kind: ActClear, Ref: 13},
		},
	}
}

func TestRunMiniSchedule(t *testing.T) {
	d := testDeployment(t, 11)
	s := miniSchedule(d.Fabric)
	log, err := Run(d, s)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(log.Errs) != 0 {
		t.Fatalf("scenario errors: %v", log.Errs)
	}
	if log.Tasks[0] == nil {
		t.Fatal("submit action recorded no task")
	}
	if log.Jobs[3] == nil {
		t.Fatal("train action recorded no job")
	}
	if !log.HasGhost || log.GhostAt != 20*time.Second {
		t.Fatalf("ghost phase %v/%v, want 20s/true", log.GhostAt, log.HasGhost)
	}
	if !log.HasRefresh || log.RefreshAt != 2*time.Minute {
		t.Fatalf("refresh phase %v/%v, want 2m/true", log.RefreshAt, log.HasRefresh)
	}
	if log.Inferences != 1 || log.InferErrs != 0 {
		t.Fatalf("inferences %d/%d errs, want 1/0", log.Inferences, log.InferErrs)
	}
	if d.Localizer.View != nil {
		t.Fatal("refresh-view did not clear the localizer view")
	}
	if d.Net.TransportConfig() != nil {
		t.Fatal("zero-valued transport action did not disarm retry")
	}

	// Ground truth landed in the injector's ledger, all cleared.
	injs := d.Injector.Injections()
	if len(injs) != 3 {
		t.Fatalf("%d injections recorded, want 3", len(injs))
	}
	for i, in := range injs {
		if !in.Cleared {
			t.Fatalf("injection %d never cleared", i)
		}
	}
	if injs[1].Type != faults.ScenarioLinkLoss {
		t.Fatalf("loss injection type = %v", injs[1].Type)
	}
	if !injs[2].IsGray() || log.Injections[13] != injs[2] {
		t.Fatalf("inject-gray recorded %+v, want the gray injection at action 13", injs[2])
	}
}

func TestRunMiniScheduleDeterministic(t *testing.T) {
	fp := func() string {
		d := testDeployment(t, 11)
		if _, err := Run(d, miniSchedule(d.Fabric)); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return d.Fingerprint()
	}
	a, b := fp(), fp()
	if a != b {
		t.Fatalf("identical runs fingerprint differently:\n%s\n%s", a, b)
	}
}

func TestInstallRejectsInvalidSchedule(t *testing.T) {
	d := testDeployment(t, 11)
	s := miniSchedule(d.Fabric)
	s.Horizon = 0
	if _, err := Install(d, s); err == nil {
		t.Fatal("Install accepted an invalid schedule")
	}
}

func TestRunRecordsActionFailures(t *testing.T) {
	d := testDeployment(t, 11)
	s := &Schedule{
		Name:    "broken",
		Seed:    1,
		Horizon: time.Minute,
		Actions: []Action{
			// Inject with an issue number the catalog does not know:
			// the action fails, and the clear that refs it fails too.
			{At: time.Second, Kind: ActInject, Issue: 9999, Link: "a->b"},
			{At: 2 * time.Second, Kind: ActClear, Ref: 0},
		},
	}
	log, err := Run(d, s)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(log.Errs) != 2 {
		t.Fatalf("errs = %v, want 2 entries", log.Errs)
	}
	if !strings.Contains(log.Errs[1], "never injected") {
		t.Fatalf("clear error not recorded: %v", log.Errs)
	}
}
