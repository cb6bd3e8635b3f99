package scenario

import (
	"reflect"
	"testing"
	"time"

	"skeletonhunter/internal/faults"
	"skeletonhunter/internal/topology"
)

func testFabric(t *testing.T) *topology.Fabric {
	t.Helper()
	fab, err := topology.New(topology.Spec{Pods: 1, HostsPerPod: 8, Rails: 8, AggPerPod: 2})
	if err != nil {
		t.Fatalf("fabric: %v", err)
	}
	return fab
}

func validSchedule() *Schedule {
	return &Schedule{
		Name:    "test",
		Seed:    1,
		Horizon: 10 * time.Minute,
		Actions: []Action{
			{At: 0, Kind: ActSubmit, TP: 8, PP: 2, DP: 2},
			{At: 30 * time.Second, Kind: ActInject, Issue: int(faults.SwitchPortDown), Link: "nic/h0/r0->tor/p0/r0"},
			{At: time.Minute, Kind: ActClear, Ref: 1},
			{At: 2 * time.Minute, Kind: ActInjectLoss, Link: "nic/h0/r0->tor/p0/r0", Loss: 0.5},
			{At: 3 * time.Minute, Kind: ActClear, Ref: 3},
			{At: 4 * time.Minute, Kind: ActInfer, Ref: 0, Window: time.Minute},
			{At: 5 * time.Minute, Kind: ActTrain, Ref: 0, Window: 10 * time.Second},
			{At: 6 * time.Minute, Kind: ActGhostView, Links: []topology.LinkID{"a->b"}},
			{At: 7 * time.Minute, Kind: ActRefreshView},
			{At: 8 * time.Minute, Kind: ActTransport, Retries: 2, RetryLatency: time.Millisecond},
			{At: 9 * time.Minute, Kind: ActFinish, Ref: 0},
			{At: 9 * time.Minute, Kind: ActInjectGray, Issue: int(faults.GrayCongestionDroop), Switch: "tor/p0/r1"},
			{At: 10 * time.Minute, Kind: ActClear, Ref: 11},
		},
	}
}

func TestValidateAcceptsWellFormedSchedule(t *testing.T) {
	if err := validSchedule().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	mut := func(f func(*Schedule)) *Schedule {
		s := validSchedule()
		f(s)
		return s
	}
	cases := []struct {
		name string
		s    *Schedule
	}{
		{"zero horizon", mut(func(s *Schedule) { s.Horizon = 0 })},
		{"huge horizon", mut(func(s *Schedule) { s.Horizon = MaxHorizon + 1 })},
		{"long name", mut(func(s *Schedule) { s.Name = string(make([]byte, MaxNameLen+1)) })},
		{"unknown kind", mut(func(s *Schedule) { s.Actions[0].Kind = "explode" })},
		{"negative time", mut(func(s *Schedule) { s.Actions[0].At = -time.Second })},
		{"past horizon", mut(func(s *Schedule) { s.Actions[len(s.Actions)-1].At = s.Horizon + 1 })},
		{"unsorted", mut(func(s *Schedule) { s.Actions[1].At = s.Horizon })},
		{"inject without issue", mut(func(s *Schedule) { s.Actions[1].Issue = 0 })},
		{"inject-gray unknown kind", mut(func(s *Schedule) { s.Actions[11].Issue = 99 })},
		{"loss without link", mut(func(s *Schedule) { s.Actions[3].Link = "" })},
		{"loss above one", mut(func(s *Schedule) { s.Actions[3].Loss = 1.5 })},
		{"clear refs self", mut(func(s *Schedule) { s.Actions[2].Ref = 2 })},
		{"clear refs later action", mut(func(s *Schedule) { s.Actions[2].Ref = 5 })},
		{"clear refs submit", mut(func(s *Schedule) { s.Actions[2].Ref = 0 })},
		{"finish refs inject", mut(func(s *Schedule) { s.Actions[10].Ref = 1 })},
		{"infer without window", mut(func(s *Schedule) { s.Actions[5].Window = 0 })},
		{"submit zero dp", mut(func(s *Schedule) { s.Actions[0].DP = 0 })},
		{"submit oversized", mut(func(s *Schedule) { s.Actions[0].TP, s.Actions[0].PP, s.Actions[0].DP = 64, 64, 64 })},
		{"submit negative lifetime", mut(func(s *Schedule) { s.Actions[0].Lifetime = -time.Second })},
		{"ghost without links", mut(func(s *Schedule) { s.Actions[7].Links = nil })},
		{"transport retries", mut(func(s *Schedule) { s.Actions[9].Retries = 17 })},
		{"transport latency", mut(func(s *Schedule) { s.Actions[9].RetryLatency = 2 * time.Second })},
	}
	for _, tc := range cases {
		if err := tc.s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", tc.name)
		}
	}
}

func TestStripPreservesPositionsAndRefs(t *testing.T) {
	s := validSchedule()
	clean := s.Strip(ActGhostView, ActRefreshView)
	if err := clean.Validate(); err != nil {
		t.Fatalf("stripped schedule invalid: %v", err)
	}
	if len(clean.Actions) != len(s.Actions) {
		t.Fatalf("Strip changed action count: %d != %d", len(clean.Actions), len(s.Actions))
	}
	for i, a := range clean.Actions {
		orig := s.Actions[i]
		if a.At != orig.At {
			t.Errorf("action %d time changed: %v != %v", i, a.At, orig.At)
		}
		switch orig.Kind {
		case ActGhostView, ActRefreshView:
			if a.Kind != ActNoop {
				t.Errorf("action %d not stripped: %s", i, a.Kind)
			}
			if len(a.Links) != 0 {
				t.Errorf("action %d noop retained links", i)
			}
		default:
			if !reflect.DeepEqual(a, orig) {
				t.Errorf("action %d mutated by Strip: %+v != %+v", i, a, orig)
			}
		}
	}
	// Original untouched.
	if s.Actions[7].Kind != ActGhostView {
		t.Fatal("Strip mutated the source schedule")
	}
}

func TestPackDispatcher(t *testing.T) {
	fab := testFabric(t)
	for _, name := range PackNames {
		s, ok := Pack(name, fab, 7)
		if !ok {
			t.Fatalf("Pack(%q) unknown", name)
		}
		if s.Name != name {
			t.Errorf("pack %q carries name %q", name, s.Name)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("pack %q invalid: %v", name, err)
		}
		if len(s.Actions) == 0 {
			t.Errorf("pack %q is empty", name)
		}
	}
	if _, ok := Pack("nonesuch", fab, 7); ok {
		t.Fatal("Pack accepted an unknown name")
	}
}

func TestPacksDeterministicPerSeed(t *testing.T) {
	fab := testFabric(t)
	for _, name := range PackNames {
		a, _ := Pack(name, fab, 42)
		b, _ := Pack(name, fab, 42)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("pack %q not deterministic for one seed", name)
		}
		ea, err := EncodeSchedule(a)
		if err != nil {
			t.Fatalf("encode %q: %v", name, err)
		}
		eb, _ := EncodeSchedule(b)
		if string(ea) != string(eb) {
			t.Errorf("pack %q encodings differ for one seed", name)
		}
	}
}

func TestFlapGhostSeedVariesWindows(t *testing.T) {
	fab := testFabric(t)
	a := FlapGhost(fab, 1)
	b := FlapGhost(fab, 2)
	if reflect.DeepEqual(a.Actions, b.Actions) {
		t.Fatal("different seeds produced identical flap schedules")
	}
}

func TestFlapGhostStructure(t *testing.T) {
	fab := testFabric(t)
	s := FlapGhost(fab, 7)
	var ghosts, refreshes, injects, clears int
	for i, a := range s.Actions {
		switch a.Kind {
		case ActGhostView:
			ghosts++
			if a.At != flapStormFrom {
				t.Errorf("ghost-view at %v, want %v", a.At, flapStormFrom)
			}
		case ActRefreshView:
			refreshes++
			if a.At != flapRefreshAt {
				t.Errorf("refresh-view at %v, want %v", a.At, flapRefreshAt)
			}
		case ActInject:
			injects++
			if a.Issue != int(faults.SwitchPortDown) {
				t.Errorf("action %d injects issue %d", i, a.Issue)
			}
		case ActClear:
			clears++
			ref := s.Actions[a.Ref]
			if ref.Kind != ActInject || a.At < ref.At {
				t.Errorf("action %d clear mis-referenced", i)
			}
		}
	}
	if ghosts != 1 || refreshes != 1 {
		t.Fatalf("ghost/refresh counts %d/%d, want 1/1", ghosts, refreshes)
	}
	if injects == 0 || injects != clears {
		t.Fatalf("inject/clear counts %d/%d", injects, clears)
	}
}

func TestRDMAMaskStructure(t *testing.T) {
	fab := testFabric(t)
	s := RDMAMask(fab, 7)
	var losses []float64
	var hasTransport, hasTrain bool
	for _, a := range s.Actions {
		switch a.Kind {
		case ActInjectLoss:
			losses = append(losses, a.Loss)
		case ActTransport:
			hasTransport = true
			if a.Retries <= 0 {
				t.Error("transport without retry budget")
			}
		case ActTrain:
			hasTrain = true
		}
	}
	if !hasTransport || !hasTrain {
		t.Fatalf("transport/train present = %v/%v", hasTransport, hasTrain)
	}
	if len(losses) != len(rdmaSteps) {
		t.Fatalf("%d loss steps, want %d", len(losses), len(rdmaSteps))
	}
	for i := 1; i < len(losses); i++ {
		if losses[i] <= losses[i-1] {
			t.Fatalf("loss staircase not escalating: %v", losses)
		}
	}
}

func TestChurnReplayStructure(t *testing.T) {
	fab := testFabric(t)
	s := ChurnReplay(fab, 7, fab.Hosts())
	var submits, infers, finishes, injects int
	for _, a := range s.Actions {
		switch a.Kind {
		case ActSubmit:
			submits++
		case ActInfer:
			infers++
		case ActFinish:
			finishes++
		case ActInject:
			injects++
		}
	}
	if submits < 2 {
		t.Fatalf("churn pack submitted %d tasks, want ≥ 2 (anchor + churn)", submits)
	}
	if injects != 2 {
		t.Fatalf("churn pack injected %d hard faults, want 2", injects)
	}
	if infers == 0 {
		t.Error("churn pack never infers a skeleton")
	}
	if finishes == 0 {
		t.Error("churn pack never finishes a tenant")
	}
}
