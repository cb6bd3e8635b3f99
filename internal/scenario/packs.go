package scenario

import (
	"math/rand"
	"sort"
	"time"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/detect"
	"skeletonhunter/internal/faults"
	"skeletonhunter/internal/hunter"
	"skeletonhunter/internal/parallelism"
	"skeletonhunter/internal/topology"
	"skeletonhunter/internal/trace"
)

// PackNames lists the shipped packs in canonical order.
var PackNames = []string{"flap-ghost", "rdma-mask", "churn-replay"}

// Pack builds the named pack's schedule (see FlapGhost, RDMAMask,
// ChurnReplay); false for an unknown name.
func Pack(name string, fab *topology.Fabric, seed int64) (*Schedule, bool) {
	switch name {
	case "flap-ghost":
		return FlapGhost(fab, seed), true
	case "rdma-mask":
		return RDMAMask(fab, seed), true
	case "churn-replay":
		return ChurnReplay(fab, seed, fab.Hosts()), true
	}
	return nil, false
}

// PackSpec is the fabric the packs are built for and played on: one pod
// of hosts hosts on 8 rails.
func PackSpec(hosts int) topology.Spec {
	return topology.Spec{Pods: 1, HostsPerPod: hosts, Rails: 8, AggPerPod: 2}
}

// PackOptions configures the deployment a pack is played on. The
// timescale is compressed to match the packs' 30 s-scale faults: flap
// down-windows average 30 s, so the detector folds 10 s windows at a
// 10 s analysis cadence.
func PackOptions(seed int64, hosts int) hunter.Options {
	return hunter.Options{
		Seed: seed,
		Spec: PackSpec(hosts),
		Lag: cluster.LagModel{
			CreateLag:    func(r *rand.Rand, i int) time.Duration { return time.Duration(i) * time.Second },
			StartupDelay: func(r *rand.Rand) time.Duration { return 5 * time.Second },
			StopLag:      func(r *rand.Rand) time.Duration { return time.Second },
		},
		Detect:           detect.Config{ShortWindow: 10 * time.Second},
		AnalysisInterval: 10 * time.Second,
	}
}

// attachLink is the NIC→ToR link every probe from (host, rail)
// traverses — the packs' favorite fault surface, because symptoms are
// guaranteed whatever paths ECMP picks beyond the ToR.
func attachLink(fab *topology.Fabric, host, rail int) topology.LinkID {
	nic := topology.NIC{Host: host, Rail: rail}
	return topology.MakeLinkID(nic.ID(), fab.ToR(fab.PodOf(host), rail))
}

// event is a pack-construction intermediate: actions are drafted in
// whatever order is convenient, sorted by time, then resolved into a
// schedule with Ref indices pointing at the emitted positions.
type event struct {
	at   time.Duration
	act  Action
	win  int // flap-window (or generic open/close) key; -1 when unused
	open bool
}

// resolve time-sorts drafted events and rewrites window keys into Ref
// indices: the event that opens key k (an inject or submit) records
// its emitted position, and closing events (clear/finish/infer/train)
// point their Ref at it.
func resolve(s *Schedule, events []event) {
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })
	opened := map[int]int{}
	for _, e := range events {
		a := e.act
		a.At = e.at
		if e.win >= 0 {
			if e.open {
				opened[e.win] = len(s.Actions)
			} else {
				a.Ref = opened[e.win]
			}
		}
		s.Actions = append(s.Actions, a)
	}
}

// Flap+ghost pack timing.
const (
	flapHorizon   = 14 * time.Minute
	flapStormFrom = 2 * time.Minute
	flapStormSpan = 11 * time.Minute
	flapRefreshAt = 8 * time.Minute
	flapMeanUp    = 100 * time.Second
	flapMeanDown  = 30 * time.Second
)

// FlapGhost builds the flap+ghost pack: two NIC attach links flap for
// the whole campaign while the topology view the localizer consults
// has lost exactly those links (a flap storm corrupted the topology
// service's graph). The view refreshes mid-campaign; the scorer
// compares localization before and after the refresh against a clean
// arm (Strip ghost/refresh) to measure how far the stale view degraded
// it and whether it recovered.
//
// Ground truth: every down window is its own SwitchPortDown injection
// on the flapping link, producing exactly the adjacent/overlapping
// same-component windows metrics.Score merges into episodes.
func FlapGhost(fab *topology.Fabric, seed int64) *Schedule {
	s := &Schedule{Name: "flap-ghost", Seed: seed, Horizon: flapHorizon}
	links := []topology.LinkID{
		attachLink(fab, 0, 0),
		attachLink(fab, 1, 2%fab.Spec.Rails),
	}
	windows := FlapWindows(seed, links, flapStormSpan, flapMeanUp, flapMeanDown)

	var events []event
	// One 8-container task (64 GPUs) spanning hosts 0..7 keeps probe
	// traffic crossing the flapping attach links all campaign.
	events = append(events, event{at: 0, win: 0, open: true, act: Action{
		Kind: ActSubmit, TP: 8, PP: 4, DP: 2,
	}})
	events = append(events, event{at: flapStormFrom, win: -1, act: Action{
		Kind: ActGhostView, Links: links,
	}})
	events = append(events, event{at: flapRefreshAt, win: -1, act: Action{
		Kind: ActRefreshView,
	}})
	for wi, w := range windows {
		key := 1 + wi
		events = append(events, event{at: flapStormFrom + w.Start, win: key, open: true, act: Action{
			Kind: ActInject, Issue: int(faults.SwitchPortDown), Link: w.Link,
		}})
		end := flapStormFrom + w.End
		if end > flapHorizon {
			end = flapHorizon
		}
		events = append(events, event{at: end, win: key, act: Action{Kind: ActClear}})
	}
	resolve(s, events)
	return s
}

// RDMA-mask pack timing and loss staircase.
const (
	rdmaHorizon  = 12 * time.Minute
	rdmaIterBase = 10 * time.Second
)

// rdmaSteps is the escalating loss staircase: the first step hides
// entirely behind the retry budget, the second is mostly masked per
// probe but inflates retried RTTs enough for latency detection, the
// third outruns the budget and collapses the collective phase.
var rdmaSteps = []struct {
	at   time.Duration
	loss float64
}{
	{2 * time.Minute, 0.03},
	{5 * time.Minute, 0.12},
	{9 * time.Minute, 0.90},
}

// RDMAMask builds the rdma-mask pack: transport-level retry masks an
// escalating-loss link under a running collective job. Ground truth is
// the loss staircase (adjacent same-component windows); the workload
// truth is the collective job's collapse time, which the scorer gates
// detection latency against — an alarm only after the job died is a
// failed pack.
//
// The lossy link is chosen off the task's own skeleton: the smallest
// skeleton pair endpoint maps (first-fit placement of the campaign's
// first task) to a (host, rail) whose attach link the collective
// provably crosses.
func RDMAMask(fab *topology.Fabric, seed int64) *Schedule {
	s := &Schedule{Name: "rdma-mask", Seed: seed, Horizon: rdmaHorizon}
	par := parallelism.Config{TP: 8, PP: 4, DP: 2}
	lossLink := attachLink(fab, 0, 0)
	if pairs, err := parallelism.SkeletonPairs(par, 8); err == nil {
		best, found := [2]parallelism.Endpoint{}, false
		for p := range pairs {
			if !found || p[0].Container < best[0].Container ||
				(p[0].Container == best[0].Container && p[0].Rail < best[0].Rail) {
				best, found = p, true
			}
		}
		if found {
			lossLink = attachLink(fab, best[0].Container, best[0].Rail)
		}
	}

	var events []event
	events = append(events, event{at: 0, win: 0, open: true, act: Action{
		Kind: ActSubmit, TP: par.TP, PP: par.PP, DP: par.DP,
	}})
	// RetryLatency trades off against trainsim's slowdown model: each
	// failed attempt adds ~6× the healthy RTT, enough for latency
	// detection to notice retried probes, while keeping the collective
	// iteration stretch bounded so iterations keep landing (and the
	// timeout clock keeps ticking) through the final loss step.
	events = append(events, event{at: 30 * time.Second, win: -1, act: Action{
		Kind: ActTransport, Retries: 2, RetryLatency: 100 * time.Microsecond,
	}})
	events = append(events, event{at: 45 * time.Second, win: 0, act: Action{
		Kind: ActTrain, Window: rdmaIterBase,
	}})
	for si, step := range rdmaSteps {
		key := 1 + si
		if si > 0 {
			events = append(events, event{at: step.at, win: si, act: Action{Kind: ActClear}})
		}
		events = append(events, event{at: step.at, win: key, open: true, act: Action{
			Kind: ActInjectLoss, Link: lossLink, Loss: step.loss,
		}})
	}
	resolve(s, events)
	return s
}

// Churn-replay pack timing.
const (
	churnHorizon = 14 * time.Minute
	churnWaves   = 3
	// churnInferWindow is the synthesized observation window skeleton
	// inference consumes; it must cover at least one STFT frame of the
	// 1 Hz traffic series (skeleton.Options defaults).
	churnInferWindow = 900 * time.Second
)

// ChurnReplay builds the churn-replay pack: trace-driven bursty
// container churn — waves of submissions with mixed tenant sizes and
// lognormal lifetimes drawn from the production distributions
// (internal/trace), skeleton inference mid-churn — while two hard
// faults land on a long-lived anchor task. The scorer checks the hard
// faults are still caught (recall/TTD) and that the churn itself —
// graceful finishes, startup waves — does not masquerade as failures
// (precision).
//
// hosts bounds the fleet the waves are sized against so the pack never
// submits beyond capacity.
func ChurnReplay(fab *topology.Fabric, seed int64, hosts int) *Schedule {
	s := &Schedule{Name: "churn-replay", Seed: seed, Horizon: churnHorizon}
	rng := rand.New(rand.NewSource(seed))

	var events []event
	// Anchor task: 4 containers on hosts 0..3, alive all campaign.
	events = append(events, event{at: 0, win: 0, open: true, act: Action{
		Kind: ActSubmit, TP: 8, PP: 2, DP: 2,
	}})

	// Churn waves: bursts of mixed-size tenants with trace lifetimes.
	budget := hosts - 4
	key := 1
	for wave := 0; wave < churnWaves; wave++ {
		waveAt := time.Duration(1+4*wave) * time.Minute
		waveBudget := budget / 2
		for task := 0; task < 4 && waveBudget > 0; task++ {
			gpus := trace.JobGPUs(rng)
			containers := gpus / 8
			if containers < 2 {
				containers = 2
			}
			if containers > 8 {
				containers = 8
			}
			if containers > waveBudget {
				containers = waveBudget
			}
			if containers < 2 {
				break
			}
			waveBudget -= containers
			size := trace.SizeSmall
			if containers >= 4 {
				size = trace.SizeMedium
			}
			lifetime := trace.Lifetime(rng, size) / 10
			if lifetime < 2*time.Minute {
				lifetime = 2 * time.Minute
			}
			if lifetime > 8*time.Minute {
				lifetime = 8 * time.Minute
			}
			// Bursty arrival: tasks of a wave land seconds apart.
			at := waveAt + time.Duration(task)*time.Duration(5+rng.Intn(20))*time.Second
			tkey := key
			key++
			events = append(events, event{at: at, win: tkey, open: true, act: Action{
				Kind: ActSubmit, TP: 8, PP: 2, DP: containers / 2, Lifetime: lifetime,
			}})
			// The first tenant of a wave alternates between the two
			// mid-flight exercises — skeleton inference on even waves,
			// operator-initiated teardown on odd — so both paths run
			// even when the host budget only admits one tenant per
			// wave; later tenants of a roomy wave also get torn down.
			if task == 0 && wave%2 == 0 {
				events = append(events, event{at: at + 90*time.Second, win: tkey, act: Action{
					Kind: ActInfer, Window: churnInferWindow,
				}})
			} else {
				events = append(events, event{at: at + 2*time.Minute, win: tkey, act: Action{
					Kind: ActFinish,
				}})
			}
		}
	}

	// Hard faults mid-churn, on the anchor's hosts so detectability
	// does not depend on which churn tenants happen to be alive.
	faultKey := key
	events = append(events, event{at: 6 * time.Minute, win: faultKey, open: true, act: Action{
		Kind: ActInject, Issue: int(faults.SwitchPortDown), Link: attachLink(fab, 0, 1%fab.Spec.Rails),
	}})
	events = append(events, event{at: 8 * time.Minute, win: faultKey, act: Action{Kind: ActClear}})
	events = append(events, event{at: 10 * time.Minute, win: faultKey + 1, open: true, act: Action{
		Kind: ActInject, Issue: int(faults.RNICPortDown), Host: 1, Rail: 1 % fab.Spec.Rails,
	}})
	events = append(events, event{at: 12 * time.Minute, win: faultKey + 1, act: Action{Kind: ActClear}})

	resolve(s, events)
	return s
}

// Gray-mix timing: the detectors calibrate on a healthy fleet, then
// the faults land and are measured over ~24 analysis rounds — enough
// for drift accumulation and chain support without letting the ramp
// grow into a hard failure.
const (
	grayMixInjectAt = 5 * time.Minute
	grayMixHorizon  = 9 * time.Minute
)

// GrayMix builds the second-layer detector's campaign: the fleet is
// filled with 4-host TP8/PP2/DP2 tenants, then three gray faults (a
// ramped ToR, a subtly slow RNIC, a blinking attach link) land beside
// two hard faults the first layer is tuned for. It is not a pack: it
// is played on topology.Production fabrics, with and without the
// correlate layer armed.
func GrayMix(fab *topology.Fabric, seed int64) *Schedule {
	s := &Schedule{Name: "gray-mix", Seed: seed, Horizon: grayMixHorizon}
	hosts := fab.Hosts()
	for i := 0; i < hosts/4; i++ {
		s.Actions = append(s.Actions, Action{Kind: ActSubmit, TP: 8, PP: 2, DP: 2})
	}
	at := grayMixInjectAt
	s.Actions = append(s.Actions,
		Action{At: at, Kind: ActInjectGray, Issue: int(faults.GrayCongestionDroop), Switch: fab.ToR(0, 1)},
		Action{At: at, Kind: ActInjectGray, Issue: int(faults.GrayPartialRTT), Host: hosts / 4, Rail: 2},
		Action{At: at, Kind: ActInjectGray, Issue: int(faults.GrayFlappingLink), Link: attachLink(fab, hosts/2, 0)},
		Action{At: at, Kind: ActInject, Issue: int(faults.RNICPortDown), Host: hosts - 2, Rail: 4},
		Action{At: at, Kind: ActInject, Issue: int(faults.SwitchPortDown), Link: attachLink(fab, hosts-5, 6)},
	)
	return s
}

// FleetFill builds the fleet-scale campaign: hosts/12 TP8/PP4/DP3
// tenants fill the fabric at t = 0 (96 GPUs = 12 hosts against 32-host
// pods, so every third task straddles a pod boundary and its same-rail
// probes fan out across the full agg²×spine ECMP set), then at
// injectAt an RNIC, a ToR port and an agg switch fail at once — host-,
// port- and switch-scoped faults active together. With gray, a ToR
// whose latency ramps from zero and an RNIC a few µs slow land beside
// them: signals only the correlate layer is built to surface.
func FleetFill(fab *topology.Fabric, seed int64, injectAt, horizon time.Duration, gray bool) *Schedule {
	name := "fleet-fill"
	if gray {
		name += "-gray"
	}
	s := &Schedule{Name: name, Seed: seed, Horizon: horizon}
	hosts := fab.Hosts()
	for i := 0; i < hosts/12; i++ {
		s.Actions = append(s.Actions, Action{Kind: ActSubmit, TP: 8, PP: 4, DP: 3})
	}
	s.Actions = append(s.Actions,
		Action{At: injectAt, Kind: ActInject, Issue: int(faults.RNICPortDown), Host: hosts / 3, Rail: 3},
		Action{At: injectAt, Kind: ActInject, Issue: int(faults.SwitchPortDown), Link: attachLink(fab, hosts/2, 5)},
		Action{At: injectAt, Kind: ActInject, Issue: int(faults.SwitchOffline), Switch: fab.Agg(0, 1)},
	)
	if gray {
		s.Actions = append(s.Actions,
			Action{At: injectAt, Kind: ActInjectGray, Issue: int(faults.GrayCongestionDroop), Switch: fab.ToR(0, 1)},
			Action{At: injectAt, Kind: ActInjectGray, Issue: int(faults.GrayPartialRTT), Host: hosts / 4, Rail: 2},
		)
	}
	return s
}

// Heal-trio timing: the task trains healthy for healInjectAt, then the
// faults land with enough quiet time after them for every repair to
// plan, execute, verify and commit.
const (
	healInjectAt = 7 * time.Minute
	healHorizon  = 25 * time.Minute
)

// HealTrio builds the self-healing campaign on an empty fabric: one
// 4-host TP8/PP2/DP2 task at t = 0 — first-fit placement puts its
// container i on host i — then at healInjectAt an RNIC hard-down on
// host 0 rail 0, a ToR-side port down on host 1's rail-3 link, and a
// drifted RNIC offload table on host 2 rail 5: three distinct task
// hosts, three different repair plays.
func HealTrio(fab *topology.Fabric, seed int64) *Schedule {
	return &Schedule{Name: "heal-trio", Seed: seed, Horizon: healHorizon, Actions: []Action{
		{Kind: ActSubmit, TP: 8, PP: 2, DP: 2},
		{At: healInjectAt, Kind: ActInject, Issue: int(faults.RNICPortDown), Host: 0, Rail: 0},
		{At: healInjectAt, Kind: ActInject, Issue: int(faults.SwitchPortDown), Link: attachLink(fab, 1, 3)},
		{At: healInjectAt, Kind: ActInject, Issue: int(faults.OffloadingFailure), Host: 2, Rail: 5},
	}}
}
