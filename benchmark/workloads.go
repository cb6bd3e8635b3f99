package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/correlate"
	"skeletonhunter/internal/detect"
	"skeletonhunter/internal/faults"
	"skeletonhunter/internal/hunter"
	"skeletonhunter/internal/remedy"
	"skeletonhunter/internal/scenario"
	"skeletonhunter/internal/topology"
	"skeletonhunter/internal/trace"
)

// interval is the analysis cadence and detector short window every
// workload runs at: one tick in ten carries an analysis round.
const interval = 10 * time.Second

// workload is one seeded campaign: a deployment configuration plus a
// generator that turns (seed, window length) into a scenario.Schedule
// and the harness-scheduled events a Schedule cannot express.
type workload struct {
	name string
	why  string
	// hosts sizes the fabric. ISSUE.md asks for 1024 on the fleet tier;
	// 512 is what fits the driver's 92-run budget (see README.md).
	hosts int
	// warmup is the number of one-second ticks run inside setup_s.
	warmup int
	// ticksPerSecond converts the -seconds budget into measured ticks.
	// Calibrated so the measured window is about -seconds of wall on the
	// 2-core reference box at the commit that defined the benchmark; the
	// run length is therefore a fixed number of ticks, never wall time.
	ticksPerSecond int
	// serial pins Workers to 1 (fleet-serial).
	serial bool
	// occupancyCap is the share of hosts the schedule may plan to use.
	occupancyCap float64
	lag          func() cluster.LagModel
	tune         func(o *hunter.Options)
	plan         func(fab *topology.Fabric, seed int64, warmup, ticks int) *campaign
}

// extraKind tags a harness-scheduled sim event.
type extraKind int

const (
	extraInfer   extraKind = iota // InferSkeleton on the task submitted at ref
	extraGray                     // InjectGray(gray, target)
	extraCrash                    // CrashController
	extraRecover                  // RecoverFromLast
)

type extra struct {
	at     time.Duration
	kind   extraKind
	ref    int
	gray   faults.GrayKind
	target faults.Target
}

// campaign is a generated run plan.
type campaign struct {
	sched  *scenario.Schedule
	extras []extra
	// peakHosts is the highest number of hosts the plan has reserved at
	// once, by the generator's own (conservative) occupancy ledger.
	peakHosts int
}

func fastestLag() cluster.LagModel {
	return cluster.LagModel{
		CreateLag:    func(*rand.Rand, int) time.Duration { return 0 },
		StartupDelay: func(*rand.Rand) time.Duration { return time.Second },
		StopLag:      func(*rand.Rand) time.Duration { return 0 },
	}
}

// phasedLag is the scenario packs' lag model: container i is created i
// seconds after submit, starts 5 s later, and stops 1 s after finish.
func phasedLag() cluster.LagModel {
	return cluster.LagModel{
		CreateLag:    func(_ *rand.Rand, i int) time.Duration { return time.Duration(i) * time.Second },
		StartupDelay: func(*rand.Rand) time.Duration { return 5 * time.Second },
		StopLag:      func(*rand.Rand) time.Duration { return time.Second },
	}
}

var workloads = []*workload{
	{
		name:           "fleet-steady",
		why:            "full fleet on basic ping lists: probe, ingest, barrier commit and drain dominate",
		hosts:          512,
		warmup:         20,
		ticksPerSecond: 8,
		occupancyCap:   1,
		lag:            fastestLag,
		plan:           planFleet,
	},
	{
		name:           "fleet-serial",
		why:            "same schedule with Workers=1: the inline path, and the denominator of the parallel speedup",
		hosts:          512,
		warmup:         20,
		ticksPerSecond: 8,
		serial:         true,
		occupancyCap:   1,
		lag:            fastestLag,
		plan:           planFleet,
	},
	{
		name:           "tenant-churn",
		why:            "Poisson tenant arrivals with phased starts and skeleton inference: per-group and control-plane cost, precision under churn",
		hosts:          512,
		warmup:         60,
		ticksPerSecond: 12,
		occupancyCap:   churnCap,
		lag:            phasedLag,
		plan:           planChurn,
	},
	{
		name:           "fault-storm",
		why:            "gray and hard faults, controller crashes and API reads: alarm fan-out, log reads, publish and recovery carry the load",
		hosts:          256,
		warmup:         60,
		ticksPerSecond: 8,
		occupancyCap:   1,
		lag:            fastestLag,
		tune: func(o *hunter.Options) {
			o.Correlate = &correlate.Config{Warmup: 6}
			o.Remedy = &remedy.Config{VerifyAfter: 30 * time.Second}
			o.CheckpointInterval = 30 * time.Second
		},
		plan: planStorm,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// sibling names the workload whose fingerprint must equal this one's.
func (w *workload) sibling() *workload {
	switch w.name {
	case "fleet-steady":
		return workloadByName("fleet-serial")
	case "fleet-serial":
		return workloadByName("fleet-steady")
	}
	return nil
}

func (w *workload) options(seed int64, hosts, workers int) hunter.Options {
	if w.serial {
		workers = 1
	}
	o := hunter.Options{
		Seed:             seed,
		Hosts:            hosts,
		Lag:              w.lag(),
		Workers:          workers,
		Detect:           detect.Config{ShortWindow: interval},
		AnalysisInterval: interval,
		// Every workload serves the read API in-process so that
		// api_get_ms_p50 exists everywhere; nothing connects to the port.
		HTTPAddr: "127.0.0.1:0",
	}
	if w.tune != nil {
		w.tune(&o)
	}
	return o
}

// tenant is the fleet-filling job shape scalebench uses: 12 containers
// against 32-host pods, so every third task straddles a pod boundary.
var tenant = scenario.Action{Kind: scenario.ActSubmit, TP: 8, PP: 4, DP: 3}

const tenantHosts = 12

func attachLink(fab *topology.Fabric, host, rail int) topology.LinkID {
	return topology.MakeLinkID(topology.NIC{Host: host, Rail: rail}.ID(), fab.ToR(fab.PodOf(host), rail))
}

// draft is a schedule under construction: actions are appended in any
// order with a key linking an opener (inject, submit) to its closer
// (clear), then time-sorted and resolved into Ref indices.
type draft struct {
	acts []draftAct
}

type draftAct struct {
	act  scenario.Action
	key  int // >0 links opener and closer; 0 when unused
	open bool
}

func (d *draft) add(at time.Duration, a scenario.Action) {
	a.At = at
	d.acts = append(d.acts, draftAct{act: a})
}

func (d *draft) open(at time.Duration, key int, a scenario.Action) {
	a.At = at
	d.acts = append(d.acts, draftAct{act: a, key: key, open: true})
}

func (d *draft) close(at time.Duration, key int, a scenario.Action) {
	a.At = at
	d.acts = append(d.acts, draftAct{act: a, key: key})
}

// schedule resolves the draft. refOf maps an opener's key to its
// emitted action index, for harness events that refer to a submit.
func (d *draft) schedule(name string, seed int64, horizon time.Duration) (s *scenario.Schedule, refOf map[int]int) {
	sort.SliceStable(d.acts, func(i, j int) bool { return d.acts[i].act.At < d.acts[j].act.At })
	s = &scenario.Schedule{Name: name, Seed: seed, Horizon: horizon}
	refOf = map[int]int{}
	for _, da := range d.acts {
		a := da.act
		if da.key > 0 {
			if da.open {
				refOf[da.key] = len(s.Actions)
			} else {
				a.Ref = refOf[da.key]
			}
		}
		s.Actions = append(s.Actions, a)
	}
	return s, refOf
}

func secs(n int) time.Duration { return time.Duration(n) * time.Second }

// scaled maps a time written for a reference window of ref ticks onto
// a window of n ticks, in whole seconds and at least one.
func scaled(x, ref, n int) int {
	v := x * n / ref
	if v < 1 {
		v = 1
	}
	return v
}

// planFleet fills the fabric with 12-container tenants at t=0 and, at
// the end of warm-up, injects one host-, one port- and one
// switch-scoped fault; they stay active all window. Hosts and pod come
// from the fixed mix; the seed rotates the rails and the agg switch.
func planFleet(fab *topology.Fabric, seed int64, warmup, ticks int) *campaign {
	mix := rand.New(rand.NewSource(tenantMixSeed))
	rail := func() int { return rotated(mix, seed, fab.Spec.Rails) }
	var d draft
	tasks := fab.Hosts() / tenantHosts
	for i := 0; i < tasks; i++ {
		d.add(0, tenant)
	}
	used := tasks * tenantHosts
	at := secs(warmup)
	h1 := mix.Intn(used)
	h2 := (h1 + 1 + mix.Intn(used-1)) % used
	d.add(at, scenario.Action{Kind: scenario.ActInject, Issue: int(faults.RNICPortDown), Host: h1, Rail: rail()})
	d.add(at, scenario.Action{Kind: scenario.ActInject, Issue: int(faults.SwitchPortDown), Link: attachLink(fab, h2, rail())})
	d.add(at, scenario.Action{Kind: scenario.ActInject, Issue: int(faults.SwitchOffline),
		Switch: fab.Agg(mix.Intn(fab.Spec.Pods), rotated(mix, seed, fab.Spec.AggPerPod))})
	s, _ := d.schedule("fleet", seed, secs(warmup+ticks))
	return &campaign{sched: s, peakHosts: used}
}

// Churn reference window: times below are written for 180 ticks.
const churnRef = 180

// tenantMixSeed fixes what the load of a campaign hangs on: the
// arrival times, sizes and lifetimes of tenant-churn's tenants, which
// hosts the faults of tenant-churn and fault-storm land on, and which
// rails they share. These decide how much work a run does (big tenants
// probe quadratically until inferred; a fault's gray-alarm fan-out
// depends on how its host's tenant straddles pods and on which faults
// meet on a rail), and left to -seed they moved every wall-clock metric
// by 25-70 % and allocations per probe by 10-40 % between seeds, which
// no regression bound can sit under. -seed rotates every rail of those
// two campaigns (rails are symmetric, so the work is the same and the
// inputs are not) and seeds the deployment's own random streams.
const tenantMixSeed = 20250927

// churnCap is the planned-occupancy ceiling of tenant-churn: the
// headroom absorbs hosts the alarm feedback loop blacklists.
const churnCap = 0.85

// planChurn generates seeded Poisson tenant arrivals (mean gap 2 s)
// with trace-driven sizes and lifetimes around one long-lived anchor
// task that takes a ToR-port-down and an RNIC-port-down mid-window.
// Arrivals that would push planned occupancy past the cap shrink to
// what fits or are skipped, so no submit is ever refused.
func planChurn(fab *topology.Fabric, seed int64, warmup, ticks int) *campaign {
	mix := rand.New(rand.NewSource(tenantMixSeed))
	horizon := secs(warmup + ticks)
	hostCap := int(churnCap * float64(fab.Hosts()))
	var d draft
	var extras []extra
	type inferAt struct {
		key int
		at  time.Duration
	}
	var infers []inferAt

	// Anchor: 4 containers, first-fit onto hosts 0..3, alive all run.
	const anchorHosts = 4
	key := 1
	d.open(0, key, scenario.Action{Kind: scenario.ActSubmit, TP: 8, PP: 2, DP: 2})
	// Inference runs 45 s after each submit (sooner on a smoke-sized
	// window, so the path is still exercised).
	inferDelay := 45 * time.Second
	if horizon < 3*inferDelay {
		inferDelay = horizon / 3
	}
	infers = append(infers, inferAt{key, inferDelay})

	// Occupancy ledger: hosts are reserved at submit and released one
	// stop-lag after the lifetime expires; 2 s covers the 1 s stop lag.
	type lease struct {
		until time.Duration
		hosts int
	}
	var leases []lease
	inUse := anchorHosts
	peak := inUse
	for at := time.Duration(0); ; {
		at += time.Duration(mix.ExpFloat64() * float64(2*time.Second))
		if at >= horizon-inferDelay {
			break
		}
		containers := trace.JobGPUs(mix) / 8
		if containers < 2 {
			containers = 2
		}
		if containers > 32 {
			containers = 32
		}
		size := trace.SizeSmall
		if containers >= 4 {
			size = trace.SizeMedium
		}
		life := trace.Lifetime(mix, size) / 10
		if life < 90*time.Second {
			life = 90 * time.Second
		}
		if life > 4*time.Minute {
			life = 4 * time.Minute
		}
		live := leases[:0]
		for _, l := range leases {
			if l.until > at {
				live = append(live, l)
			} else {
				inUse -= l.hosts
			}
		}
		leases = live
		if free := hostCap - inUse; containers > free {
			containers = free &^ 1
		}
		if containers < 2 {
			continue
		}
		key++
		d.open(at, key, scenario.Action{Kind: scenario.ActSubmit, TP: 8, PP: 2, DP: containers / 2, Lifetime: life})
		infers = append(infers, inferAt{key, at + inferDelay})
		leases = append(leases, lease{until: at + life + 2*time.Second, hosts: containers})
		inUse += containers
		if inUse > peak {
			peak = inUse
		}
	}

	// Hard faults on the anchor's hosts, so detectability does not
	// depend on which churn tenants happen to be alive.
	w := secs(warmup)
	rail := func() int { return rotated(mix, seed, fab.Spec.Rails) }
	key++
	d.open(w+secs(scaled(43, churnRef, ticks)), key, scenario.Action{Kind: scenario.ActInject,
		Issue: int(faults.SwitchPortDown), Link: attachLink(fab, mix.Intn(anchorHosts), rail())})
	d.close(w+secs(scaled(83, churnRef, ticks)), key, scenario.Action{Kind: scenario.ActClear})
	key++
	d.open(w+secs(scaled(133, churnRef, ticks)), key, scenario.Action{Kind: scenario.ActInject,
		Issue: int(faults.RNICPortDown), Host: mix.Intn(anchorHosts), Rail: rail()})
	d.close(w+secs(scaled(173, churnRef, ticks)), key, scenario.Action{Kind: scenario.ActClear})

	s, refOf := d.schedule("churn", seed, horizon)
	for _, in := range infers {
		extras = append(extras, extra{at: in.at, kind: extraInfer, ref: refOf[in.key]})
	}
	return &campaign{sched: s, extras: extras, peakHosts: peak}
}

// Storm reference window: times below are written for 120 ticks.
const stormRef = 120

// stormIssues is the cycle of Table-1 issue types the storm injects:
// link-, RNIC- and host-scoped, covering all three symptoms.
var stormIssues = []faults.IssueType{
	faults.SwitchPortDown,
	faults.RNICPortDown,
	faults.RNICFirmwareNotResponding,
	faults.GIDChange,
	faults.CRCError,
	faults.RNICHardwareFailure,
	faults.PCIeNICError,
	faults.BondError,
}

// droopPod is the pod whose ToR takes the gray congestion droop; fixed
// like the fault hosts, for the reason given at tenantMixSeed.
const droopPod = 1

// rotated draws from [0, n) on the fixed mix stream and rotates the
// draw by the seed.
func rotated(mix *rand.Rand, seed int64, n int) int {
	return (mix.Intn(n) + int(uint64(seed)%uint64(n))) % n
}

// planStorm fills the fabric, injects two gray faults at the end of
// warm-up, then one hard fault every 10 s (each cleared 40 s later) on
// seeded, distinct hosts, and crashes the controller twice with
// recovery from the last checkpoint 5 s later.
func planStorm(fab *topology.Fabric, seed int64, warmup, ticks int) *campaign {
	mix := rand.New(rand.NewSource(tenantMixSeed))
	var d draft
	tasks := fab.Hosts() / tenantHosts
	for i := 0; i < tasks; i++ {
		d.add(0, tenant)
	}
	used := tasks * tenantHosts
	w := secs(warmup)
	hosts := mix.Perm(used)
	rail := func() int { return rotated(mix, seed, fab.Spec.Rails) }

	extras := []extra{
		{at: w, kind: extraGray, gray: faults.GrayCongestionDroop,
			target: faults.Target{Switch: fab.ToR(droopPod, rail())}},
		{at: w, kind: extraGray, gray: faults.GrayPartialRTT,
			target: faults.Target{Host: hosts[0], Rail: rail()}},
	}
	hosts = hosts[1:]

	first := scaled(10, stormRef, ticks)
	period := scaled(10, stormRef, ticks)
	hold := scaled(40, stormRef, ticks)
	key := 0
	for t := first; t+hold <= ticks && key < len(hosts); t += period {
		issue := stormIssues[key%len(stormIssues)]
		a := scenario.Action{Kind: scenario.ActInject, Issue: int(issue), Host: hosts[key], Rail: rail()}
		key++
		if issue == faults.SwitchPortDown || issue == faults.CRCError {
			a.Link = attachLink(fab, a.Host, a.Rail)
		}
		d.open(w+secs(t), key, a)
		d.close(w+secs(t+hold), key, scenario.Action{Kind: scenario.ActClear})
	}
	for _, c := range []int{45, 95} {
		at := w + secs(scaled(c, stormRef, ticks))
		extras = append(extras,
			extra{at: at, kind: extraCrash},
			extra{at: at + 5*time.Second, kind: extraRecover})
	}
	s, _ := d.schedule("storm", seed, secs(warmup+ticks))
	return &campaign{sched: s, extras: extras, peakHosts: used}
}

// check validates a generated campaign against the workload's rules.
func (c *campaign) check(w *workload, hosts int) error {
	if err := c.sched.Validate(); err != nil {
		return err
	}
	if max := int(w.occupancyCap * float64(hosts)); c.peakHosts > max {
		return fmt.Errorf("schedule plans %d of %d hosts, cap %d", c.peakHosts, hosts, max)
	}
	return nil
}
