// Acceptance tests for the self-healing remediation plane: a
// multi-fault campaign must be detected, localized AND healed with no
// human in the loop; the healed ledger must be bit-identical across
// analyzer worker counts and a mid-campaign controller crash; healing
// must beat blacklist-only on training goodput; rails must defer (not
// drop) over-budget work; and dry-run must record the same intents
// while executing nothing.
package hunter

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/component"
	"skeletonhunter/internal/faults"
	"skeletonhunter/internal/incident"
	"skeletonhunter/internal/parallelism"
	"skeletonhunter/internal/remedy"
	"skeletonhunter/internal/topology"
	"skeletonhunter/internal/trainsim"
)

// healSpec is the campaign fabric: two pods of eight hosts so drains
// always have spare capacity, even when a whole ToR span cordons.
var healSpec = topology.Spec{Pods: 2, HostsPerPod: 8, Rails: 8, AggPerPod: 2, Spines: 2}

// healRemedyConfig is the campaign's remediation tuning: a verify
// window two sweeps long, budget roomy enough for the three planned
// repairs, and a blast cap of half the fabric.
func healRemedyConfig() *remedy.Config {
	return &remedy.Config{
		Window:      10 * time.Minute,
		Budget:      4,
		BlastRadius: 0.5,
		Cooldown:    30 * time.Minute,
		VerifyAfter: 2 * time.Minute,
	}
}

// healFaults injects the three-fault campaign on three distinct
// task hosts and returns the component IDs remediation must heal:
// an RNIC hard-down (drain play), a ToR-side port down on a rail
// link (drain play via the NIC endpoint), and a drifted offload flow
// table (Fig. 18 in-place clear).
func healFaults(t *testing.T, d *Deployment, task *cluster.Task) []component.ID {
	t.Helper()
	a := task.Containers[0].Addrs[0]
	if _, err := d.Injector.Inject(faults.RNICPortDown, faults.Target{Host: a.Host, Rail: a.Rail}); err != nil {
		t.Fatal(err)
	}
	b := task.Containers[1].Addrs[3]
	nic := topology.NIC{Host: b.Host, Rail: 3}
	link := topology.MakeLinkID(nic.ID(), d.Fabric.ToR(d.Fabric.PodOf(b.Host), 3))
	if _, err := d.Injector.Inject(faults.SwitchPortDown, faults.Target{Link: link}); err != nil {
		t.Fatal(err)
	}
	c := task.Containers[2].Addrs[5]
	if _, err := d.Injector.Inject(faults.OffloadingFailure, faults.Target{Host: c.Host, Rail: c.Rail}); err != nil {
		t.Fatal(err)
	}
	return []component.ID{
		component.RNIC(a.Host, a.Rail),
		component.Link(link),
		component.RNIC(c.Host, c.Rail),
	}
}

// healCampaign runs the full scenario at a given worker count:
// steady state, three faults, a mid-campaign controller crash and
// recovery, then enough quiet time for every repair to verify and
// commit. Returns the deployment, the healed components, and the
// final fingerprint.
func healCampaign(t *testing.T, workers int) (*Deployment, []component.ID, string) {
	t.Helper()
	d, err := New(Options{
		Seed:               47,
		Spec:               healSpec,
		Lag:                fastLag(),
		Workers:            workers,
		CheckpointInterval: 2 * time.Minute,
		Remedy:             healRemedyConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	task, err := d.SubmitTask(cluster.TaskSpec{Par: parallelism.Config{TP: 8, PP: 2, DP: 2}})
	if err != nil {
		t.Fatal(err)
	}
	d.Run(7 * time.Minute)
	targets := healFaults(t, d, task)
	d.Run(2 * time.Minute)

	// The controller dies mid-campaign — incidents open, repairs in
	// flight — and recovers from the last periodic checkpoint. Healing
	// must pick up where the ledger left off.
	d.CrashController()
	d.Run(time.Minute)
	if err := d.RecoverFromLast(); err != nil {
		t.Fatal(err)
	}
	d.Run(15 * time.Minute)
	return d, targets, d.Fingerprint()
}

// TestSelfHealingCampaign is the acceptance gate: every injected
// fault is detected, localized, and healed with zero human action.
func TestSelfHealingCampaign(t *testing.T) {
	d, targets, _ := healCampaign(t, 0)

	audit := d.Remedy.Audit()
	if len(audit) == 0 {
		t.Fatal("campaign produced an empty remediation ledger")
	}
	byComp := make(map[component.ID][]remedy.Action)
	for _, a := range audit {
		byComp[a.Component] = append(byComp[a.Component], a)
	}
	for _, comp := range targets {
		inc, ok := d.Incidents.Latest(comp)
		if !ok {
			t.Fatalf("%s: no incident — fault not detected/localized", comp)
		}
		if inc.RepairedAt == 0 || inc.TimeToRepair <= 0 {
			t.Fatalf("%s: not healed: repaired=%v ttr=%v state=%v", comp, inc.RepairedAt, inc.TimeToRepair, inc.State)
		}
		if len(inc.Evidence.Remediation) == 0 {
			t.Fatalf("%s: incident carries no remediation audit trail", comp)
		}
		acts := byComp[comp]
		if len(acts) == 0 {
			t.Fatalf("%s: no remediation action in the ledger", comp)
		}
		committed := false
		for _, a := range acts {
			if a.State == remedy.StateCommitted {
				committed = true
				if a.DryRun {
					t.Fatalf("%s: committed action marked dry-run", comp)
				}
			}
		}
		if !committed {
			t.Fatalf("%s: no committed action among %+v", comp, acts)
		}
	}

	// The plays must match the policy table: the hard-down RNIC and the
	// NIC-endpoint link drain their hosts; the drifted offload table
	// repairs in place.
	wantKinds := []remedy.ActionKind{remedy.KindDrainHost, remedy.KindDrainHost, remedy.KindClearOffload}
	for i, comp := range targets {
		found := false
		for _, a := range byComp[comp] {
			if a.Kind == wantKinds[i] && a.State == remedy.StateCommitted {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: no committed %s action: %+v", comp, wantKinds[i], byComp[comp])
		}
	}

	// The healed hosts are cordoned out of placement; the offload
	// repair left its host alone.
	if len(d.CP.CordonedHosts()) == 0 {
		t.Fatal("no host cordoned by the drain plays")
	}

	snap := d.Stats()
	if snap.Counters["incidents-repaired"] < 3 {
		t.Fatalf("incidents-repaired = %d, want >= 3", snap.Counters["incidents-repaired"])
	}
	if snap.Counters["remedy-actions-committed"] < 3 {
		t.Fatalf("remedy-actions-committed = %d, want >= 3", snap.Counters["remedy-actions-committed"])
	}
}

// TestSelfHealingDeterminism pins the healed ledger across analyzer
// worker counts: the same campaign — crash, recovery, repairs and all
// — must fingerprint bit-identically at 1, 4 and 16 workers.
func TestSelfHealingDeterminism(t *testing.T) {
	_, _, want := healCampaign(t, 1)
	for _, workers := range []int{4, 16} {
		if _, _, got := healCampaign(t, workers); got != want {
			t.Fatalf("workers=%d: healed fingerprint diverged from serial run", workers)
		}
	}
}

// goodputArm measures training progress through the fault campaign
// with a job-restart loop: a failed job restarts after a backoff, the
// way a production scheduler would resubmit. With remediation on, the
// restart lands on healed capacity and sticks; blacklist-only leaves
// the containers on the broken host, so every restart dies again.
func goodputArm(t *testing.T, withRemedy bool) int {
	t.Helper()
	opts := Options{
		Seed: 47,
		Spec: healSpec,
		Lag:  fastLag(),
	}
	if withRemedy {
		opts.Remedy = healRemedyConfig()
	}
	d, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	task, err := d.SubmitTask(cluster.TaskSpec{Par: parallelism.Config{TP: 8, PP: 2, DP: 2}})
	if err != nil {
		t.Fatal(err)
	}
	d.Run(7 * time.Minute)

	// One hard-down RNIC under container 0: pairs through it go
	// unreachable, the collective times out, the job dies.
	a := task.Containers[0].Addrs[0]
	if _, err := d.Injector.Inject(faults.RNICPortDown, faults.Target{Host: a.Host, Rail: a.Rail}); err != nil {
		t.Fatal(err)
	}

	total := 0
	var job *trainsim.Job
	job, err = trainsim.Start(d.Engine, d.Net, task, trainsim.Config{IterBase: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// 30-minute horizon in 30-second segments: harvest failed jobs and
	// restart them on the next segment boundary (the scheduler's
	// resubmit backoff).
	for seg := 0; seg < 60; seg++ {
		d.Run(30 * time.Second)
		if job != nil && job.Failed {
			total += job.Iterations
			job.Stop()
			job = nil
			continue
		}
		if job == nil {
			if j, err := trainsim.Start(d.Engine, d.Net, task, trainsim.Config{IterBase: 10 * time.Second}); err == nil {
				job = j
			}
		}
	}
	if job != nil {
		total += job.Iterations
		job.Stop()
	}
	return total
}

// TestHealedGoodputBeatsBlacklistOnly is the paper-scale payoff
// claim: closing the loop (detect → localize → repair) yields
// strictly more training iterations than detect → blacklist alone.
func TestHealedGoodputBeatsBlacklistOnly(t *testing.T) {
	healed := goodputArm(t, true)
	blacklistOnly := goodputArm(t, false)
	if healed <= blacklistOnly {
		t.Fatalf("healed goodput %d iterations <= blacklist-only %d", healed, blacklistOnly)
	}
	t.Logf("goodput: healed=%d blacklist-only=%d iterations", healed, blacklistOnly)
}

// TestRemedyBudgetDefersEndToEnd squeezes the campaign through a
// budget of one action per window: the overflow repairs defer — with
// the counter and audit trail to prove it — and still land in later
// windows. Deferral must never become drop.
func TestRemedyBudgetDefersEndToEnd(t *testing.T) {
	d, err := New(Options{
		Seed: 47,
		Spec: healSpec,
		Lag:  fastLag(),
		Remedy: &remedy.Config{
			Window:      5 * time.Minute,
			Budget:      1,
			BlastRadius: 0.5,
			Cooldown:    30 * time.Minute,
			VerifyAfter: 2 * time.Minute,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	task, err := d.SubmitTask(cluster.TaskSpec{Par: parallelism.Config{TP: 8, PP: 2, DP: 2}})
	if err != nil {
		t.Fatal(err)
	}
	d.Run(7 * time.Minute)
	targets := healFaults(t, d, task)
	d.Run(25 * time.Minute)

	snap := d.Stats()
	if snap.Counters["remedy-actions-deferred"] == 0 {
		t.Fatal("budget of 1 never deferred anything across 3 concurrent repairs")
	}
	for _, comp := range targets {
		inc, ok := d.Incidents.Latest(comp)
		if !ok || inc.RepairedAt == 0 {
			t.Fatalf("%s: deferred repair never landed (defer became drop)", comp)
		}
	}
	// The audit shows at least one action that waited for a later
	// window: executed in a different budget window than planned.
	waited := false
	for _, a := range d.Remedy.Audit() {
		if a.Deferrals > 0 && a.State == remedy.StateCommitted {
			waited = true
		}
	}
	if !waited {
		t.Fatal("no committed action records a deferral")
	}
}

// TestRemedyDryRunExecutesNothing runs the campaign in dry-run mode:
// the ledger records the same intents the real run commits, but no
// cordon, migration, restart or offload write ever happens, and no
// incident is marked repaired.
func TestRemedyDryRunExecutesNothing(t *testing.T) {
	realIntents := make(map[component.ID]string)
	{
		d, targets, _ := healCampaign(t, 0)
		for _, a := range d.Remedy.Audit() {
			for _, comp := range targets {
				if a.Component == comp && a.State == remedy.StateCommitted {
					realIntents[comp] = a.Intent()
				}
			}
		}
		if len(realIntents) != 3 {
			t.Fatalf("real campaign committed %d target repairs, want 3", len(realIntents))
		}
	}

	cfg := healRemedyConfig()
	cfg.DryRun = true
	d, err := New(Options{
		Seed:               47,
		Spec:               healSpec,
		Lag:                fastLag(),
		CheckpointInterval: 2 * time.Minute,
		Remedy:             cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	task, err := d.SubmitTask(cluster.TaskSpec{Par: parallelism.Config{TP: 8, PP: 2, DP: 2}})
	if err != nil {
		t.Fatal(err)
	}
	d.Run(7 * time.Minute)
	hosts := make([]int, len(task.Containers))
	for i, c := range task.Containers {
		hosts[i] = c.Host
	}
	targets := healFaults(t, d, task)
	d.Run(18 * time.Minute)

	// Identical intents for the target components, nothing executed.
	dryIntents := make(map[component.ID]string)
	for _, a := range d.Remedy.Audit() {
		if !a.DryRun {
			t.Fatalf("dry-run ledger contains a live action: %+v", a)
		}
		for _, comp := range targets {
			if a.Component == comp && dryIntents[comp] == "" {
				dryIntents[comp] = a.Intent()
			}
		}
	}
	for comp, want := range realIntents {
		if got := dryIntents[comp]; got != want {
			t.Fatalf("%s: dry-run intent %q, real intent %q", comp, got, want)
		}
	}

	if got := d.CP.CordonedHosts(); len(got) != 0 {
		t.Fatalf("dry run cordoned hosts %v", got)
	}
	for i, c := range task.Containers {
		if c.State != cluster.Running {
			t.Fatalf("dry run disturbed container %s: %v", c.ID, c.State)
		}
		if c.Host != hosts[i] {
			t.Fatalf("dry run migrated container %s from host %d to %d", c.ID, hosts[i], c.Host)
		}
	}
	snap := d.Stats()
	if snap.Counters["remedy-dry-run-intents"] == 0 {
		t.Fatal("dry-run intents counter never moved")
	}
	if snap.Counters["remedy-actions-executed"] != 0 {
		t.Fatalf("dry run executed %d actions", snap.Counters["remedy-actions-executed"])
	}
	if snap.Counters["incidents-repaired"] != 0 {
		t.Fatal("dry run marked incidents repaired")
	}
	for _, comp := range targets {
		if inc, ok := d.Incidents.Latest(comp); ok && inc.RepairedAt != 0 {
			t.Fatalf("%s: dry run stamped RepairedAt", comp)
		}
	}
	// The intents surface in the incident evidence for operators.
	found := false
	for _, comp := range targets {
		if inc, ok := d.Incidents.Latest(comp); ok {
			for _, note := range inc.Evidence.Remediation {
				if strings.Contains(note, "dry-run intent") {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("no dry-run intent note in any target incident's evidence")
	}
}

// TestRemedyAuditServedByAPI closes satellite 1: the repair clocks
// and the remediation audit trail render in /v1/incidents.
func TestRemedyAuditServedByAPI(t *testing.T) {
	d, err := New(Options{
		Seed:     47,
		Spec:     healSpec,
		Lag:      fastLag(),
		Remedy:   healRemedyConfig(),
		HTTPAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.API.Close()
	task, err := d.SubmitTask(cluster.TaskSpec{Par: parallelism.Config{TP: 8, PP: 2, DP: 2}})
	if err != nil {
		t.Fatal(err)
	}
	d.Run(7 * time.Minute)
	a := task.Containers[0].Addrs[0]
	if _, err := d.Injector.Inject(faults.RNICPortDown, faults.Target{Host: a.Host, Rail: a.Rail}); err != nil {
		t.Fatal(err)
	}
	d.Run(12 * time.Minute)

	comp := component.RNIC(a.Host, a.Rail)
	inc, ok := d.Incidents.Latest(comp)
	if !ok || inc.RepairedAt == 0 {
		t.Fatalf("fault not healed: %+v", inc)
	}
	body := httpGetBody(t, "http://"+d.API.Addr()+"/v1/incidents")
	for _, want := range []string{
		`"time_to_repair_s"`,
		`"repaired_s"`,
		`"remediation"`,
		fmt.Sprintf("remedy#%d", remedyIDFor(d, comp)),
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/v1/incidents missing %s:\n%s", want, body)
		}
	}
}

// httpGetBody fetches a URL and returns its body, failing the test on
// any transport or status error.
func httpGetBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(b)
}

// remedyIDFor returns the ledger ID of the first action planned for a
// component.
func remedyIDFor(d *Deployment, comp component.ID) int {
	for _, a := range d.Remedy.Audit() {
		if a.Component == comp {
			return a.ID
		}
	}
	return -1
}

// drainRig deploys one TP8/PP2/DP2 task (four containers) with the
// remediation plane at its defaults and runs it to steady state. The
// plane's drain-host play is the one path that moves containers off a
// bad host.
func drainRig(t *testing.T, seed int64, spec topology.Spec) (*Deployment, *cluster.Task) {
	t.Helper()
	d, err := New(Options{Seed: seed, Spec: spec, Lag: fastLag(), Remedy: &remedy.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	task, err := d.SubmitTask(cluster.TaskSpec{Par: parallelism.Config{TP: 8, PP: 2, DP: 2}})
	if err != nil {
		t.Fatal(err)
	}
	d.Run(6 * time.Minute)
	return d, task
}

// drainSpec is one pod of eight hosts: the task fills four, leaving
// spares to drain onto.
var drainSpec = topology.Spec{Pods: 1, HostsPerPod: 8, Rails: 8, AggPerPod: 2}

// TestAutoMigrationRecoversTask is §8's quick-recovery path: a
// host-board fault under a healthy container gets its host drained,
// the container leaves it, and — with the fault still active on the
// old host — the task's probes run clean.
func TestAutoMigrationRecoversTask(t *testing.T) {
	d, task := drainRig(t, 17, drainSpec)
	victim := task.Containers[0]
	badHost := victim.Host
	in, err := d.Injector.Inject(faults.PCIeNICError, faults.Target{Host: badHost})
	if err != nil {
		t.Fatal(err)
	}
	d.Run(2 * time.Minute)
	if victim.Host == badHost {
		t.Fatalf("container still on bad host %d; audit=%+v", badHost, d.Remedy.Audit())
	}
	if !d.CP.HostCordoned(badHost) {
		t.Fatalf("drained host %d not cordoned", badHost)
	}
	a := victim.Addrs[0]
	b := task.Containers[1].Addrs[0]
	for i := 0; i < 20; i++ {
		res := d.Net.Probe(a, b, uint64(i))
		if res.Lost || res.RTT > 40*time.Microsecond {
			t.Fatalf("post-migration probe unhealthy: lost=%v rtt=%v", res.Lost, res.RTT)
		}
	}
	d.Injector.Clear(in)
}

// TestMigratedAgentKeepsProbing follows a drained container's sidecar
// agent: migration re-homes the same container, so the agent survives,
// keeps completing rounds, and its probe records reach the log from
// the NEW host.
func TestMigratedAgentKeepsProbing(t *testing.T) {
	d, task := drainRig(t, 17, drainSpec)
	victim := task.Containers[0]
	badHost := victim.Host
	in, err := d.Injector.Inject(faults.PCIeNICError, faults.Target{Host: badHost})
	if err != nil {
		t.Fatal(err)
	}
	d.Run(2 * time.Minute)
	d.Injector.Clear(in)
	if victim.Host == badHost {
		t.Fatalf("no migration happened (host=%d)", victim.Host)
	}
	newHost := victim.Host

	agent, ok := d.agents[victim.ID]
	if !ok {
		t.Fatal("migrated container lost its sidecar agent")
	}
	roundsBefore := agent.Rounds()
	mark := d.Engine.Now()
	d.Run(time.Minute)
	if agent.Rounds() <= roundsBefore {
		t.Fatalf("agent stopped probing after migration (rounds %d → %d)", roundsBefore, agent.Rounds())
	}
	fresh := d.Log.ByTask(string(task.ID), mark)
	fromNewHost := 0
	for _, r := range fresh {
		if r.Src.Host == newHost {
			fromNewHost++
		}
		if r.Src.Host == badHost || r.Dst.Host == badHost {
			t.Fatalf("post-migration record still references old host %d: %+v", badHost, r)
		}
	}
	if fromNewHost == 0 {
		t.Fatalf("no probe records from the migrated container's new host %d (%d fresh records)", newHost, len(fresh))
	}
}

// assertStranded checks the failure mode of a drain with nowhere to
// go: the container stays on the bad host, the drain escalates with
// the reason in the incident's evidence, the incident stays open, and
// the detector keeps alarming rather than wedging.
func assertStranded(t *testing.T, d *Deployment, victim *cluster.Container, comp component.ID) {
	t.Helper()
	badHost := victim.Host
	d.Run(3 * time.Minute)
	if victim.Host != badHost {
		t.Fatalf("container moved to %d despite exhausted spares", victim.Host)
	}
	if d.Stats().Counters["remedy-actions-escalated"] == 0 {
		t.Fatal("impossible drain was not escalated")
	}
	inc, ok := d.Incidents.Latest(comp)
	if !ok {
		t.Fatalf("no incident for %s", comp)
	}
	found := false
	for _, note := range inc.Evidence.Remediation {
		if strings.Contains(note, "escalated") && strings.Contains(note, cluster.ErrNoMigration.Error()) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no exhaustion reason in evidence: %v", inc.Evidence.Remediation)
	}
	if inc.State == incident.Resolved {
		t.Fatal("stranded incident resolved itself")
	}
	alarms := len(d.Analyzer.Alarms())
	d.Run(2 * time.Minute)
	if len(d.Analyzer.Alarms()) <= alarms {
		t.Fatalf("alarms stopped at %d with the fault still active", alarms)
	}
}

// TestAutoMigrationNoSpareHosts blacklists every host the task is not
// on: migration must fail with ErrNoMigration and the drain strands.
func TestAutoMigrationNoSpareHosts(t *testing.T) {
	d, task := drainRig(t, 17, drainSpec)
	used := map[int]bool{}
	for _, ct := range task.Containers {
		used[ct.Host] = true
	}
	for h := 0; h < d.Fabric.Hosts(); h++ {
		if !used[h] {
			d.blockedHosts[h] = true
		}
	}
	victim := task.Containers[0]
	if _, err := d.CP.MigrateContainer(victim.ID); !errors.Is(err, cluster.ErrNoMigration) {
		t.Fatalf("migration with no spare hosts: err = %v, want ErrNoMigration", err)
	}
	if _, err := d.Injector.Inject(faults.PCIeNICError, faults.Target{Host: victim.Host}); err != nil {
		t.Fatal(err)
	}
	assertStranded(t, d, victim, component.HostBoard(victim.Host))
}

// TestMigrationExhaustionSurfaces fills every host of a four-host
// fabric, so a hard-down RNIC's drain has no spare anywhere.
func TestMigrationExhaustionSurfaces(t *testing.T) {
	d, task := drainRig(t, 31, topology.Spec{Pods: 1, HostsPerPod: 4, Rails: 8, AggPerPod: 2})
	victim := task.Containers[0]
	a := victim.Addrs[0]
	if _, err := d.Injector.Inject(faults.RNICPortDown, faults.Target{Host: a.Host, Rail: a.Rail}); err != nil {
		t.Fatal(err)
	}
	assertStranded(t, d, victim, component.RNIC(a.Host, a.Rail))
}
