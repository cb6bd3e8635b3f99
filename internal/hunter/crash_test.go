package hunter

import (
	"testing"
	"time"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/faults"
	"skeletonhunter/internal/metrics"
	"skeletonhunter/internal/obs"
	"skeletonhunter/internal/parallelism"
	"skeletonhunter/internal/topology"
	"skeletonhunter/internal/transport"
)

func TestCheckpointRecoveryRoundTrip(t *testing.T) {
	d := newDeployment(t)
	task := steadyTask(t, d)
	d.Run(5 * time.Minute)

	// An incident before the crash, so the checkpoint carries real
	// alarms and a blacklist worth preserving.
	a := task.Containers[0].Addrs[3]
	nic := topology.NIC{Host: a.Host, Rail: 3}
	link := topology.MakeLinkID(nic.ID(), d.Fabric.ToR(0, 3))
	in, err := d.Injector.Inject(faults.SwitchPortDown, faults.Target{Link: link})
	if err != nil {
		t.Fatal(err)
	}
	d.Run(3 * time.Minute)
	d.Injector.Clear(in)
	d.Run(2 * time.Minute)
	if len(d.Analyzer.Alarms()) == 0 || len(d.Analyzer.Blacklist()) == 0 {
		t.Fatal("incident left no alarms/blacklist to checkpoint")
	}

	fp := d.Fingerprint()
	ck := d.Checkpoint()
	if ck == nil || ck.Version != CheckpointVersion {
		t.Fatalf("checkpoint = %+v", ck)
	}
	if ck.At != d.Engine.Now() {
		t.Fatalf("checkpoint stamped %v at t=%v", ck.At, d.Engine.Now())
	}

	d.CrashController()
	if !d.Controller.Down() {
		t.Fatal("controller up after crash")
	}
	if got := len(d.Analyzer.Alarms()); got != 0 {
		t.Fatalf("crash left %d alarms behind", got)
	}
	if got := d.Controller.PingListInto(task.ID, 0, nil); got != nil {
		t.Fatalf("dead controller served %d targets", len(got))
	}
	// A dead process writes no checkpoints — and must not clobber the
	// last good one with its amnesia.
	if d.Checkpoint() != nil {
		t.Fatal("checkpoint taken while down")
	}
	if d.LastCheckpoint() != ck {
		t.Fatal("crash-window checkpoint clobbered the recovery point")
	}
	d.Run(time.Minute) // agents idle against the dead controller

	if err := d.RecoverFromLast(); err != nil {
		t.Fatal(err)
	}
	if got := d.Controller.Epoch(); got != 2 {
		t.Fatalf("epoch after recovery = %d, want 2", got)
	}
	if got := d.Fingerprint(); got != fp {
		t.Fatalf("alarms/blacklist fingerprint changed across recovery:\n  before %s\n  after  %s", fp, got)
	}
	// Every lease came back stale: granted by epoch 1, awaiting renewal.
	if got := d.Controller.StaleRegistrations(task.ID); got != len(task.Containers) {
		t.Fatalf("stale registrations = %d, want %d", got, len(task.Containers))
	}

	// Agents notice the epoch bump on their next round and renew; the
	// registry converges to all-live on the new epoch with no expiries.
	d.Run(90 * time.Second)
	if got := d.Controller.StaleRegistrations(task.ID); got != 0 {
		t.Fatalf("%d leases still stale after agents resumed", got)
	}
	regs := d.Controller.Registrations(task.ID)
	if len(regs) != len(task.Containers) {
		t.Fatalf("registrations = %d, want %d", len(regs), len(task.Containers))
	}
	for _, r := range regs {
		if r.Epoch != 2 || r.Expires != 0 {
			t.Fatalf("lease not renewed: %+v", r)
		}
	}
	snap := d.Stats()
	if snap.Counters["agent-reregisters"] < uint64(len(task.Containers)) {
		t.Fatalf("agent-reregisters = %d, want ≥ %d", snap.Counters["agent-reregisters"], len(task.Containers))
	}
	if snap.Counters["controller-crashes"] != 1 || snap.Counters["controller-restores"] != 1 {
		t.Fatalf("crash/restore counters = %d/%d", snap.Counters["controller-crashes"], snap.Counters["controller-restores"])
	}
}

func TestColdRecoveryWithoutCheckpoint(t *testing.T) {
	// A controller that dies before its first checkpoint cold-starts:
	// empty registry on a bumped epoch, task membership resynced from
	// the cluster control plane, full retained log replayed.
	d := newDeployment(t)
	task := steadyTask(t, d)
	d.Run(5 * time.Minute)

	d.CrashController()
	if err := d.RecoverFromLast(); err != nil {
		t.Fatal(err)
	}
	if got := d.Controller.Epoch(); got != 2 {
		t.Fatalf("epoch = %d, want 2", got)
	}
	if _, ok := d.Controller.StatsOf(task.ID); !ok {
		t.Fatal("task not resynced from the cluster control plane")
	}
	if got := len(d.Controller.Registrations(task.ID)); got != 0 {
		t.Fatalf("cold start resurrected %d registrations", got)
	}

	d.Run(2 * time.Minute)
	regs := d.Controller.Registrations(task.ID)
	if len(regs) != len(task.Containers) {
		t.Fatalf("agents re-registered = %d, want %d", len(regs), len(task.Containers))
	}
	for _, r := range regs {
		if r.Epoch != 2 {
			t.Fatalf("lease on wrong epoch: %+v", r)
		}
	}
	if got := len(d.Analyzer.Alarms()); got != 0 {
		t.Fatalf("healthy cold recovery raised %d alarms", got)
	}
}

// TestLogTruncationIsCounted: the ring retains a record count, not a
// time span, so a busy enough fleet turns it over faster than the
// checkpoint interval and the evidence window. Recovery replay and
// evidence gathers are then partial; replay-truncated and
// evidence-truncated say so. Both must stay zero while the ring still
// reaches back far enough — including when it is full.
func TestLogTruncationIsCounted(t *testing.T) {
	for _, tc := range []struct {
		name      string
		par       parallelism.Config
		warm      time.Duration
		truncated bool
	}{
		// 4 containers log ~5.8K records/min: the ring reaches back ~11 min.
		{"full ring reaches past the checkpoint", parallelism.Config{TP: 8, PP: 2, DP: 2}, 12 * time.Minute, false},
		// 12 containers log ~63K records/min: the ring reaches back ~1 min.
		{"ring turned over since the checkpoint", parallelism.Config{TP: 8, PP: 4, DP: 3}, 2 * time.Minute, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := New(Options{Seed: 11, Hosts: 16, Lag: fastLag()})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.SubmitTask(cluster.TaskSpec{Par: tc.par}); err != nil {
				t.Fatal(err)
			}
			d.Run(tc.warm)
			if _, full := d.Log.OldestAt(); !full {
				t.Fatalf("ring not full after %v (%d records)", tc.warm, d.Log.Len())
			}
			ck := d.Checkpoint()

			// A fault after the checkpoint: its incident gathers evidence
			// over the two minutes before the alarm.
			breakRail3(t, d)
			d.Run(3 * time.Minute)
			if len(d.Incidents.Incidents()) == 0 {
				t.Fatal("fault opened no incident, so no evidence was gathered")
			}
			d.CrashController()
			if err := d.RecoverFrom(ck); err != nil {
				t.Fatal(err)
			}

			c := d.Stats().Counters
			replay, evidence := c[obs.ReplayTruncated.String()], c[obs.EvidenceTruncated.String()]
			if tc.truncated && (replay != 1 || evidence == 0) {
				t.Fatalf("replay-truncated = %d, evidence-truncated = %d; want 1 and > 0", replay, evidence)
			}
			if !tc.truncated && (replay != 0 || evidence != 0) {
				t.Fatalf("replay-truncated = %d, evidence-truncated = %d; want both 0", replay, evidence)
			}
		})
	}
}

func TestWireAgentSurvivesControllerRecovery(t *testing.T) {
	// The wire path across a recovery: the checkpoint preserves the
	// per-task secret (a re-minted one would lock every fleet agent
	// out), and the epoch stamped on responses makes the client renew
	// its lease without being told.
	d := newDeployment(t)
	task := steadyTask(t, d)

	srv, err := d.ServeTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = nil
	defer srv.Close()
	secret, _ := d.TaskSecret(task.ID)

	c, err := transport.Dial(srv.Addr(), string(task.ID), 0, secret)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Register(); err != nil {
		t.Fatal(err)
	}
	if got := c.Epoch(); got != 1 {
		t.Fatalf("epoch = %d", got)
	}

	if d.Checkpoint() == nil {
		t.Fatal("checkpoint failed")
	}
	d.CrashController()
	if err := d.RecoverFromLast(); err != nil {
		t.Fatal(err)
	}
	s2, _ := d.TaskSecret(task.ID)
	if string(s2) != string(secret) {
		t.Fatal("recovery re-minted the task secret")
	}

	// Same connection, new incarnation: the response's epoch bump makes
	// the client re-register transparently.
	if _, err := c.PingList(); err != nil {
		t.Fatalf("ping list across recovery: %v", err)
	}
	if got := c.Epoch(); got != 2 {
		t.Fatalf("client epoch after recovery = %d, want 2", got)
	}
	for _, r := range d.Controller.Registrations(task.ID) {
		if r.Container == 0 && (r.Epoch != 2 || r.Expires != 0) {
			t.Fatalf("wire agent's lease not renewed: %+v", r)
		}
	}
}

// crashRun is one crash-campaign arm's outcome.
type crashRun struct {
	snap        obs.Snapshot
	report      metrics.Report
	fingerprint string
	epoch       uint64
	stale       int
	regs        int
	regEpochsOK bool
}

// runCrashCampaign plays a fixed scenario — two Table-1 faults on a
// steady task with periodic checkpoints — optionally crashing the
// monitoring controller mid-incident (90 s downtime, recovery from the
// last checkpoint). Identical seeds and schedules keep arms comparable.
func runCrashCampaign(t *testing.T, crash bool) crashRun {
	t.Helper()
	d, err := New(Options{
		Seed:               29,
		Spec:               topology.Spec{Pods: 1, HostsPerPod: 8, Rails: 8, AggPerPod: 2},
		Lag:                fastLag(),
		CheckpointInterval: 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	task, err := d.SubmitTask(cluster.TaskSpec{Par: parallelism.Config{TP: 8, PP: 2, DP: 2}})
	if err != nil {
		t.Fatal(err)
	}
	d.Run(10 * time.Minute) // steady state + detector history

	var rec *faults.ControllerCrash
	if crash {
		// Dies 70 s into the first incident's hold window — after the
		// 16:00 checkpoint, so the pre-crash detection is durable.
		rec = d.ScheduleControllerCrash(16*time.Minute+10*time.Second, 90*time.Second)
	}

	inject := func(issue faults.IssueType, tgt faults.Target) {
		in, err := d.Injector.Inject(issue, tgt)
		if err != nil {
			t.Fatal(err)
		}
		d.Run(4 * time.Minute)
		d.Injector.Clear(in)
		d.Run(10 * time.Minute) // quiet tail between incidents
	}
	a := task.Containers[0].Addrs[0]
	b := task.Containers[2].Addrs[3]
	d.Run(5 * time.Minute) // t=15:00
	inject(faults.RNICPortDown, faults.Target{Host: a.Host, Rail: a.Rail})
	inject(faults.RNICPortFlapping, faults.Target{Host: b.Host, Rail: b.Rail})

	if crash && (!rec.Crashed || !rec.Restored) {
		t.Fatalf("crash did not complete: %+v", rec)
	}
	regs := d.Controller.Registrations(task.ID)
	regEpochsOK := true
	for _, r := range regs {
		if r.Epoch != d.Controller.Epoch() {
			regEpochsOK = false
		}
	}
	return crashRun{
		snap:        d.Stats(),
		report:      metrics.Score(d.Injector.Injections(), d.Analyzer.Alarms(), 2*time.Minute),
		fingerprint: d.Fingerprint(),
		epoch:       d.Controller.Epoch(),
		stale:       d.Controller.StaleRegistrations(task.ID),
		regs:        len(regs),
		regEpochsOK: regEpochsOK,
	}
}

// TestControllerCrashCampaign is the acceptance scenario: the
// monitoring controller dies mid-incident and recovers from its last
// checkpoint; every surviving agent re-registers under the new epoch
// through the normal probing loop; accuracy stays within the graceful-
// degradation envelope of the uninterrupted arm; and recovery is
// deterministic — two crash runs from the same schedule produce
// identical alarms and blacklists.
func TestControllerCrashCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-incident simulated campaign")
	}
	clean := runCrashCampaign(t, false)
	crashed := runCrashCampaign(t, true)

	// The clean arm detects everything and never crashes.
	if got := clean.report.Recall(); got != 1 {
		t.Fatalf("clean recall = %v (report %+v)", got, clean.report)
	}
	if clean.epoch != 1 || clean.snap.Counters["controller-crashes"] != 0 {
		t.Fatalf("clean arm crashed: epoch=%d crashes=%d", clean.epoch, clean.snap.Counters["controller-crashes"])
	}

	// The crashed arm really died and recovered once…
	c := crashed.snap.Counters
	if c["controller-crashes"] != 1 || c["controller-restores"] != 1 {
		t.Fatalf("crash/restore counters = %d/%d", c["controller-crashes"], c["controller-restores"])
	}
	if c["checkpoints-taken"] == 0 {
		t.Fatal("no checkpoints taken before the crash")
	}
	// …and every surviving agent re-registered under the new epoch.
	if crashed.epoch != 2 {
		t.Fatalf("epoch = %d, want 2", crashed.epoch)
	}
	if crashed.regs != 4 || crashed.stale != 0 || !crashed.regEpochsOK {
		t.Fatalf("registry after recovery: regs=%d stale=%d epochsOK=%v",
			crashed.regs, crashed.stale, crashed.regEpochsOK)
	}
	if c["agent-reregisters"] < 4 {
		t.Fatalf("agent-reregisters = %d, want ≥ 4", c["agent-reregisters"])
	}

	// Graceful-degradation envelope: a 90 s outage may cost detection
	// latency but not the campaign.
	if got := crashed.report.Recall(); got < 0.5 {
		t.Errorf("crashed recall = %v, want ≥ 0.5 (report %+v)", got, crashed.report)
	}
	if got := crashed.report.Precision(); got < 0.5 {
		t.Errorf("crashed precision = %v, want ≥ 0.5 (report %+v)", got, crashed.report)
	}

	// Determinism fingerprint: recovery is a pure function of
	// checkpoint + logstore, so an identical rerun converges to
	// identical alarms and blacklists.
	again := runCrashCampaign(t, true)
	if again.fingerprint != crashed.fingerprint {
		t.Fatalf("crash recovery not deterministic:\n  run1 %s\n  run2 %s",
			crashed.fingerprint, again.fingerprint)
	}
}
