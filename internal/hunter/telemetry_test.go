package hunter

import (
	"errors"
	"testing"
	"time"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/faults"
	"skeletonhunter/internal/metrics"
	"skeletonhunter/internal/obs"
	"skeletonhunter/internal/parallelism"
	"skeletonhunter/internal/topology"
)

// TestCrashedOutTaskStateCleanedUp is the regression for the
// countStopped leak: a task whose containers ALL crash never flips
// Finished (FinishTask is a graceful path), so cleanup gated on
// Finished left the stopped-count entry, the analyzer's per-pair
// detector shard, and the controller's registry entry behind forever.
func TestCrashedOutTaskStateCleanedUp(t *testing.T) {
	d := newDeployment(t)
	task := steadyTask(t, d)
	d.Run(2 * time.Minute)
	if d.Analyzer.Shards() != 1 {
		t.Fatalf("shards = %d before crash", d.Analyzer.Shards())
	}

	for _, ct := range task.Containers {
		if !d.CP.CrashContainer(ct.ID) {
			t.Fatalf("crash of %s failed", ct.ID)
		}
	}
	d.Run(2 * time.Minute)

	if d.Agents() != 0 {
		t.Fatalf("agents alive after full crash: %d", d.Agents())
	}
	if len(d.stopped) != 0 {
		t.Fatalf("stopped-count entries leaked: %v", d.stopped)
	}
	if d.Analyzer.Shards() != 0 {
		t.Fatalf("analyzer shard leaked for crashed-out task (%d live)", d.Analyzer.Shards())
	}
	if _, ok := d.Controller.StatsOf(task.ID); ok {
		t.Fatal("controller registry entry leaked for crashed-out task")
	}
}

// TestAutoMigrationNoSpareHosts pins the feedback path's failure mode:
// with auto-migration on and every spare host blacklisted, migration
// must fail with ErrNoMigration, the container stays put, and the
// deployment keeps alarming rather than wedging.
func TestAutoMigrationNoSpareHosts(t *testing.T) {
	d, err := New(Options{
		Seed:        17,
		Spec:        topology.Spec{Pods: 1, HostsPerPod: 8, Rails: 8, AggPerPod: 2},
		Lag:         fastLag(),
		AutoMigrate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	task, err := d.SubmitTask(cluster.TaskSpec{Par: parallelism.Config{TP: 8, PP: 2, DP: 2}})
	if err != nil {
		t.Fatal(err)
	}
	d.Run(6 * time.Minute)

	// Blacklist every host the task is not on: no destination remains.
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
	badHost := victim.Host
	if _, err := d.CP.MigrateContainer(victim.ID); !errors.Is(err, cluster.ErrNoMigration) {
		t.Fatalf("migration with no spare hosts: err = %v, want ErrNoMigration", err)
	}

	in, err := d.Injector.Inject(faults.PCIeNICError, faults.Target{Host: badHost})
	if err != nil {
		t.Fatal(err)
	}
	d.Run(3 * time.Minute)
	d.Injector.Clear(in)

	if d.Migrations() != 0 {
		t.Fatalf("migrated %d containers with no schedulable destination", d.Migrations())
	}
	if victim.Host != badHost {
		t.Fatalf("container moved to %d despite exhausted spares", victim.Host)
	}
	if len(d.Analyzer.Alarms()) == 0 {
		t.Fatal("no alarms: the fault should still be detected when migration is impossible")
	}
}

// TestMigratedAgentKeepsProbing verifies the migration feedback loop
// end to end on the telemetry side: after an auto-migration the
// container's sidecar agent survives (migration re-homes the same
// container in place), keeps completing rounds, and its probe records
// flow from the NEW host into the log service.
func TestMigratedAgentKeepsProbing(t *testing.T) {
	d, err := New(Options{
		Seed:        17,
		Spec:        topology.Spec{Pods: 1, HostsPerPod: 8, Rails: 8, AggPerPod: 2},
		Lag:         fastLag(),
		AutoMigrate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	task, err := d.SubmitTask(cluster.TaskSpec{Par: parallelism.Config{TP: 8, PP: 2, DP: 2}})
	if err != nil {
		t.Fatal(err)
	}
	d.Run(6 * time.Minute)

	victim := task.Containers[0]
	badHost := victim.Host
	in, err := d.Injector.Inject(faults.PCIeNICError, faults.Target{Host: badHost})
	if err != nil {
		t.Fatal(err)
	}
	d.Run(2 * time.Minute)
	d.Injector.Clear(in)
	if d.Migrations() == 0 || victim.Host == badHost {
		t.Fatalf("no migration happened (migrations=%d host=%d)", d.Migrations(), victim.Host)
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

// campaignReport is one telemetry-fault campaign run's outcome.
type campaignReport struct {
	snap   obs.Snapshot
	report metrics.Report
}

// runCampaign plays a fixed multi-hour scenario — three Table-1 faults
// spaced ~40 min apart on a steady task — optionally under heavy
// telemetry-plane weather: ≥20 % batch drop, duplication, reordering,
// delayed analysis rounds, and a sidecar crash/restart storm before
// each fault. Identical seeds and fault schedules keep the two arms
// comparable.
func runCampaign(t *testing.T, telemetryFaults bool) campaignReport {
	t.Helper()
	d, err := New(Options{
		Seed: 29,
		Spec: topology.Spec{Pods: 1, HostsPerPod: 8, Rails: 8, AggPerPod: 2},
		Lag:  fastLag(),
	})
	if err != nil {
		t.Fatal(err)
	}
	task, err := d.SubmitTask(cluster.TaskSpec{Par: parallelism.Config{TP: 8, PP: 2, DP: 2}})
	if err != nil {
		t.Fatal(err)
	}
	d.Run(10 * time.Minute) // steady state + detector history

	if telemetryFaults {
		d.SetTelemetryFaults(faults.TelemetryOptions{
			DropBatchProb:      0.25,
			DuplicateBatchProb: 0.05,
			ReorderBatchProb:   0.05,
			DelayRoundProb:     0.30,
		})
	}

	inject := func(issue faults.IssueType, tgt faults.Target, hold time.Duration) {
		if telemetryFaults {
			d.AgentRestartStorm(0.5, 2*time.Minute)
		}
		d.Run(5 * time.Minute)
		in, err := d.Injector.Inject(issue, tgt)
		if err != nil {
			t.Fatal(err)
		}
		d.Run(hold)
		d.Injector.Clear(in)
		d.Run(35 * time.Minute) // quiet tail between incidents
	}

	a := task.Containers[0].Addrs[0]
	b := task.Containers[2].Addrs[3]
	inject(faults.RNICPortDown, faults.Target{Host: a.Host, Rail: a.Rail}, 4*time.Minute)
	inject(faults.RNICPortFlapping, faults.Target{Host: b.Host, Rail: b.Rail}, 4*time.Minute)
	inject(faults.CRCError, faults.Target{
		Link: topology.MakeLinkID(
			topology.NIC{Host: a.Host, Rail: a.Rail}.ID(),
			d.Fabric.ToR(d.Fabric.PodOf(a.Host), a.Rail)),
	}, 4*time.Minute)

	rep := campaignReport{
		snap:   d.Stats(),
		report: metrics.Score(d.Injector.Injections(), d.Analyzer.Alarms(), 2*time.Minute),
	}
	// Delayed rounds queue records instead of shedding them, so after a
	// flush every record that was ingested has reached a detector or
	// been withdrawn.
	recordLedger(t, d)
	return rep
}

// TestTelemetryFaultCampaign is the acceptance scenario: a multi-hour
// simulated run under ≥20 % batch drop plus an agent restart storm
// completes without panic, the self-monitoring stats report the drops
// and delays the plane absorbed, no ingested record goes missing, and
// precision/recall degrade gracefully against the fault-free arm.
func TestTelemetryFaultCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hour simulated campaign")
	}
	clean := runCampaign(t, false)
	faulty := runCampaign(t, true)

	// The clean arm detects everything.
	if got := clean.report.Recall(); got != 1 {
		t.Fatalf("clean campaign recall = %v, want 1 (report %+v)", got, clean.report)
	}

	// The faulted arm absorbed real telemetry damage…
	c := faulty.snap.Counters
	for _, key := range []string{"batches-dropped", "rounds-delayed", "agent-crashes", "agent-restarts"} {
		if c[key] == 0 {
			t.Errorf("faulted campaign %s = 0, want > 0", key)
		}
	}
	// …while the clean arm shows none.
	for _, key := range []string{"batches-dropped", "records-shed", "rounds-delayed", "agent-crashes"} {
		if n := clean.snap.Counters[key]; n != 0 {
			t.Errorf("clean campaign %s = %d, want 0", key, n)
		}
	}

	// Graceful degradation envelope: the plane keeps detecting most
	// faults (recall within 50 % of clean) and alarms stay dominated by
	// real incidents.
	if got := faulty.report.Recall(); got < 0.5 {
		t.Errorf("faulted campaign recall = %v, want ≥ 0.5 (report %+v)", got, faulty.report)
	}
	if got := faulty.report.Precision(); got < 0.5 {
		t.Errorf("faulted campaign precision = %v, want ≥ 0.5 (report %+v)", got, faulty.report)
	}
}
