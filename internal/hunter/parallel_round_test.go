package hunter

import (
	"testing"
	"time"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/faults"
	"skeletonhunter/internal/obs"
	"skeletonhunter/internal/parallelism"
	"skeletonhunter/internal/topology"
)

// runWorkerCampaign plays a two-tenant fault scenario at the given
// round-engine/analyzer worker count and digests the outcome (alarms,
// blacklist, incidents) into the deployment fingerprint. With crash
// set, the controller crashes mid-campaign and recovers from the last
// periodic checkpoint while parallel rounds keep firing. Non-zero
// telemetry options are armed before the first round.
func runWorkerCampaign(t *testing.T, workers int, crash bool, telemetry faults.TelemetryOptions) (string, *Deployment) {
	t.Helper()
	d, err := New(Options{
		Seed:               23,
		Spec:               topology.Spec{Pods: 1, HostsPerPod: 8, Rails: 8, AggPerPod: 2},
		Lag:                fastLag(),
		Workers:            workers,
		CheckpointInterval: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if telemetry != (faults.TelemetryOptions{}) {
		d.SetTelemetryFaults(telemetry)
	}
	t1, err := d.SubmitTask(cluster.TaskSpec{Par: parallelism.Config{TP: 8, PP: 2, DP: 2}})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := d.SubmitTask(cluster.TaskSpec{Par: parallelism.Config{TP: 8, PP: 2, DP: 2}})
	if err != nil {
		t.Fatal(err)
	}
	d.Run(7 * time.Minute)

	a := t1.Containers[0].Addrs[0]
	if _, err := d.Injector.Inject(faults.RNICPortDown, faults.Target{Host: a.Host, Rail: a.Rail}); err != nil {
		t.Fatal(err)
	}
	b := t2.Containers[1].Addrs[2]
	if _, err := d.Injector.Inject(faults.RNICPortFlapping, faults.Target{Host: b.Host, Rail: b.Rail}); err != nil {
		t.Fatal(err)
	}
	d.Run(time.Minute)
	if crash {
		d.CrashController()
		d.Run(30 * time.Second)
		if err := d.RecoverFromLast(); err != nil {
			t.Fatal(err)
		}
	}
	d.Run(2 * time.Minute)
	d.Analyzer.Flush(d.Engine.Now())

	if got := d.Obs.Get(obs.ProbeRoundsGrouped); got == 0 {
		t.Fatal("campaign never fired a grouped probe round; parallel engine not engaged")
	}
	return d.Fingerprint(), d
}

// telemetryWeather arms the batch-level telemetry faults, which are
// drawn inside the sharded round.
var telemetryWeather = faults.TelemetryOptions{
	DropBatchProb:      0.25,
	DuplicateBatchProb: 0.05,
	ReorderBatchProb:   0.05,
}

// TestWorkerCountDeterminism is the tentpole acceptance check: alarms,
// blacklist, and incident fingerprints must be bit-identical for
// -workers 1, 4, and 16 on the same seed — including a campaign that
// crashes and recovers the controller while parallel rounds run, and
// one whose batches are dropped, duplicated and reordered per shard.
func TestWorkerCountDeterminism(t *testing.T) {
	for _, arm := range []struct {
		name      string
		crash     bool
		telemetry faults.TelemetryOptions
	}{
		{"plain", false, faults.TelemetryOptions{}},
		{"crash", true, faults.TelemetryOptions{}},
		{"telemetry", false, telemetryWeather},
	} {
		base, d := runWorkerCampaign(t, 1, arm.crash, arm.telemetry)
		if arm.name == "plain" && len(d.Analyzer.Alarms()) == 0 {
			t.Fatal("scenario raised no alarms; determinism check has no teeth")
		}
		if arm.telemetry != (faults.TelemetryOptions{}) {
			c := d.Stats().Counters
			for _, key := range []string{"batches-dropped", "batches-duplicated", "batches-reordered"} {
				if c[key] == 0 {
					t.Errorf("%s: %s = 0, want > 0", arm.name, key)
				}
			}
		}
		for _, w := range []int{4, 16} {
			if got, _ := runWorkerCampaign(t, w, arm.crash, arm.telemetry); got != base {
				t.Errorf("%s: workers=%d fingerprint %s != workers=1 fingerprint %s",
					arm.name, w, got, base)
			}
		}
	}
}

// TestParallelRoundRaceCampaign drives many task shards through the
// parallel round engine at workers=4 with network and telemetry faults
// active — the shard-ownership contract (worker-owned probe contexts,
// pre-warmed analyzer shards, per-task held telemetry batches) is
// certified by `make race` running this test under the race detector.
func TestParallelRoundRaceCampaign(t *testing.T) {
	d, err := New(Options{
		Seed:    7,
		Spec:    topology.Spec{Pods: 1, HostsPerPod: 16, Rails: 8, AggPerPod: 2},
		Lag:     fastLag(),
		Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.SetTelemetryFaults(telemetryWeather)
	// Six 2-host tenants: six task shards, so four workers genuinely
	// run concurrently each grouped round.
	for i := 0; i < 6; i++ {
		if _, err := d.SubmitTask(cluster.TaskSpec{Par: parallelism.Config{TP: 8, PP: 2, DP: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	d.Run(3 * time.Minute)
	if _, err := d.Injector.Inject(faults.RNICPortDown, faults.Target{Host: 2, Rail: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Injector.Inject(faults.SwitchPortDown, faults.Target{
		Link: topology.MakeLinkID(topology.NIC{Host: 5, Rail: 3}.ID(), d.Fabric.ToR(0, 3)),
	}); err != nil {
		t.Fatal(err)
	}
	d.Run(3 * time.Minute)
	d.Analyzer.Flush(d.Engine.Now())

	if d.Agents() == 0 {
		t.Fatal("no live agents")
	}
	stats := d.Stats().Counters
	if stats[obs.ProbeRoundsGrouped.String()] == 0 {
		t.Fatal("no grouped probe rounds fired")
	}
	if stats[obs.BatchesIngested.String()] == 0 {
		t.Fatal("no batches ingested through the sharded path")
	}
	if stats[obs.WorkerBusyNanos.String()] == 0 {
		t.Fatal("worker busy accounting never recorded")
	}
	for _, c := range []obs.Counter{obs.BatchesDropped, obs.BatchesDuplicated, obs.BatchesReordered} {
		if stats[c.String()] == 0 {
			t.Errorf("%s = 0; telemetry faults never fired", c)
		}
	}
	if d.Stats().Histograms["stage-ingest-ms"].Count == 0 {
		t.Fatal("faulted rounds never landed through the barrier (stage-ingest-ms empty)")
	}
}
