// Control-plane crash recovery for the deployment (ISSUE: the paper's
// always-on monitoring service must survive its own controller
// restarting without erasing probing state or blinding the localizer).
//
// The durable state is deliberately small: the controller registry
// snapshot (tasks, leases, phases, skeletons), the analyzer's alarms
// and blacklist, the operations ledger of blocked hosts, task secrets,
// and installed skeleton inferences. Everything
// else is rebuilt deterministically on recovery:
//
//   - task membership and container departure counts resynchronize
//     from the cluster control plane (the paper's §6 controller reads
//     the task database on startup);
//   - the detector's per-pair windows are rebuilt by replaying the
//     retained probe records from the logstore — the log service is
//     the durable telemetry store, so the analyzer's streaming state
//     is a pure function of it.
//
// Because both rebuilds are deterministic functions of checkpoint +
// logstore contents, two recoveries from the same checkpoint produce
// bit-identical alarms and blacklists (the Fingerprint test pins
// this).
package hunter

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"skeletonhunter/internal/analyzer"
	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/component"
	"skeletonhunter/internal/controller"
	"skeletonhunter/internal/correlate"
	"skeletonhunter/internal/faults"
	"skeletonhunter/internal/incident"
	"skeletonhunter/internal/obs"
	"skeletonhunter/internal/probe"
	"skeletonhunter/internal/remedy"
	"skeletonhunter/internal/skeleton"
)

// CheckpointVersion is the deployment checkpoint format version.
// Version 2 added the incident plane's state: incident records are
// operator-durable artifacts, so they ride the checkpoint verbatim
// rather than being rebuilt by replay. Version 3 added the
// remediation plane: the audit ledger, deferred queue, cooldowns and
// budget window ride along so healing survives a controller crash —
// in-flight verifies resume because their deadlines are data the next
// tick scans, not timers the dead process held. Version 4 added the
// gray-failure correlator: CUSUM calibrations, the dedup bloom filter
// (cells and RNG cursor), alarm ledger, and lead-lag windows restore
// exactly — a replayed record the correlator already observed is
// skipped by high-water mark, so restore+replay equals never-crashed.
const CheckpointVersion = 4

// Checkpoint is a durable image of the monitoring system's control
// plane at one instant.
type Checkpoint struct {
	Version int
	At      time.Duration

	Controller controller.Snapshot
	Analyzer   analyzer.Snapshot
	Incidents  incident.Snapshot
	Remedy     remedy.Snapshot
	Correlate  correlate.Snapshot

	BlockedHosts []int
	Secrets      map[cluster.TaskID]string
	Inferences   map[cluster.TaskID]skeleton.Inference
}

// Checkpoint captures the control-plane state and remembers it as the
// latest recovery point. Returns nil without touching the recovery
// point while the controller is down — a dead process writes no
// checkpoints, and clobbering the last good one with amnesia would
// defeat the recovery.
func (d *Deployment) Checkpoint() *Checkpoint {
	if d.Controller.Down() {
		return nil
	}
	ck := &Checkpoint{
		Version:      CheckpointVersion,
		At:           d.Engine.Now(),
		Controller:   d.Controller.Snapshot(),
		Analyzer:     d.Analyzer.SnapshotState(),
		Incidents:    d.Incidents.Snapshot(),
		Remedy:       remedy.Snapshot{Version: remedy.SnapshotVersion},
		Correlate:    correlate.Snapshot{Version: correlate.SnapshotVersion},
		BlockedHosts: d.BlockedHosts(),
		Secrets:      copyTaskMap(d.secrets),
		Inferences:   copyTaskMap(d.inferences),
	}
	if d.Remedy != nil {
		ck.Remedy = d.Remedy.Snapshot()
	}
	if d.Correlate != nil {
		ck.Correlate = d.Correlate.Snapshot()
	}
	d.lastCkpt = ck
	d.Obs.Inc(obs.CheckpointsTaken)
	return ck
}

// LastCheckpoint returns the most recent checkpoint (nil before the
// first one).
func (d *Deployment) LastCheckpoint() *Checkpoint { return d.lastCkpt }

// CrashController models the monitoring control plane dying: the
// controller registry, the analyzer's streaming state, alarms and
// blacklist, and the deployment's own ledgers all vanish. Sidecar
// agents and the logstore are unaffected (they are separate processes
// in the paper's deployment); agents simply get empty ping lists until
// recovery.
func (d *Deployment) CrashController() {
	d.Controller.Crash()
	d.Analyzer.Crash()
	d.Incidents.Crash()
	if d.Remedy != nil {
		d.Remedy.Crash()
	}
	if d.Correlate != nil {
		d.Correlate.Crash()
	}
	d.blockedHosts = make(map[int]bool)
	d.stopped = make(map[cluster.TaskID]int)
	d.inferences = make(map[cluster.TaskID]skeleton.Inference)
	d.secrets = make(map[cluster.TaskID]string)
	d.Obs.Inc(obs.ControllerCrashes)
	d.refreshAPI()
}

// RecoverFrom restarts the control plane from a checkpoint: the
// controller comes back under a new epoch serving the snapshotted
// registry as stale leases, the analyzer gets its alarms and blacklist
// back, ledgers are restored, task membership and departure counts
// resync against the cluster control plane, and the detector state is
// rebuilt by replaying the logstore's retained records since the
// checkpoint.
func (d *Deployment) RecoverFrom(ck *Checkpoint) error {
	if ck.Version != CheckpointVersion {
		return fmt.Errorf("hunter: checkpoint version %d, want %d", ck.Version, CheckpointVersion)
	}
	resolve := func(id cluster.TaskID) (*cluster.Task, bool) {
		t, ok := d.CP.Task(id)
		return t, ok
	}
	if _, err := d.Controller.Restore(ck.Controller, resolve); err != nil {
		return err
	}
	d.Analyzer.RestoreState(ck.Analyzer)
	if err := d.Incidents.Restore(ck.Incidents); err != nil {
		return err
	}
	if d.Remedy != nil {
		if err := d.Remedy.Restore(ck.Remedy); err != nil {
			return err
		}
	}
	if d.Correlate != nil {
		// Restore before the logstore replay below: restored shards carry
		// a high-water mark that makes replayed records the correlator
		// already folded idempotent.
		if err := d.Correlate.Restore(ck.Correlate); err != nil {
			return err
		}
	}

	d.blockedHosts = make(map[int]bool, len(ck.BlockedHosts))
	for _, h := range ck.BlockedHosts {
		d.blockedHosts[h] = true
	}
	d.secrets = copyTaskMap(ck.Secrets)
	d.inferences = copyTaskMap(ck.Inferences)

	// Resync against the cluster control plane (the task database):
	// tasks submitted after the checkpoint — or during the outage —
	// are preloaded now, and departure counts are recomputed from
	// container states because stop events during the outage were
	// lost. Tasks() enumerates in submission order, so this pass is
	// deterministic.
	d.stopped = make(map[cluster.TaskID]int)
	for _, t := range d.CP.Tasks() {
		gone := 0
		for _, c := range t.Containers {
			if c.State == cluster.Terminated {
				gone++
			}
		}
		if gone == len(t.Containers) {
			// Everything departed while we were away: tear down rather
			// than resurrect.
			d.forgetTask(t.ID)
			continue
		}
		d.Controller.AddTask(t) // no-op for restored tasks
		if gone > 0 {
			d.stopped[t.ID] = gone
		}
	}

	// Rebuild detector state: replay every retained probe record newer
	// than the checkpoint through the fresh shards, task by task in
	// sorted ID order. Alarms those records already raised before the
	// crash are in the restored alarm list; re-detections they cause
	// post-restore land as new alarms, which the scoring grace window
	// absorbs. The ring holds a record count, not a time span: when it
	// has already turned over past the checkpoint the replay is partial,
	// and that is counted rather than silent.
	if d.logTruncatedSince(ck.At) {
		d.Obs.Inc(obs.ReplayTruncated)
	}
	for _, id := range d.Controller.TaskIDs() {
		recs := d.Log.ByTask(string(id), ck.At)
		if len(recs) > 0 {
			d.Analyzer.IngestBatch(probe.Batch(recs))
		}
	}
	d.Obs.Inc(obs.ControllerRestores)
	d.refreshAPI()
	return nil
}

// RecoverFromLast recovers from the most recent checkpoint; with none
// taken yet, it cold-starts: an empty registry under a bumped epoch,
// resynced from the cluster control plane, with the full retained log
// replayed.
func (d *Deployment) RecoverFromLast() error {
	ck := d.lastCkpt
	if ck == nil {
		ck = &Checkpoint{
			Version: CheckpointVersion,
			Controller: controller.Snapshot{
				Version: controller.SnapshotVersion,
				Epoch:   d.Controller.Epoch(),
			},
			Incidents: incident.Snapshot{Version: incident.SnapshotVersion},
			Remedy:    remedy.Snapshot{Version: remedy.SnapshotVersion},
			Correlate: correlate.Snapshot{Version: correlate.SnapshotVersion},
		}
	}
	return d.RecoverFrom(ck)
}

// ScheduleControllerCrash injects a controller crash at `at` (absolute
// sim time) with recovery from the last checkpoint `downtime` later.
// The returned record reports what fired.
func (d *Deployment) ScheduleControllerCrash(at, downtime time.Duration) *faults.ControllerCrash {
	return faults.ScheduleControllerCrash(d.Engine, at, downtime,
		func(time.Duration) { d.CrashController() },
		func(time.Duration) {
			if err := d.RecoverFromLast(); err != nil {
				// The only failure is a version mismatch on a checkpoint
				// this same process wrote — a programming error.
				panic(err)
			}
		})
}

// Fingerprint digests the analyzer's alarms and blacklist — and the
// incident ledger derived from them — into a stable hash: the
// determinism probe, equal histories hash equal.
func (d *Deployment) Fingerprint() string {
	h := sha256.New()
	for _, al := range d.Analyzer.Alarms() {
		fmt.Fprintf(h, "alarm %d\n", al.At)
		for _, a := range al.Anomalies {
			fmt.Fprintf(h, " a %+v\n", a)
		}
		for _, v := range al.Verdicts {
			fmt.Fprintf(h, " v %+v\n", v)
		}
	}
	bl := d.Analyzer.Blacklist()
	ids := make([]component.ID, 0, len(bl))
	for id := range bl {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		fmt.Fprintf(h, "bl %s %d\n", id, bl[id])
	}
	fmt.Fprintf(h, "inc %s\n", d.Incidents.Fingerprint())
	if d.Remedy != nil {
		fmt.Fprintf(h, "rem %s\n", d.Remedy.Fingerprint())
	}
	if d.Correlate != nil {
		fmt.Fprintf(h, "cor %s\n", d.Correlate.Fingerprint())
	}
	return hex.EncodeToString(h.Sum(nil))
}

func copyTaskMap[V any](m map[cluster.TaskID]V) map[cluster.TaskID]V {
	out := make(map[cluster.TaskID]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
