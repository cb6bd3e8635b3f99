package controller

import (
	"reflect"
	"testing"
	"time"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/sim"
	"skeletonhunter/internal/skeleton"
)

// steadyController runs the task to steady state (all agents
// registered via lifecycle events) and returns the pieces.
func steadyController(t *testing.T) (eng *sim.Engine, task *cluster.Task, ctl *Controller, resolve func(cluster.TaskID) (*cluster.Task, bool)) {
	t.Helper()
	e, cp, tk, c := makeTask(t)
	c.UseClock(e.Now)
	e.RunUntil(10 * time.Minute)
	return e, tk, c, func(id cluster.TaskID) (*cluster.Task, bool) { return cp.Task(id) }
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	eng, task, ctl, resolve := steadyController(t)
	inf := skeleton.Inference{Pairs: []skeleton.Pair{{A: 0, B: 8}, {A: 8, B: 16}}}
	if err := ctl.ApplySkeleton(task.ID, inf); err != nil {
		t.Fatal(err)
	}
	wantStats, _ := ctl.StatsOf(task.ID)
	wantList := ctl.PingListInto(task.ID, 0, nil)
	wantRegs := ctl.Registrations(task.ID)
	if len(wantRegs) != task.NumContainers() {
		t.Fatalf("registrations = %d, want %d", len(wantRegs), task.NumContainers())
	}

	snap := ctl.Snapshot()
	if snap.Version != SnapshotVersion || snap.Epoch != 1 {
		t.Fatalf("snapshot version/epoch = %d/%d", snap.Version, snap.Epoch)
	}
	ctl.Crash()
	if !ctl.Down() {
		t.Fatal("controller not down after Crash")
	}
	if got := ctl.PingListInto(task.ID, 0, nil); got != nil {
		t.Fatalf("down controller served %d targets", len(got))
	}
	// Mutations while down are dropped like writes to a dead process.
	ctl.Register(task.ID, 0)
	if ctl.Registered(task.ID, 0) {
		t.Fatal("registration landed on a down controller")
	}

	dropped, err := ctl.Restore(snap, resolve)
	if err != nil || dropped != 0 {
		t.Fatalf("Restore = (%d, %v)", dropped, err)
	}
	if ctl.Down() {
		t.Fatal("controller still down after Restore")
	}
	if got := ctl.Epoch(); got != 2 {
		t.Fatalf("epoch after restore = %d, want 2", got)
	}
	if got, _ := ctl.StatsOf(task.ID); got.Phase != wantStats.Phase {
		t.Fatalf("phase after restore = %v, want %v", got.Phase, wantStats.Phase)
	}
	if got := ctl.PingListInto(task.ID, 0, nil); !reflect.DeepEqual(got, wantList) {
		t.Fatalf("ping list after restore = %+v, want %+v", got, wantList)
	}
	// Every restored lease is stale (granted by epoch 1) with an expiry.
	if got := ctl.StaleRegistrations(task.ID); got != len(wantRegs) {
		t.Fatalf("stale registrations = %d, want %d", got, len(wantRegs))
	}
	for _, r := range ctl.Registrations(task.ID) {
		if r.Epoch != 1 || r.Expires == 0 {
			t.Fatalf("restored lease = %+v, want epoch 1 with expiry", r)
		}
	}
	// Re-registering renews onto the current epoch and clears expiry.
	ctl.Register(task.ID, 0)
	if got := ctl.StaleRegistrations(task.ID); got != len(wantRegs)-1 {
		t.Fatalf("stale registrations after renewal = %d", got)
	}
	regs := ctl.Registrations(task.ID)
	if regs[0].Epoch != 2 || regs[0].Expires != 0 {
		t.Fatalf("renewed lease = %+v", regs[0])
	}
	_ = eng
}

func TestRestoredLeasesExpireWithoutRenewal(t *testing.T) {
	eng, task, ctl, resolve := steadyController(t)
	ctl.recoveryGrace = 30 * time.Second
	snap := ctl.Snapshot()
	ctl.Crash()
	if _, err := ctl.Restore(snap, resolve); err != nil {
		t.Fatal(err)
	}
	if got := ctl.PingListInto(task.ID, 0, nil); len(got) == 0 {
		t.Fatal("restored lease not serving inside the grace window")
	}
	// Nobody renews; past the grace window the leases lapse and the
	// ping lists empty out instead of pointing at ghosts forever.
	eng.RunUntil(11 * time.Minute)
	if got := ctl.PingListInto(task.ID, 0, nil); got != nil {
		t.Fatalf("expired lease still serving %d targets", len(got))
	}
	if got := ctl.Registrations(task.ID); len(got) != 0 {
		t.Fatalf("expired leases still listed: %+v", got)
	}
	// A renewal during the outage of expiry resurrects the agent.
	ctl.Register(task.ID, 1)
	if !ctl.Registered(task.ID, 1) {
		t.Fatal("fresh registration after expiry not accepted")
	}
}

func TestLiveLeasesNeverExpire(t *testing.T) {
	// Leases granted live (not via Restore) must not expire: a crashed
	// container's endpoint has to stay probed so unconnectivity is
	// detected (§5.1's registry semantics).
	eng, task, ctl, _ := steadyController(t)
	ctl.recoveryGrace = time.Second
	eng.RunUntil(60 * time.Minute)
	if got := ctl.Registrations(task.ID); len(got) != task.NumContainers() {
		t.Fatalf("live leases decayed to %d", len(got))
	}
}

func TestRestoreDropsUnresolvableTasks(t *testing.T) {
	_, task, ctl, _ := steadyController(t)
	snap := ctl.Snapshot()
	ctl.Crash()
	dropped, err := ctl.Restore(snap, func(cluster.TaskID) (*cluster.Task, bool) { return nil, false })
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	if _, ok := ctl.StatsOf(task.ID); ok {
		t.Fatal("unresolvable task resurrected")
	}
}

func TestRestoreRejectsUnknownVersion(t *testing.T) {
	_, _, ctl, resolve := steadyController(t)
	snap := ctl.Snapshot()
	snap.Version = 99
	if _, err := ctl.Restore(snap, resolve); err == nil {
		t.Fatal("version 99 accepted")
	}
}

func TestSnapshotDeterministicFingerprint(t *testing.T) {
	_, _, ctl, _ := steadyController(t)
	a, b := ctl.Snapshot(), ctl.Snapshot()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical state, different fingerprints")
	}
	ctl.Deregister(a.Tasks[0].ID, 0)
	if ctl.Snapshot().Fingerprint() == a.Fingerprint() {
		t.Fatal("state change did not move the fingerprint")
	}
}

func TestPingListInto(t *testing.T) {
	_, task, ctl, _ := steadyController(t)
	want := ctl.PingListInto(task.ID, 0, nil)
	if len(want) == 0 {
		t.Fatal("steady controller serves no targets")
	}
	// The buffer is filled from index 0 and its backing array reused.
	buf := make([]Target, 3, 4*len(want))
	got := ctl.PingListInto(task.ID, 0, buf)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("PingListInto = %+v, want %+v", got, want)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("PingListInto did not reuse the caller's buffer")
	}
	if got := ctl.PingListInto("no-such-task", 0, buf); len(got) != 0 {
		t.Fatalf("unknown task served %d targets", len(got))
	}

	// Frozen: the cached snapshot is copied out, never aliased, and
	// survives a phase change.
	ctl.SetFrozen(true)
	frozen := ctl.PingListInto(task.ID, 0, nil)
	frozen[0] = Target{}
	inf := skeleton.Inference{Pairs: []skeleton.Pair{{A: 0, B: 8}}}
	if err := ctl.ApplySkeleton(task.ID, inf); err != nil {
		t.Fatal(err)
	}
	if got := ctl.PingListInto(task.ID, 0, buf); !reflect.DeepEqual(got, want) {
		t.Fatalf("frozen PingListInto = %+v, want the pre-freeze list %+v", got, want)
	}
	ctl.SetFrozen(false)
	if got := ctl.PingListInto(task.ID, 0, buf); reflect.DeepEqual(got, want) {
		t.Fatal("unfrozen PingListInto still serves the frozen list")
	}

	ctl.Crash()
	if got := ctl.PingListInto(task.ID, 0, buf); len(got) != 0 {
		t.Fatalf("down controller served %d targets", len(got))
	}
}
