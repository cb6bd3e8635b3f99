package analyzer

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"time"
	"unsafe"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/component"
	"skeletonhunter/internal/detect"
	"skeletonhunter/internal/localize"
	"skeletonhunter/internal/netsim"
	"skeletonhunter/internal/obs"
	"skeletonhunter/internal/overlay"
	"skeletonhunter/internal/parallelism"
	"skeletonhunter/internal/probe"
	"skeletonhunter/internal/sim"
	"skeletonhunter/internal/topology"
)

type rig struct {
	eng  *sim.Engine
	net  *netsim.Net
	cp   *cluster.ControlPlane
	an   *Analyzer
	task *cluster.Task
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.NewEngine(19)
	fab, err := topology.New(topology.Spec{Pods: 1, HostsPerPod: 8, Rails: 8, AggPerPod: 2})
	if err != nil {
		t.Fatal(err)
	}
	ovl := overlay.NewNetwork()
	cp := cluster.NewControlPlane(eng, fab, ovl, cluster.DefaultLagModel())
	net := netsim.New(eng, fab, ovl)
	loc := localize.NewWithControlPlane(net, cp)
	an := New(eng, loc, Config{})
	an.Start()
	task, err := cp.Submit(cluster.TaskSpec{Par: parallelism.Config{TP: 8, PP: 2, DP: 2}})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(10 * time.Minute)
	return &rig{eng: eng, net: net, cp: cp, an: an, task: task}
}

// record builds a probe record for one pair probe at the current time.
func (r *rig) record(srcC, dstC, rail int, entropy uint64) probe.Record {
	src := r.task.Containers[srcC].Addrs[rail]
	dst := r.task.Containers[dstC].Addrs[rail]
	res := r.net.Probe(src, dst, entropy)
	return probe.Record{
		Task:         r.task.ID,
		SrcContainer: srcC, SrcRail: rail, DstContainer: dstC, DstRail: rail,
		Src: src, Dst: dst,
		At: r.eng.Now(), RTT: res.RTT, Lost: res.Lost, Path: res.UnderlayPath,
	}
}

// pump feeds probe records for all same-rail pairs for dur.
func (r *rig) pump(dur time.Duration) {
	end := r.eng.Now() + dur
	var entropy uint64
	for r.eng.Now() < end {
		for s := 0; s < 4; s++ {
			for d := 0; d < 4; d++ {
				if s == d {
					continue
				}
				for rail := 0; rail < 2; rail++ { // two rails suffice
					entropy++
					r.an.IngestBatch(probe.Batch{r.record(s, d, rail, entropy)})
				}
			}
		}
		r.eng.RunUntil(r.eng.Now() + time.Second)
	}
}

func TestAnalyzerHealthySilent(t *testing.T) {
	r := newRig(t)
	r.pump(8 * time.Minute)
	if len(r.an.Alarms()) != 0 {
		t.Fatalf("healthy pump raised %d alarms", len(r.an.Alarms()))
	}
}

func TestAnalyzerDetectsAndLocalizes(t *testing.T) {
	r := newRig(t)
	r.pump(6 * time.Minute)
	// Down the rail-0 NIC of container 1's host.
	addr := r.task.Containers[1].Addrs[0]
	nic := topology.NIC{Host: addr.Host, Rail: 0}
	r.net.SetNodeCondition(nic.ID(), &netsim.Condition{Down: true})
	r.pump(2 * time.Minute)

	alarms := r.an.Alarms()
	if len(alarms) == 0 {
		t.Fatal("no alarms")
	}
	found := false
	for _, al := range alarms {
		for _, c := range al.Components() {
			if string(c) == "rnic/h1/r0" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no alarm names rnic/h1/r0: %+v", alarms)
	}
	if _, ok := r.an.Blacklisted("rnic/h1/r0"); !ok {
		t.Fatal("component not blacklisted")
	}
}

func TestAnalyzerRoundWithNoPending(t *testing.T) {
	r := newRig(t)
	before := len(r.an.Alarms())
	r.an.Round(r.eng.Now())
	if len(r.an.Alarms()) != before {
		t.Fatal("empty round produced an alarm")
	}
}

func TestAnalyzerFlushForcesEvaluation(t *testing.T) {
	r := newRig(t)
	r.pump(6 * time.Minute)
	addr := r.task.Containers[1].Addrs[0]
	r.net.SetNodeCondition(topology.NIC{Host: addr.Host, Rail: 0}.ID(), &netsim.Condition{Down: true})
	// Feed less than a full window, then flush.
	r.pump(10 * time.Second)
	r.an.Flush(r.eng.Now())
	if len(r.an.Alarms()) == 0 {
		t.Fatal("flush did not surface the partial-window anomaly")
	}
}

func TestAnalyzerForgetContainerWithdrawsPending(t *testing.T) {
	r := newRig(t)
	r.pump(6 * time.Minute)
	// Kill container 1's endpoints abruptly (simulates a stop mid-window).
	for _, a := range r.task.Containers[1].Addrs {
		r.net.Overlay.DetachEndpoint(a)
	}
	r.pump(40 * time.Second) // loss accumulates into pending anomalies
	// Control plane vouches: graceful departure.
	r.an.ForgetContainer(string(r.task.ID), 1)
	r.an.Round(r.eng.Now())
	for _, al := range r.an.Alarms() {
		for _, an := range al.Anomalies {
			if an.Key.SrcContainer == 1 || an.Key.DstContainer == 1 {
				t.Fatalf("forgotten container still alarmed: %+v", an.Key)
			}
		}
	}
}

func TestAnalyzerForgetTask(t *testing.T) {
	r := newRig(t)
	r.pump(2 * time.Minute)
	r.an.ForgetTask(string(r.task.ID))
	// Detaching everything then pumping nothing: no state should leak.
	r.an.Flush(r.eng.Now())
	if len(r.an.Alarms()) != 0 {
		t.Fatal("forgotten task produced alarms")
	}
}

// TestShardKeysStaySorted pins the shard map's fan-out and merge
// order: keys are created once, kept ascending through inserts and
// deletes, and always match the map.
func TestShardKeysStaySorted(t *testing.T) {
	r := newRig(t)
	an := New(r.eng, r.an.Localizer, Config{})
	for _, k := range []string{"task-3", "task-1", "task-10", "task-2", "task-2"} {
		an.WarmShard(k)
	}
	if want := []string{"task-1", "task-10", "task-2", "task-3"}; !slices.Equal(an.keys, want) {
		t.Fatalf("keys = %v, want %v", an.keys, want)
	}
	an.ForgetTask("task-10")
	an.ForgetTask("task-10") // forgetting twice is a no-op
	if want := []string{"task-1", "task-2", "task-3"}; !slices.Equal(an.keys, want) {
		t.Fatalf("keys after forget = %v, want %v", an.keys, want)
	}
	if an.Shards() != len(an.keys) {
		t.Fatalf("%d shards for %d keys", an.Shards(), len(an.keys))
	}
	for _, k := range an.keys {
		if an.shards[k] == nil || an.shards[k].task != k {
			t.Fatalf("key %s has no matching shard", k)
		}
	}
}

func TestAlarmComponentsDeduplicated(t *testing.T) {
	al := Alarm{Verdicts: []localize.Verdict{
		{Components: []component.ID{"rnic/h1/r0", "vswitch/h1"}},
		{Components: []component.ID{"rnic/h1/r0"}},
	}}
	got := al.Components()
	if len(got) != 2 {
		t.Fatalf("components = %v, want deduplicated pair", got)
	}
}

func TestAlarmComponentsSortedDeterministically(t *testing.T) {
	// Incident correlation keys off the returned IDs in order, so the
	// result must be a pure function of the set of named components —
	// identical regardless of how verdicts happened to be arranged.
	perms := [][]localize.Verdict{
		{
			{Components: []component.ID{"vswitch/h1", "rnic/h1/r0"}},
			{Components: []component.ID{"link/a--b", "switch/tor/0/0"}},
		},
		{
			{Components: []component.ID{"switch/tor/0/0", "link/a--b"}},
			{Components: []component.ID{"rnic/h1/r0", "vswitch/h1", "link/a--b"}},
		},
		{
			{Components: []component.ID{"switch/tor/0/0"}},
			{Components: []component.ID{"vswitch/h1"}},
			{Components: []component.ID{"rnic/h1/r0"}},
			{Components: []component.ID{"link/a--b"}},
		},
	}
	want := []component.ID{"link/a--b", "rnic/h1/r0", "switch/tor/0/0", "vswitch/h1"}
	for i, vs := range perms {
		got := Alarm{Verdicts: vs}.Components()
		if len(got) != len(want) {
			t.Fatalf("perm %d: %v, want %v", i, got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("perm %d: %v, want %v", i, got, want)
			}
		}
	}
	if got := (Alarm{}).Components(); len(got) != 0 {
		t.Fatalf("empty alarm: %v", got)
	}
}

// TestAnalyzerSnapshotCrashRestore pins crash recovery's durable half:
// the snapshot carries the alarms and blacklist, a crash drops every
// shard, alarm and blacklist entry, and a restore brings the alarms and
// blacklist back without sharing later appends with the snapshot.
func TestAnalyzerSnapshotCrashRestore(t *testing.T) {
	r := newRig(t)
	r.pump(6 * time.Minute)
	addr := r.task.Containers[1].Addrs[0]
	r.net.SetNodeCondition(topology.NIC{Host: addr.Host, Rail: 0}.ID(), &netsim.Condition{Down: true})
	r.pump(time.Minute)
	alarms := len(r.an.Alarms())
	if alarms == 0 {
		t.Fatal("no alarms to snapshot")
	}
	snap := r.an.SnapshotState()
	if len(snap.Alarms) != alarms || len(snap.Blacklist) != len(r.an.Blacklist()) {
		t.Fatalf("snapshot holds %d alarms / %d blacklisted, want %d / %d",
			len(snap.Alarms), len(snap.Blacklist), alarms, len(r.an.Blacklist()))
	}

	r.an.Crash()
	if len(r.an.Alarms()) != 0 || len(r.an.Blacklist()) != 0 || r.an.Shards() != 0 {
		t.Fatalf("crash kept %d alarms, %d blacklisted, %d shards",
			len(r.an.Alarms()), len(r.an.Blacklist()), r.an.Shards())
	}

	r.an.RestoreState(snap)
	if len(r.an.Alarms()) != alarms || len(r.an.Blacklist()) != len(snap.Blacklist) || r.an.Shards() != 0 {
		t.Fatalf("restore: %d alarms, %d blacklisted, %d shards", len(r.an.Alarms()), len(r.an.Blacklist()), r.an.Shards())
	}
	if _, ok := r.an.Blacklisted("rnic/h1/r0"); !ok {
		t.Fatal("restored blacklist lost the faulty RNIC")
	}
	r.pump(time.Minute) // the fault persists: new alarms append
	if len(r.an.Alarms()) <= alarms {
		t.Fatal("restored analyzer raised nothing on a persisting fault")
	}
	if len(snap.Alarms) != alarms {
		t.Fatal("post-restore alarms leaked into the snapshot")
	}
}

// TestAnalyzerRoundEndHook pins the publish hook: it runs once per
// round that ran, after the round's alarm handler, also when the round
// raised nothing, and never for a gated round.
func TestAnalyzerRoundEndHook(t *testing.T) {
	r := newRig(t)
	var calls []string
	r.an.OnAlarm = func(Alarm) { calls = append(calls, "alarm") }
	r.an.OnRoundEnd = func(time.Duration) { calls = append(calls, "end") }
	r.an.Round(r.eng.Now())
	if len(calls) != 1 || calls[0] != "end" {
		t.Fatalf("quiet round: calls %v, want [end]", calls)
	}

	calls = nil
	r.an.Gate = func(time.Duration) bool { return true }
	r.an.Round(r.eng.Now())
	if len(calls) != 0 {
		t.Fatalf("gated round: calls %v, want none", calls)
	}
	r.an.Gate = nil

	r.pump(6 * time.Minute)
	addr := r.task.Containers[1].Addrs[0]
	r.net.SetNodeCondition(topology.NIC{Host: addr.Host, Rail: 0}.ID(), &netsim.Condition{Down: true})
	calls = nil
	r.pump(time.Minute)
	alarmed := false
	for i, c := range calls {
		if c == "alarm" {
			alarmed = true
			if i+1 >= len(calls) || calls[i+1] != "end" {
				t.Fatalf("alarm not followed by its round's end: %v", calls)
			}
		}
	}
	if !alarmed {
		t.Fatal("faulty minute raised no alarm")
	}
}

// TestPathMemoryRingKeepsNewest pins the per-pair path ring: the newest
// pathMemory paths, oldest first, in a slice that never outgrows its
// capacity.
func TestPathMemoryRingKeepsNewest(t *testing.T) {
	const extra = 4
	r := newRig(t)
	an := New(r.eng, r.an.Localizer, Config{})
	for i := 0; i < pathMemory+extra; i++ {
		rec := r.record(0, 1, 0, uint64(i))
		rec.Path = []int32{int32(i)}
		an.IngestBatch(probe.Batch{rec})
	}
	an.Round(r.eng.Now())
	s, ok := an.shards[string(r.task.ID)]
	if !ok || len(s.index) != 1 {
		t.Fatal("no shard state for the probed pair")
	}
	for _, i := range s.index {
		sl := &s.slots[i]
		// One-link paths, each stored as its length and its link.
		if sl.npaths != pathMemory || len(sl.paths) != 2*pathMemory || cap(sl.paths) != 2*pathMemory {
			t.Fatalf("%d paths in %d/%d ordinals, want %d in %d/%d", sl.npaths, len(sl.paths), cap(sl.paths), pathMemory, 2*pathMemory, 2*pathMemory)
		}
		for i := 0; i < pathMemory; i++ {
			if p, want := sl.paths[2*i:2*i+2], []int32{1, int32(extra + i)}; !slices.Equal(p, want) {
				t.Fatalf("paths[%d] = %v, want %v", i, p, want)
			}
		}
	}
}

// TestAnalyzerIngestsWholeRound pins that an inbox refuses nothing: a
// shard round larger than the old 65,536-record cap (a 32-container
// tenant on its basic list probes ~79k records per 10 s round) is
// ingested and drained whole, with nothing shed.
func TestAnalyzerIngestsWholeRound(t *testing.T) {
	const records = 70000
	r := newRig(t)
	st := obs.New()
	an := New(r.eng, r.an.Localizer, Config{Obs: st})
	an.WarmShard(string(r.task.ID))
	if an.Shards() != 1 {
		t.Fatalf("WarmShard made %d shards, want 1", an.Shards())
	}
	batch := make(probe.Batch, 0, records)
	for i := 0; i < records; i++ {
		rec := r.record(i%4, (i/4)%4, (i/16)%8, uint64(i))
		rec.At += time.Duration(i/128) * time.Millisecond
		batch = append(batch, rec)
	}
	an.IngestBatch(batch)
	an.IngestBatch(nil)
	if got := st.Get(obs.RecordsIngested); got != records {
		t.Fatalf("ingest stage counted %d records, want %d", got, records)
	}
	an.Round(r.eng.Now() + time.Second)
	if got := st.Get(obs.RecordsDrained); got != records {
		t.Fatalf("detect stage drained %d records, want %d", got, records)
	}
	if shed := st.Get(obs.RecordsShed); shed != 0 {
		t.Fatalf("shed %d records, want 0", shed)
	}
}

// TestInboxEntrySize pins the inbox entry at 48 bytes, under a quarter
// of the probe.Record it replaces.
func TestInboxEntrySize(t *testing.T) {
	if size := unsafe.Sizeof(entry{}); size > 48 {
		t.Fatalf("inbox entry is %d bytes, want ≤ 48", size)
	}
}

// TestEvidenceFollowsMigratedEndpoint is the regression for evidence
// naming a moved container's old host: a pair's slot takes the
// endpoints of its newest run, so after a migration (Src.Host changes
// between two runs) localization evidence names the new host.
func TestEvidenceFollowsMigratedEndpoint(t *testing.T) {
	r := newRig(t)
	an := New(r.eng, r.an.Localizer, Config{})
	old := r.record(0, 1, 0, 1)
	moved := r.record(0, 1, 0, 2)
	moved.Src.Host = old.Src.Host + 1
	moved.At = old.At + time.Second
	an.IngestBatch(probe.Batch{old})
	an.Round(old.At)
	an.IngestBatch(probe.Batch{moved})
	an.Round(moved.At)

	s := an.shards[string(r.task.ID)]
	key := detect.PairKey{Task: string(r.task.ID), SrcContainer: 0, SrcRail: 0, DstContainer: 1, DstRail: 0}
	ev := s.evidence([]detect.Anomaly{{Key: key, Type: detect.Unconnectivity}})
	if len(ev) != 1 {
		t.Fatalf("evidence for %d pairs, want 1", len(ev))
	}
	if ev[0].Src.Host != moved.Src.Host || ev[0].Dst != moved.Dst {
		t.Fatalf("evidence endpoints %+v → %+v, want the newer run's %+v → %+v", ev[0].Src, ev[0].Dst, moved.Src, moved.Dst)
	}
}

// TestForgetMatching pins ForgetContainer on the pair table: exactly
// the pairs touching the container lose their slot (and their queued
// records), the others keep theirs, and a forgotten pair probed again
// starts from a fresh slot.
func TestForgetMatching(t *testing.T) {
	r := newRig(t)
	st := obs.New()
	an := New(r.eng, r.an.Localizer, Config{Obs: st})
	an.IngestBatch(probe.Batch{r.record(0, 1, 0, 1), r.record(2, 3, 0, 2), r.record(1, 2, 0, 3)})
	an.Round(r.eng.Now())
	an.IngestBatch(probe.Batch{r.record(0, 1, 0, 4), r.record(2, 3, 0, 5), r.record(1, 2, 0, 6)})
	an.ForgetContainer(string(r.task.ID), 1)
	s := an.shards[string(r.task.ID)]
	if len(s.index) != 1 {
		t.Fatalf("%d pairs left, want only 2→3", len(s.index))
	}
	if _, ok := s.index[keyOf(2, 0, 3, 0)]; !ok {
		t.Fatal("non-matching pair dropped")
	}
	if got := st.Get(obs.RecordsWithdrawn); got != 2 {
		t.Fatalf("withdrew %d queued records, want 2", got)
	}
	// With no pair joining since, the next drain ranks the survivor in
	// the shrunk table.
	an.IngestBatch(probe.Batch{r.record(2, 3, 0, 8)})
	an.Round(r.eng.Now())
	if got := st.Get(obs.RecordsDrained); got != 5 {
		t.Fatalf("drained %d records, want 5", got)
	}
	an.IngestBatch(probe.Batch{r.record(0, 1, 0, 7)})
	if i := s.index[keyOf(0, 0, 1, 0)]; len(s.slots) != 3 || len(s.slots[i].paths) != 0 {
		t.Fatalf("re-probed pair got slot %d of %d, not a fresh reused one", i, len(s.slots))
	}
}

// TestFlushEmitsInSortedPairOrder is the regression for nondeterministic
// flush: anomalies from a final Flush must arrive in canonical pair-key
// order regardless of the order pairs entered the pair table.
func TestFlushEmitsInSortedPairOrder(t *testing.T) {
	r := newRig(t)
	type pair struct{ src, dst, rail int }
	var pairs []pair
	for src := 0; src < 4; src++ {
		for dst := 0; dst < 4; dst++ {
			if src != dst {
				pairs = append(pairs, pair{src, dst, src % 2}, pair{src, dst, 1 - src%2})
			}
		}
	}
	run := func(order []pair) []detect.PairKey {
		an := New(r.eng, r.an.Localizer, Config{})
		// Every pair loses all probes of one window → unconnectivity on
		// flush, one anomaly per pair.
		for _, p := range order {
			batch := make(probe.Batch, 10)
			for i := range batch {
				batch[i] = r.record(p.src, p.dst, p.rail, uint64(i))
				batch[i].At += time.Duration(i) * time.Second
				batch[i].Lost = true
			}
			an.IngestBatch(batch)
		}
		an.Flush(r.eng.Now() + 20*time.Second)
		if len(an.Alarms()) != 1 {
			t.Fatalf("flush raised %d alarms, want 1", len(an.Alarms()))
		}
		var keys []detect.PairKey
		for _, a := range an.Alarms()[0].Anomalies {
			keys = append(keys, a.Key)
		}
		return keys
	}
	want := run(pairs)
	if len(want) != len(pairs) {
		t.Fatalf("flush emitted %d anomalies, want %d", len(want), len(pairs))
	}
	for i := 1; i < len(want); i++ {
		if !want[i-1].Less(want[i]) {
			t.Fatalf("flush emission not sorted: %v before %v", want[i-1], want[i])
		}
	}
	for rep := 0; rep < 3; rep++ {
		shuffled := slices.Clone(pairs)
		rand.New(rand.NewSource(int64(rep))).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		if got := run(shuffled); !slices.Equal(got, want) {
			t.Fatalf("rep %d: emission order depends on insertion: got %v want %v", rep, got, want)
		}
	}
}

// canonical is the drain order's oracle: observation time, then pair,
// for a stable sort.
func canonical(a, b entry) int {
	if c := cmp.Compare(a.At, b.At); c != 0 {
		return c
	}
	return cmp.Compare(a.key, b.key)
}

// TestDrainOrderMatchesStableSort holds the drain's counting
// permutation to the stable sort it replaced. Random multi-batch
// inboxes on three task shards and two worker slots carry
// out-of-order times (delayed batches), duplicated (time, pair)
// records, pair coordinates spread over the whole 16-bit range, a
// ForgetContainer mid-interval and, behind a withheld round, two
// intervals at once. Every record carries a healthy RTT and a
// one-link path naming it, so the shard's healthy ring lists, in
// order, the records the drain observed; that list must be the inbox
// stable-sorted by canonical.
func TestDrainOrderMatchesStableSort(t *testing.T) {
	r := newRig(t)
	coords := []int{0, 1, 255, 256, 0x7fff, 0x8000, 0xfffe, 0xffff}
	tasks := []cluster.TaskID{"drain-a", "drain-b", "drain-c"}
	rng := rand.New(rand.NewSource(41))
	base := r.record(0, 1, 0, 1)
	for trial := 0; trial < 20; trial++ {
		an := New(r.eng, r.an.Localizer, Config{Workers: 2})
		withhold := false
		an.Gate = func(time.Duration) bool { return withhold }
		var seq int32
		now := base.At
		for round := 0; round < 4; round++ {
			withhold = round == 1
			for b := 0; b < 12; b++ {
				task := tasks[rng.Intn(len(tasks))]
				at := now + time.Duration(rng.Intn(10))*time.Second
				batch := make(probe.Batch, 1+rng.Intn(10))
				for i := range batch {
					rec := base
					rec.Task = task
					rec.SrcContainer, rec.SrcRail = coords[rng.Intn(len(coords))], coords[rng.Intn(len(coords))]
					rec.DstContainer, rec.DstRail = coords[rng.Intn(len(coords))], coords[rng.Intn(len(coords))]
					rec.At, rec.RTT, rec.Lost = at, 16*time.Microsecond, false
					if i > 0 && rng.Intn(4) == 0 {
						rec = batch[i-1] // a telemetry duplicate
					}
					seq++
					rec.Path = []int32{seq}
					batch[i] = rec
				}
				an.IngestBatch(batch)
				if b == 6 && round == 2 {
					an.ForgetContainer(string(tasks[0]), coords[rng.Intn(len(coords))])
				}
			}
			now += 10 * time.Second
			if withhold {
				an.Round(now)
				continue
			}
			want := map[string][]int32{}
			before := map[string]int{}
			for task, s := range an.shards {
				order := make([]int, len(s.inbox))
				for i := range order {
					order[i] = i
				}
				slices.SortStableFunc(order, func(a, b int) int { return canonical(s.inbox[a], s.inbox[b]) })
				for _, i := range order {
					want[task] = append(want[task], s.pathPool[s.inbox[i].pathOff])
				}
				before[task] = len(s.healthy)
			}
			an.Round(now)
			for task, s := range an.shards {
				var got []int32
				for _, ob := range s.healthy[before[task]:] {
					got = append(got, ob.Path[0])
				}
				if !slices.Equal(got, want[task]) {
					t.Fatalf("trial %d round %d shard %s: drain observed\n%v\nwant the stable sort's\n%v", trial, round, task, got, want[task])
				}
			}
		}
	}
}
