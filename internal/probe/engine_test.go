package probe

import (
	"fmt"
	"testing"
	"time"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/obs"
	"skeletonhunter/internal/parallelism"
)

// testShardSink is a ShardSink that counts per-task records the way
// the analyzer does: Prepare pre-creates shard state serially, so
// Consume (on worker goroutines) only ever looks the map up. Land
// checks the barrier contract as it goes.
type testShardSink struct {
	ok       bool
	shards   map[cluster.TaskID]*shardTally
	prepared [][]cluster.TaskID
	landed   []agentRound // one per Land call with records, in call order
	faults   []string     // barrier-contract violations seen by Land
}

type shardTally struct{ batches, records int }

// agentRound identifies one agent's round by what its records carry.
type agentRound struct {
	task      cluster.TaskID
	container int
	at        time.Duration
}

func (s *testShardSink) FastOK() bool { return s.ok }

func (s *testShardSink) Prepare(tasks []cluster.TaskID) {
	if s.shards == nil {
		s.shards = map[cluster.TaskID]*shardTally{}
	}
	for _, t := range tasks {
		if s.shards[t] == nil {
			s.shards[t] = &shardTally{}
		}
	}
	s.prepared = append(s.prepared, append([]cluster.TaskID(nil), tasks...))
}

func (s *testShardSink) Consume(b Batch) {
	if len(b) > 0 {
		s.shards[b[0].Task].batches++
		s.shards[b[0].Task].records += len(b)
	}
}

func (s *testShardSink) Land(b Batch) {
	if len(b) == 0 {
		return
	}
	cur := agentRound{b[0].Task, b[0].SrcContainer, b[0].At}
	if n := len(s.landed); n > 0 {
		prev := s.landed[n-1]
		switch {
		case cur.at < prev.at:
			s.faults = append(s.faults, fmt.Sprintf("round at %v landed after %v", cur.at, prev.at))
		case cur.at == prev.at && (cur.task < prev.task || (cur.task == prev.task && cur.container <= prev.container)):
			// Same round boundary: strictly ascending (task, container),
			// so no agent lands twice and the order is the sorted one.
			s.faults = append(s.faults, fmt.Sprintf("%s/c%d landed after %s/c%d in the round at %v",
				cur.task, cur.container, prev.task, prev.container, cur.at))
		}
	}
	s.landed = append(s.landed, cur)
}

func startEngineAgents(r *rig, re *RoundEngine, task *cluster.Task, sink BatchSink) []*OverlayAgent {
	var agents []*OverlayAgent
	for _, c := range task.Containers {
		a := &OverlayAgent{
			Net: r.net, Controller: r.ctl,
			Task: task, Container: c, BatchSink: sink, Driver: re,
		}
		a.Start()
		agents = append(agents, a)
	}
	return agents
}

// TestRoundEngineShardSinkParallel drives the sharded fast path with
// two tasks over four workers: batches land per task shard, Prepare
// sees sorted shard keys, and the barrier lands every consumed batch
// exactly once per agent per round boundary, in sorted order.
func TestRoundEngineShardSinkParallel(t *testing.T) {
	r := newRig(t)
	task2, err := r.cp.Submit(cluster.TaskSpec{Par: parallelism.Config{TP: 8, PP: 2, DP: 2}})
	if err != nil {
		t.Fatal(err)
	}
	r.eng.RunUntil(r.eng.Now() + 10*time.Minute)

	sink := &testShardSink{ok: true}
	stats := obs.New()
	re := &RoundEngine{Sim: r.eng, Net: r.net, Workers: 4, Sink: sink, Obs: stats}
	startEngineAgents(r, re, r.task, nil)
	startEngineAgents(r, re, task2, nil)
	r.eng.RunUntil(r.eng.Now() + 10*time.Second)

	if len(sink.shards) != 2 {
		t.Fatalf("sink saw %d task shards, want 2", len(sink.shards))
	}
	consumed := 0
	for _, task := range []*cluster.Task{r.task, task2} {
		n := sink.shards[task.ID]
		if n == nil || n.records == 0 {
			t.Fatalf("task %s landed no records", task.ID)
		}
		consumed += n.batches
	}
	for _, tasks := range sink.prepared {
		for i := 1; i < len(tasks); i++ {
			if tasks[i] < tasks[i-1] {
				t.Fatalf("Prepare keys not sorted: %v", tasks)
			}
		}
	}
	if len(sink.landed) != consumed {
		t.Fatalf("barrier landed %d batches, workers consumed %d", len(sink.landed), consumed)
	}
	for _, f := range sink.faults {
		t.Error(f)
	}
	if first, last := sink.landed[0], sink.landed[len(sink.landed)-1]; last.at <= first.at {
		t.Fatalf("landings span one round boundary (%v); want several", first.at)
	}
	if stats.Get(obs.ProbeRoundsGrouped) == 0 {
		t.Fatal("grouped-round counter never incremented")
	}
}

// TestRoundEngineSinkFallback: a sink that declines the fast path
// (FastOK false) must never see a batch; the round falls back to the
// agents' own serial delivery.
func TestRoundEngineSinkFallback(t *testing.T) {
	r := newRig(t)
	shard := &testShardSink{ok: false}
	re := &RoundEngine{Sim: r.eng, Net: r.net, Workers: 2, Sink: shard}
	records := 0
	startEngineAgents(r, re, r.task, each(func(Record) { records++ }))
	r.eng.RunUntil(r.eng.Now() + 5*time.Second)

	if records == 0 {
		t.Fatal("serial fallback delivered nothing")
	}
	if len(shard.shards) != 0 || len(shard.landed) != 0 {
		t.Fatalf("declined sink still saw traffic: %d shards, %d landings", len(shard.shards), len(shard.landed))
	}
}

// TestRoundEngineAgentLifecycle: a killed agent drops out of the
// rotation, a crashed (not Running) container's agent skips its rounds
// but stays enrolled, and killing every agent quiesces the engine.
func TestRoundEngineAgentLifecycle(t *testing.T) {
	r := newRig(t)
	perContainer := map[int]int{}
	re := &RoundEngine{Sim: r.eng, Net: r.net}
	agents := startEngineAgents(r, re, r.task, each(func(rec Record) { perContainer[rec.SrcContainer]++ }))
	r.eng.RunUntil(r.eng.Now() + 3*time.Second)

	if len(perContainer) != len(agents) {
		t.Fatalf("%d containers probing, want %d", len(perContainer), len(agents))
	}

	// Kill agent 0, crash the container behind agent 1.
	agents[0].Kill()
	r.cp.CrashContainer(r.task.Containers[1].ID)
	snap0, snap1 := perContainer[0], perContainer[1]
	before2 := perContainer[2]
	r.eng.RunUntil(r.eng.Now() + 3*time.Second)
	if perContainer[0] != snap0 {
		t.Fatalf("killed agent kept probing: %d → %d", snap0, perContainer[0])
	}
	if perContainer[1] != snap1 {
		t.Fatalf("crashed container's agent kept probing: %d → %d", snap1, perContainer[1])
	}
	if perContainer[2] == before2 {
		t.Fatal("surviving agents stopped probing")
	}

	// Kill the rest: the next fire finds no live agents and the engine
	// stops re-bucketing entirely.
	for _, a := range agents {
		a.Kill()
	}
	total := func() int {
		n := 0
		for _, v := range perContainer {
			n += v
		}
		return n
	}
	snapshot := total()
	r.eng.RunUntil(r.eng.Now() + 5*time.Second)
	if total() != snapshot {
		t.Fatalf("probing continued after all agents killed: %d → %d", snapshot, total())
	}
}

// TestRoundEngineCountsTraceCacheMisses: the barrier folds every
// worker's trace-cache misses into trace-cache-misses. A quiet round
// adds none, and a mutation in one tenant's VNI costs exactly that
// tenant's flows a miss and the other tenant none.
func TestRoundEngineCountsTraceCacheMisses(t *testing.T) {
	r := newRig(t)
	taskB, err := r.cp.Submit(cluster.TaskSpec{Par: parallelism.Config{TP: 8, PP: 2, DP: 2}})
	if err != nil {
		t.Fatal(err)
	}
	r.eng.RunUntil(r.eng.Now() + 10*time.Minute)

	sink := &testShardSink{ok: true}
	stats := obs.New()
	re := &RoundEngine{Sim: r.eng, Net: r.net, Workers: 4, Sink: sink, Obs: stats}
	startEngineAgents(r, re, r.task, nil)
	startEngineAgents(r, re, taskB, nil)
	r.eng.RunUntil(r.eng.Now() + 3*time.Second)
	if stats.Get(obs.TraceCacheMisses) == 0 {
		t.Fatal("cold rounds counted no trace-cache misses")
	}

	round := func() (misses uint64, recordsA int) {
		m0, a0 := stats.Get(obs.TraceCacheMisses), sink.shards[r.task.ID].records
		r.eng.RunUntil(r.eng.Now() + time.Second)
		return stats.Get(obs.TraceCacheMisses) - m0, sink.shards[r.task.ID].records - a0
	}
	if misses, _ := round(); misses != 0 {
		t.Fatalf("quiet round counted %d trace-cache misses, want 0", misses)
	}

	a, b := r.task.Containers[0].Addrs[0], r.task.Containers[1].Addrs[0]
	if !r.net.Overlay.InvalidateOffload(a.Host, a.VNI, b.IP) {
		t.Fatal("no flow entry to invalidate")
	}
	// Every probe of a round is a distinct flow, so a whole-VNI refill
	// misses once per record of task A — and not once for task B.
	if misses, recordsA := round(); recordsA == 0 || misses != uint64(recordsA) {
		t.Fatalf("after a mutation in task A's VNI: %d misses, task A sent %d probes", misses, recordsA)
	}
}
