// Parallel round engine: instead of one simulation event per agent per
// round, all agents sharing a phase (due time) fire as ONE event, whose
// handler shards the work by task and fans it out over worker
// goroutines (FanOut, the pool the analysis round runs on too). The
// simulation clock stays frozen for the duration of the event —
// concurrency lives entirely inside it, which is the engine's
// concurrency contract (see internal/sim).
//
// Determinism: probe outcomes depend only on per-probe keyed RNG (see
// internal/netsim), queue tallies merge as integers at the barrier, and
// batches land per task with each task wholly owned by one worker slot
// (stable hash, no work stealing) — so alarms, blacklists, and incident
// fingerprints are bit-identical at any worker count.
package probe

import (
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"time"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/netsim"
	"skeletonhunter/internal/obs"
	"skeletonhunter/internal/sim"
)

// ShardSink lands grouped rounds shard-by-shard without a global lock
// on the hot path. Prepare and Land run serially on the engine
// goroutine (before and after the parallel section); Consume runs on
// worker goroutines, but never concurrently for the same task — FanOut
// pins each task to one worker slot. A batch is valid until its
// agent's next round, so the one Consume saw is the one Land sees.
type ShardSink interface {
	// FastOK reports whether the sink can take this round through the
	// sharded path. False falls back to serial per-agent delivery
	// (needed when delivery-order faults or batch taps are in play).
	FastOK() bool
	// Prepare is called serially with the round's task shard keys in
	// sorted order, before any Consume — the place to pre-create any
	// per-shard state workers will look up.
	Prepare(tasks []cluster.TaskID)
	// Consume lands one agent round's batch; every record in it belongs
	// to the one task shard the calling worker owns.
	Consume(b Batch)
	// Land is called serially after the round barrier, once per agent
	// that ran, in the round's sorted (task, container) order — the
	// order the serial fallback delivers in — for whatever must be
	// written in one deterministic sequence.
	Land(b Batch)
}

// RoundEngine drives grouped, parallel probing rounds. Agents enroll by
// setting Driver before Start; the engine buckets them by due time,
// fires one simulation event per distinct due time, and re-buckets each
// live agent at now+Interval, so an agent probes every Interval from
// one Interval after its Start. Each fire fans its task spans out through FanOut, the task-pinned
// pool the analysis round also runs on.
type RoundEngine struct {
	Sim *sim.Engine
	Net *netsim.Net
	// Workers bounds the round's fan-out (<= 0 means GOMAXPROCS); one
	// worker or a single task runs inline on the engine goroutine.
	Workers int
	// Sink, when set and willing (FastOK), receives rounds through the
	// sharded fast path; otherwise each agent delivers serially through
	// its own BatchSink in sorted agent order.
	Sink ShardSink
	// Obs, when set, records grouped-round counts, worker utilization,
	// and per-stage timing histograms. Nil-safe.
	Obs *obs.Stats

	buckets map[time.Duration][]*OverlayAgent
	ctxs    []*netsim.ProbeCtx // one per worker slot, reused across rounds
	run     []*OverlayAgent    // reused per-fire scratch
	tasks   []cluster.TaskID   // reused per-fire scratch
	spans   []taskSpan         // reused per-fire scratch
	pool    Pool               // per-slot fan-out scratch
}

// taskSpan is one task's contiguous run of agents in the sorted round
// slice — the unit of worker assignment.
type taskSpan struct{ lo, hi int }

// Add enrolls an agent; its first grouped round fires one interval from
// now.
func (re *RoundEngine) Add(a *OverlayAgent) {
	re.scheduleAt(a, re.Sim.Now()+a.Interval)
}

func (re *RoundEngine) scheduleAt(a *OverlayAgent, due time.Duration) {
	if re.buckets == nil {
		re.buckets = make(map[time.Duration][]*OverlayAgent)
	}
	b, scheduled := re.buckets[due]
	re.buckets[due] = append(b, a)
	if !scheduled {
		re.Sim.Schedule(due, "probe-round-group", re.fire)
	}
}

// fire runs one grouped round: serial prologue in sorted agent order,
// parallel shard execution, queue/sink merge at the barrier, serial
// delivery fallback when the fast path is off, then re-bucketing.
func (re *RoundEngine) fire(now time.Duration) {
	agents := re.buckets[now]
	delete(re.buckets, now)

	// Deterministic order for everything that follows: sort by (task,
	// container). Killed agents fall out of the rotation here.
	live := agents[:0]
	for _, a := range agents {
		if !a.killed {
			live = append(live, a)
		}
	}
	if len(live) == 0 {
		return
	}
	sort.Slice(live, func(i, j int) bool {
		if live[i].Task.ID != live[j].Task.ID {
			return live[i].Task.ID < live[j].Task.ID
		}
		return live[i].Container.Index < live[j].Container.Index
	})

	// Serial prologue: controller interaction (mutex, lease renewal)
	// stays on the engine goroutine.
	run := re.run[:0]
	for _, a := range live {
		if a.prepareRound(now) {
			run = append(run, a)
		}
	}

	if len(run) > 0 {
		re.execute(run, now)
	}

	// Re-bucket every live agent (skipped ones included) at the same
	// phase; agents killed during this round drop out next fire.
	for _, a := range live {
		if !a.killed {
			re.scheduleAt(a, now+a.Interval)
		}
	}
	re.run = run[:0]
	re.Obs.Inc(obs.ProbeRoundsGrouped)
}

func (re *RoundEngine) execute(run []*OverlayAgent, now time.Duration) {
	// Group the sorted round into per-task spans — the shard key is the
	// task, the same keying the analyzer shards by.
	spans := re.spans[:0]
	tasks := re.tasks[:0]
	for lo := 0; lo < len(run); {
		hi := lo + 1
		for hi < len(run) && run[hi].Task.ID == run[lo].Task.ID {
			hi++
		}
		spans = append(spans, taskSpan{lo: lo, hi: hi})
		tasks = append(tasks, run[lo].Task.ID)
		lo = hi
	}
	re.spans, re.tasks = spans, tasks

	fast := re.Sink != nil && re.Sink.FastOK()
	if fast {
		re.Sink.Prepare(tasks)
	}

	slots := slotCount(re.Workers, len(spans))
	for len(re.ctxs) < slots {
		re.ctxs = append(re.ctxs, re.Net.NewProbeCtx())
	}
	start := time.Now()
	FanOut(&re.pool, re.Workers, tasks, func(slot, i int) {
		re.runSpan(re.ctxs[slot], spans[i], run, now, fast)
	})
	// Offered capacity: the fan-out's wall time × the slots it ran on,
	// measured from one start whatever the slot count, so utilization
	// (busy/wall) compares across -workers values.
	re.Obs.Add(obs.WorkerWallNanos, uint64(time.Since(start))*uint64(slots))

	// Round barrier: merge worker queue tallies as integers (one float
	// update per touched node — partitioning-independent) and trace-cache
	// misses, then land the round's batches.
	re.Net.CommitQueues(re.ctxs...)
	for _, ctx := range re.ctxs {
		re.Obs.Add(obs.TraceCacheMisses, ctx.TakeMisses())
	}
	if fast {
		land := time.Now()
		for _, a := range run {
			re.Sink.Land(a.batch)
		}
		re.Obs.ObserveDuration("stage-ingest-ms", time.Since(land))
	} else {
		// Serial-fallback delivery is a different code path with
		// different costs (per-agent, through the telemetry injector) —
		// folding it into stage-ingest-ms made that histogram bimodal
		// and useless for comparing fast-path rounds.
		deliver := time.Now()
		for _, a := range run {
			if a.BatchSink != nil && len(a.batch) > 0 {
				a.BatchSink(a.batch)
			}
		}
		re.Obs.ObserveDuration("stage-deliver-ms", time.Since(deliver))
	}
}

// runSpan executes one task shard on the calling worker: every agent's
// round into agent-owned buffers, batches consumed shard-locally on the
// fast path.
func (re *RoundEngine) runSpan(ctx *netsim.ProbeCtx, sp taskSpan, run []*OverlayAgent, now time.Duration, fast bool) {
	t0 := time.Now()
	for _, a := range run[sp.lo:sp.hi] {
		a.executeRound(ctx, now)
		if fast {
			re.Sink.Consume(a.batch)
		}
	}
	d := time.Since(t0)
	re.Obs.Add(obs.WorkerBusyNanos, uint64(d))
	re.Obs.ObserveDuration("stage-probe-ms", d)
}

// Pool is the one worker pool task-sharded work runs on: the probe
// round (RoundEngine) and the analysis round (analyzer.Analyzer) both
// fan out through FanOut. Each task is pinned to worker slot
// taskSlotHash(task) % slots, with no work stealing, so a task runs on
// exactly one goroutine per fan-out (its shard state needs no lock) and
// on the same slot fan-out after fan-out (trace-cache locality). A Pool
// holds the per-slot scratch and is used by one caller at a time.
type Pool struct {
	slots [][]int // per-slot task indices, reused across fan-outs
	wg    sync.WaitGroup
}

// slotCount is how many worker slots a fan-out of n tasks runs on:
// workers (GOMAXPROCS when <= 0), capped at n.
func slotCount(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, n)
}

// FanOut calls fn(slot, i) exactly once for every i in [0, len(tasks))
// and returns when every call has. tasks[i] runs on slot
// taskSlotHash(tasks[i]) % slots, and each slot runs its tasks in
// ascending i; a single task or a single worker runs inline on the
// caller's goroutine. fn must confine its writes to state task i owns
// and write its result by index, so results read back in ascending i —
// the deterministic merge — are the same at any worker count.
func FanOut[K ~string](p *Pool, workers int, tasks []K, fn func(slot, i int)) {
	n := slotCount(workers, len(tasks))
	if n <= 1 {
		for i := range tasks {
			fn(0, i)
		}
		return
	}
	for len(p.slots) < n {
		p.slots = append(p.slots, nil)
	}
	slots := p.slots[:n]
	for w := range slots {
		slots[w] = slots[w][:0]
	}
	for i, t := range tasks {
		w := taskSlotHash(string(t)) % uint64(n)
		slots[w] = append(slots[w], i)
	}
	for w, idx := range slots {
		if len(idx) == 0 {
			continue
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for _, i := range idx {
				fn(w, i)
			}
		}()
	}
	p.wg.Wait()
}

// taskSlotHash is the stable task→worker-slot hash (FNV-1a).
func taskSlotHash(t string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(t))
	return h.Sum64()
}
