// Parallel round engine: instead of one simulation event per agent per
// round, all agents sharing a phase (due time) fire as ONE event, whose
// handler shards the work by task and fans it out over worker
// goroutines. The simulation clock stays frozen for the duration of the
// event — concurrency lives entirely inside it, which is the engine's
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
// worker goroutines, but never concurrently for the same task — the
// engine pins each task to one worker slot. A batch is valid until its
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
// live agent at now+Interval — so round timestamps are identical to
// ticker mode, only the event count and the execution strategy differ.
type RoundEngine struct {
	Sim *sim.Engine
	Net *netsim.Net
	// Workers bounds the round's fan-out; <=1 (or a single task) runs
	// inline on the engine goroutine. Defaults to GOMAXPROCS when 0.
	Workers int
	// Sink, when set and willing (FastOK), receives rounds through the
	// sharded fast path; otherwise each agent delivers serially through
	// its own Sink/BatchSink in sorted agent order.
	Sink ShardSink
	// Obs, when set, records grouped-round counts, worker utilization,
	// and per-stage timing histograms. Nil-safe.
	Obs *obs.Stats

	buckets map[time.Duration][]*OverlayAgent
	ctxs    []*netsim.ProbeCtx // one per worker slot, reused across rounds
	run     []*OverlayAgent    // reused per-fire scratch
	tasks   []cluster.TaskID   // reused per-fire scratch
	spans   []taskSpan         // reused per-fire scratch
}

// taskSpan is one task's contiguous run of agents in the sorted round
// slice — the unit of worker assignment.
type taskSpan struct {
	task   cluster.TaskID
	lo, hi int
}

// Add enrolls an agent; its first grouped round fires one interval from
// now, exactly when its ticker-mode round would have.
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

func (re *RoundEngine) workers() int {
	if re.Workers > 0 {
		return re.Workers
	}
	return runtime.GOMAXPROCS(0)
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
		spans = append(spans, taskSpan{task: run[lo].Task.ID, lo: lo, hi: hi})
		tasks = append(tasks, run[lo].Task.ID)
		lo = hi
	}
	re.spans, re.tasks = spans, tasks

	fast := re.Sink != nil && re.Sink.FastOK()
	if fast {
		re.Sink.Prepare(tasks)
	}

	workers := re.workers()
	if workers > len(spans) {
		workers = len(spans)
	}
	re.ctxGrow(workers)
	start := time.Now()
	if workers <= 1 {
		ctx := re.ctx(0)
		busy := time.Now()
		for _, sp := range spans {
			re.runSpan(ctx, sp, run, now, fast)
		}
		re.Obs.Add(obs.WorkerBusyNanos, uint64(time.Since(busy)))
		// Offered capacity = parallel-section wall × 1 worker, measured
		// from the same start as the parallel branch — recording busy
		// time here instead pinned utilization at 100% regardless of
		// -workers, making the percentage incomparable across counts.
		re.Obs.Add(obs.WorkerWallNanos, uint64(time.Since(start)))
	} else {
		// Stable task→slot affinity, no work stealing: a task's agents
		// always execute on the same slot (trace-cache locality across
		// rounds), and a task's batches are consumed by exactly one
		// goroutine (the ShardSink contract).
		perSlot := make([][]taskSpan, workers)
		for _, sp := range spans {
			w := int(taskSlotHash(sp.task) % uint64(workers))
			perSlot[w] = append(perSlot[w], sp)
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			if len(perSlot[w]) == 0 {
				continue
			}
			wg.Add(1)
			go func(w int, sps []taskSpan) {
				defer wg.Done()
				busy := time.Now()
				ctx := re.ctx(w)
				for _, sp := range sps {
					re.runSpan(ctx, sp, run, now, fast)
				}
				re.Obs.Add(obs.WorkerBusyNanos, uint64(time.Since(busy)))
			}(w, perSlot[w])
		}
		wg.Wait()
		re.Obs.Add(obs.WorkerWallNanos, uint64(time.Since(start))*uint64(workers))
	}

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
			a.deliver()
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
	re.Obs.ObserveDuration("stage-probe-ms", time.Since(t0))
}

// ctx returns worker slot w's probe context, creating it on first use.
// Slots are created serially before the parallel section touches them
// (execute calls ctx(0) inline or each goroutine its own fixed slot;
// the slice is grown here only from the engine goroutine via ctxGrow).
func (re *RoundEngine) ctx(w int) *netsim.ProbeCtx {
	return re.ctxs[w]
}

// ctxGrow makes sure worker slots [0, n) exist. Runs serially.
func (re *RoundEngine) ctxGrow(n int) {
	for len(re.ctxs) < n {
		re.ctxs = append(re.ctxs, re.Net.NewProbeCtx())
	}
}

// taskSlotHash is the stable task→worker-slot hash (FNV-1a).
func taskSlotHash(t cluster.TaskID) uint64 {
	h := fnv.New64a()
	h.Write([]byte(t))
	return h.Sum64()
}
