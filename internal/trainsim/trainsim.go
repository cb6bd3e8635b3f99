// Package trainsim models a training job's progress as a function of
// network health, quantifying the paper's motivation numbers (§1):
// collective communication is synchronous, so a latency increase on
// any required path slows every iteration (~20 % slowdown per 10 µs of
// added RTT), and a connectivity loss outlasting the collective
// timeout (4 s, NCCL's default) fails the entire task.
//
// A Job derives its communication pairs from its own parallelism
// configuration (the tenant knows its own model), probes them through
// the simulated network at every iteration boundary, and schedules the
// next iteration after compute + health-scaled communication time.
package trainsim

import (
	"errors"
	"sort"
	"time"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/netsim"
	"skeletonhunter/internal/overlay"
	"skeletonhunter/internal/parallelism"
	"skeletonhunter/internal/sim"
)

// Paper-derived model constants.
const (
	// HealthyRTT is the baseline round trip the slowdown is scaled
	// against (§1 expects < 20 µs; our fabric delivers ≈16 µs).
	HealthyRTT = 16 * time.Microsecond
	// SlowdownPer10us is the fractional iteration slowdown per 10 µs of
	// added RTT (§1: "even a 10µs increase in RTT can lead to a ~20%
	// slowdown").
	SlowdownPer10us = 0.20
	// CollectiveTimeout is how long a required path may stay
	// unreachable before the collective (and the task) fails (§1,
	// NCCL_IB_TIMEOUT ≈ 4 s).
	CollectiveTimeout = 4 * time.Second
)

// Config tunes a job.
type Config struct {
	// IterBase is the healthy-network iteration duration (default 30 s,
	// the typical round of §1).
	IterBase time.Duration
	// MaxIterations stops the job after this many rounds (0 = run until
	// Stop or failure).
	MaxIterations int
}

// Job is one training task's progress model.
type Job struct {
	Engine *sim.Engine
	Net    *netsim.Net
	Task   *cluster.Task

	cfg   Config
	pairs [][2]parallelism.Endpoint

	// Progress.
	Iterations int
	Failed     bool
	FailedAt   time.Duration
	// SlowdownSum accumulates per-iteration slowdown fractions; divide
	// by Iterations for the mean.
	SlowdownSum float64

	unreachableSince map[[2]parallelism.Endpoint]time.Duration
	stopped          bool
	entropy          uint64
	pending          *sim.Event
}

// ErrNotRunning reports that the job's task has no running containers.
var ErrNotRunning = errors.New("trainsim: task containers not running")

// Start derives the job's communication pairs and schedules its first
// iteration. The task's containers must be Running.
func Start(eng *sim.Engine, net *netsim.Net, task *cluster.Task, cfg Config) (*Job, error) {
	if cfg.IterBase == 0 {
		cfg.IterBase = 30 * time.Second
	}
	for _, c := range task.Containers {
		if c.State != cluster.Running {
			return nil, ErrNotRunning
		}
	}
	pairSet, err := parallelism.SkeletonPairs(task.Par, task.GPUsPerContainer)
	if err != nil {
		return nil, err
	}
	j := &Job{
		Engine: eng, Net: net, Task: task, cfg: cfg,
		unreachableSince: make(map[[2]parallelism.Endpoint]time.Duration),
	}
	for p := range pairSet {
		j.pairs = append(j.pairs, p)
	}
	// Deterministic probe order: entropy counters are handed out per
	// probe in pair order, so map-range order must not leak into the
	// per-probe RNG keys.
	sort.Slice(j.pairs, func(a, b int) bool {
		ka := [4]int{j.pairs[a][0].Container, j.pairs[a][0].Rail, j.pairs[a][1].Container, j.pairs[a][1].Rail}
		kb := [4]int{j.pairs[b][0].Container, j.pairs[b][0].Rail, j.pairs[b][1].Container, j.pairs[b][1].Rail}
		for i := range ka {
			if ka[i] != kb[i] {
				return ka[i] < kb[i]
			}
		}
		return false
	})
	j.schedule(cfg.IterBase)
	return j, nil
}

// Stop halts the job (graceful completion).
func (j *Job) Stop() {
	j.stopped = true
	if j.pending != nil {
		j.pending.Cancel()
	}
}

func (j *Job) schedule(after time.Duration) {
	j.pending = j.Engine.After(after, "train-iteration", j.iterate)
}

// addrOf maps a task-local endpoint to its current overlay address
// (live: migration re-homes containers mid-job).
func (j *Job) addrOf(ep parallelism.Endpoint) (overlay.Addr, bool) {
	if ep.Container >= len(j.Task.Containers) {
		return overlay.Addr{}, false
	}
	c := j.Task.Containers[ep.Container]
	if c.State != cluster.Running || ep.Rail >= len(c.Addrs) {
		return overlay.Addr{}, false
	}
	return c.Addrs[ep.Rail], true
}

// iterate runs one training round: exchange over every required pair,
// accumulate the worst slowdown, and fail the job if any pair stays
// unreachable past the collective timeout.
func (j *Job) iterate(now time.Duration) {
	if j.stopped || j.Failed {
		return
	}
	worst := time.Duration(0)
	for _, p := range j.pairs {
		a, okA := j.addrOf(p[0])
		b, okB := j.addrOf(p[1])
		if !okA || !okB {
			j.markUnreachable(p, now)
			continue
		}
		j.entropy++
		res := j.Net.Probe(a, b, j.entropy)
		if res.Lost {
			j.markUnreachable(p, now)
			continue
		}
		delete(j.unreachableSince, p)
		if extra := res.RTT - HealthyRTT; extra > worst {
			worst = extra
		}
	}
	if j.Failed {
		return
	}
	// An unreachable pair stalls the collective: no iteration completes;
	// the next attempt comes at retransmission timescale and the timeout
	// clock in markUnreachable decides the job's fate.
	if len(j.unreachableSince) > 0 {
		j.schedule(time.Second)
		return
	}

	slowdown := 0.0
	if worst > 0 {
		slowdown = SlowdownPer10us * float64(worst) / float64(10*time.Microsecond)
	}
	j.Iterations++
	j.SlowdownSum += slowdown

	if j.cfg.MaxIterations > 0 && j.Iterations >= j.cfg.MaxIterations {
		j.stopped = true
		return
	}
	j.schedule(time.Duration(float64(j.cfg.IterBase) * (1 + slowdown)))
}

func (j *Job) markUnreachable(p [2]parallelism.Endpoint, now time.Duration) {
	since, ok := j.unreachableSince[p]
	if !ok {
		j.unreachableSince[p] = now
		return
	}
	if now-since >= CollectiveTimeout {
		j.Failed = true
		j.FailedAt = now
		if j.pending != nil {
			j.pending.Cancel()
		}
	}
}
