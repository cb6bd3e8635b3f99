// Package pipeline is the sharding substrate of the analysis plane
// (§6): the production system runs the analyzer as a keyed streaming
// job (log service + Flink) where probe records are partitioned by
// training task and processed in parallel. This package provides the
// pieces that preserve that shape in-process:
//
//   - the typed Stage enumeration (ingest → window/detect → localize →
//     alarm) with per-stage Counters for introspection;
//   - Sharded[S], a keyed shard map whose iteration order is always the
//     sorted key order;
//   - FanOutTimed, a bounded worker pool that runs one function per shard
//     concurrently and merges the results deterministically (ascending
//     key order), so the same input produces bit-identical output at
//     any GOMAXPROCS or worker count.
//
// Concurrency contract: Get/Delete/Each mutate or read the shard map
// and must only be called from the owning goroutine (in this repo, the
// single-threaded simulation engine). FanOutTimed may be called from
// that same goroutine; during a fan-out each shard is touched by
// exactly one worker, so shard-local state needs no locking — but the
// per-shard function must not reach into other shards or into shared
// mutable state.
package pipeline

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Stage names one stage of the analysis pipeline.
type Stage int

const (
	// StageIngest consumes probe-record batches into shard inboxes.
	StageIngest Stage = iota
	// StageDetect drains inboxes through the per-shard detector,
	// closing temporal windows and emitting anomalies.
	StageDetect
	// StageLocalize runs overlay–underlay disentanglement over the
	// shard's pending anomalies.
	StageLocalize
	// StageAlarm merges shard verdicts and raises the round's alarm.
	StageAlarm

	numStages
)

func (s Stage) String() string {
	switch s {
	case StageIngest:
		return "ingest"
	case StageDetect:
		return "detect"
	case StageLocalize:
		return "localize"
	case StageAlarm:
		return "alarm"
	default:
		return fmt.Sprintf("stage(%d)", int(s))
	}
}

// Stages enumerates every pipeline stage in order, for callers folding
// per-stage counts into a wider stats surface.
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// Counters tracks per-stage event counts. Safe for concurrent use:
// shard workers add to it during a fan-out.
type Counters struct {
	counts [numStages]atomic.Uint64
}

// Add records n events for a stage.
func (c *Counters) Add(s Stage, n uint64) { c.counts[s].Add(n) }

// Get returns the count for a stage.
func (c *Counters) Get(s Stage) uint64 { return c.counts[s].Load() }

// String renders all stage counts in pipeline order.
func (c *Counters) String() string {
	out := ""
	for s := Stage(0); s < numStages; s++ {
		if s > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", s, c.Get(s))
	}
	return out
}

// Sharded is a keyed shard map. Shards are created on first Get and
// enumerated in ascending key order, which is what makes downstream
// merges deterministic.
type Sharded[S any] struct {
	newShard func(key string) *S
	shards   map[string]*S
	keys     []string // sorted
}

// NewSharded returns an empty shard map whose shards are built by
// newShard on first access.
func NewSharded[S any](newShard func(key string) *S) *Sharded[S] {
	return &Sharded[S]{newShard: newShard, shards: make(map[string]*S)}
}

// Get returns the shard for key, creating it if needed.
func (m *Sharded[S]) Get(key string) *S {
	if s, ok := m.shards[key]; ok {
		return s
	}
	s := m.newShard(key)
	m.shards[key] = s
	i := sort.SearchStrings(m.keys, key)
	m.keys = append(m.keys, "")
	copy(m.keys[i+1:], m.keys[i:])
	m.keys[i] = key
	return s
}

// Peek returns the shard for key without creating one.
func (m *Sharded[S]) Peek(key string) (*S, bool) {
	s, ok := m.shards[key]
	return s, ok
}

// Delete drops a shard.
func (m *Sharded[S]) Delete(key string) {
	if _, ok := m.shards[key]; !ok {
		return
	}
	delete(m.shards, key)
	i := sort.SearchStrings(m.keys, key)
	m.keys = append(m.keys[:i], m.keys[i+1:]...)
}

// Len returns the number of live shards.
func (m *Sharded[S]) Len() int { return len(m.shards) }

// Each visits every shard serially in ascending key order.
func (m *Sharded[S]) Each(fn func(key string, s *S)) {
	for _, k := range m.keys {
		fn(k, m.shards[k])
	}
}

// DefaultWorkers is the fan-out width used when a caller passes
// workers <= 0: the scheduler's current parallelism.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// FanOutTimed runs fn once per shard on at most workers goroutines and
// returns the results in ascending key order — the deterministic
// merge: the result slice is identical whatever the worker count or
// interleaving. workers <= 0 selects DefaultWorkers; a single shard or
// a single worker runs inline with no goroutines.
//
// observe (when non-nil) receives each shard's key and the wall-clock
// time fn spent on it. It runs on the worker that processed the shard,
// so it must be safe for concurrent use (obs histograms are). Timings
// flow only into observability; they never change the merge.
func FanOutTimed[S, R any](m *Sharded[S], workers int, fn func(key string, s *S) R, observe func(key string, d time.Duration)) []R {
	keys := m.keys
	run := fn
	if observe != nil {
		run = func(key string, s *S) R {
			start := time.Now()
			r := fn(key, s)
			observe(key, time.Since(start))
			return r
		}
	}
	out := make([]R, len(keys))
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > len(keys) {
		workers = len(keys)
	}
	if workers <= 1 {
		for i, k := range keys {
			out[i] = run(k, m.shards[k])
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(keys) {
					return
				}
				out[i] = run(keys[i], m.shards[keys[i]])
			}
		}()
	}
	wg.Wait()
	return out
}
