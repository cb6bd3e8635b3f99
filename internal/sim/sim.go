// Package sim provides the discrete-event simulation kernel that all
// substrates in this repository run on: a virtual clock, an event heap,
// and deterministic, independently seeded random streams.
//
// SkeletonHunter's evaluation in the paper runs against a production
// cluster; here every component (control plane, traffic generator, fault
// injector, probing agents, analyzer windows) is driven by the same
// Engine so that experiments are reproducible down to the microsecond.
//
// Time is represented as time.Duration offsets from the simulation epoch.
// This keeps arithmetic exact (integer nanoseconds) and avoids the
// pitfalls of wall-clock time in tests.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// Event is a scheduled callback. Events with equal times fire in the
// order they were scheduled (stable FIFO tie-break), which keeps
// simulations deterministic even when many events share a timestamp.
type Event struct {
	at   time.Duration
	seq  uint64
	name string
	fn   func(now time.Duration)

	eng      *Engine
	index    int // heap index; -1 once popped or cancelled
	canceled bool
}

// Cancel prevents a pending event from firing. Cancelling an event that
// already fired (or was already cancelled) is a no-op.
func (e *Event) Cancel() {
	if e.canceled {
		return
	}
	e.canceled = true
	// Still queued: account for it so Pending stays truthful without a
	// heap sweep; the zombie entry is reaped when it reaches the top.
	if e.index >= 0 && e.eng != nil {
		e.eng.cancelled++
	}
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Engine is a single-threaded discrete-event simulator. It is not safe
// for concurrent use; the simulated world is single-threaded by design
// (concurrency in the modeled system is expressed as interleaved events,
// which is what makes runs reproducible).
type Engine struct {
	now       time.Duration
	queue     eventHeap
	seq       uint64
	seed      int64
	stream    map[string]*rand.Rand
	cancelled int // cancelled-but-unreaped events still in the heap

	// Processed counts events that have fired, for introspection.
	Processed uint64
}

// NewEngine returns an Engine whose random streams all derive from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{seed: seed, stream: make(map[string]*rand.Rand)}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the named deterministic random stream, creating it on
// first use. Distinct names yield independent streams, so adding a new
// consumer does not perturb the draws seen by existing ones — crucial
// for keeping figure outputs stable as the codebase grows.
func (e *Engine) Rand(name string) *rand.Rand {
	if r, ok := e.stream[name]; ok {
		return r
	}
	h := fnv64a(name)
	r := rand.New(rand.NewSource(e.seed ^ int64(h)))
	e.stream[name] = r
	return r
}

// SplitMix64 is a keyed random generator: splitmix64, whose whole
// state is one uint64. It is tiny, allocation-free and trivially
// checkpointable, and — seeded from a draw's identity instead of a
// shared sequential stream — it gives a draw the same values no matter
// when or on which worker it is made.
type SplitMix64 uint64

// Next returns the next 64 random bits.
func (r *SplitMix64) Next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0, 1).
func (r *SplitMix64) Float64() float64 { return float64(r.Next()>>11) / (1 << 53) }

func fnv64a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	var h uint64 = offset
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Schedule registers fn to run at absolute virtual time at. Scheduling
// in the past (before Now) panics: it would silently reorder causality.
func (e *Engine) Schedule(at time.Duration, name string, fn func(now time.Duration)) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule %q at %v before now %v", name, at, e.now))
	}
	ev := &Event{at: at, seq: e.seq, name: name, fn: fn, eng: e}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

// After schedules fn to run d after the current virtual time.
func (e *Engine) After(d time.Duration, name string, fn func(now time.Duration)) *Event {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now+d, name, fn)
}

// Every schedules fn to run periodically, first at start and then every
// period, for as long as the engine runs.
func (e *Engine) Every(start, period time.Duration, name string, fn func(now time.Duration)) {
	if period <= 0 {
		panic("sim: Every requires a positive period")
	}
	var fire func(now time.Duration)
	fire = func(now time.Duration) {
		fn(now)
		e.Schedule(now+period, name, fire)
	}
	e.Schedule(start, name, fire)
}

// Step fires the earliest pending event. It reports false when the
// queue is empty.
func (e *Engine) Step() bool {
	for e.queue.Len() > 0 {
		ev := heap.Pop(&e.queue).(*Event)
		if ev.canceled {
			e.cancelled--
			continue
		}
		e.now = ev.at
		e.Processed++
		ev.fn(e.now)
		return true
	}
	return false
}

// RunUntil processes events in order until the queue is exhausted or the
// next event is strictly after deadline. The clock is left at deadline
// (if reached) so subsequent scheduling is relative to it.
func (e *Engine) RunUntil(deadline time.Duration) {
	for e.queue.Len() > 0 {
		// Peek.
		next := e.queue[0]
		if next.canceled {
			heap.Pop(&e.queue)
			e.cancelled--
			continue
		}
		if next.at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Run processes every pending event (including events scheduled by
// events) until the queue drains. Use RunUntil for open-ended workloads
// such as periodic tickers, which never drain on their own.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// Pending returns the number of live events still queued. Cancelled
// events linger in the heap until they surface (lazy reaping), but are
// subtracted here so the count is truthful.
func (e *Engine) Pending() int { return e.queue.Len() - e.cancelled }
