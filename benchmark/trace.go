package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"

	"skeletonhunter/internal/hunter"
	"skeletonhunter/internal/obs"
)

// Span names. A step span is one sim.Engine.Step, named by what it
// did; the fan-out and harness-event spans are its children.
const (
	spanTick        = "tick"
	spanProbeRound  = "probe.round"
	spanAnalyzer    = "analyzer.round"
	spanCheckpoint  = "hunter.checkpoint"
	spanOther       = "sim.other"
	spanAlarmFanout = "hunter.alarm_fanout"
	spanGrayFanout  = "hunter.gray_fanout"
	spanInfer       = "skeleton.infer"
	spanRecover     = "hunter.recover"
	spanCrash       = "hunter.crash"
	spanGrayInject  = "faults.gray_inject"
)

// span is one timed interval of the traced run. Times are nanoseconds
// since the recorder started; Parent indexes the span that caused this
// one (-1 for none); Tick is the measured tick it belongs to (-1
// outside the window).
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Tick    int    `json:"tick"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// recorder keeps the traced run's spans in memory. A nil *recorder is
// the untraced run: begin/end are no-ops, so the same closures serve
// both runs and only the traced one pays for spans.
type recorder struct {
	t0     time.Time
	spans  []span
	parent int // span new spans are children of
	tick   int
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16), parent: -1, tick: -1}
}

// begin opens a span as a child of the current one and makes it
// current; end closes it and restores its parent as current.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, StartNs: int64(time.Since(r.t0)), Parent: r.parent, Tick: r.tick})
	r.parent = id
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].EndNs = int64(time.Since(r.t0))
	r.parent = r.spans[id].Parent
}

// stepCounters are the obs counters a step is named by.
type stepCounters struct{ grouped, rounds, checkpoints uint64 }

func readStepCounters(o *obs.Stats) stepCounters {
	return stepCounters{
		grouped:     o.Get(obs.ProbeRoundsGrouped),
		rounds:      o.Get(obs.RoundsRun) + o.Get(obs.RoundsDelayed),
		checkpoints: o.Get(obs.CheckpointsTaken),
	}
}

// tracedTick advances the deployment by one second exactly as
// d.Run(time.Second) does, one Engine.Step at a time, recording a span
// per step. RunUntil fires every event stamped at or before the
// deadline, including ones scheduled during the tick; a sentinel event
// at the deadline marks where the events queued so far end, and passes
// repeat until one fires nothing but its sentinel. The engine clock
// ends at the deadline either way, and the relative order of all other
// events is untouched, so the simulation is bit-identical. Returns the
// number of sentinel events fired (to subtract from sim.events).
func tracedTick(d *hunter.Deployment, r *recorder) (sentinels int) {
	deadline := d.Engine.Now() + time.Second
	tick := r.begin(spanTick)
	for {
		fired := false
		d.Engine.Schedule(deadline, "bench/sentinel", func(time.Duration) { fired = true })
		sentinels++
		steps := 0
		for !fired {
			before := readStepCounters(d.Obs)
			id := r.begin(spanOther)
			d.Engine.Step()
			r.end(id)
			steps++
			if fired {
				// The sentinel itself: not part of the simulation.
				r.spans = r.spans[:id]
				break
			}
			after := readStepCounters(d.Obs)
			switch {
			case after.grouped != before.grouped:
				r.spans[id].Name = spanProbeRound
			case after.rounds != before.rounds:
				r.spans[id].Name = spanAnalyzer
			case after.checkpoints != before.checkpoints:
				r.spans[id].Name = spanCheckpoint
			default:
				r.coalesce(id)
			}
		}
		if steps == 1 {
			break
		}
	}
	r.end(tick)
	return sentinels
}

// coalesce folds an unattributed, childless step into the sim.other
// span right before it, so a tick of many small events costs one span.
func (r *recorder) coalesce(id int) {
	if id != len(r.spans)-1 || id == 0 {
		return
	}
	prev := &r.spans[id-1]
	if prev.Name == spanOther && prev.Parent == r.spans[id].Parent {
		prev.EndNs = r.spans[id].EndNs
		r.spans = r.spans[:id]
	}
}

// durations returns the duration of every span with the given name
// inside the measured window, in milliseconds.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.Tick >= 0 {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// selfMs is a span name's total self time in the window: duration
// minus the part covered by direct children.
func (r *recorder) selfMs(name string) float64 {
	covered := make(map[int]int64)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.EndNs - s.StartNs
		}
	}
	var total int64
	for i, s := range r.spans {
		if s.Name == name && s.Tick >= 0 {
			total += s.EndNs - s.StartNs - covered[i]
		}
	}
	return float64(total) / 1e6
}

// write emits the spans as JSON lines.
func (r *recorder) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// percentile returns the p-quantile (0..1) of xs by nearest rank; 0
// with no samples. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(p*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// picked summarizes a timing distribution the way the choosing-metrics
// guide asks: the median, plus the highest of p90/p99/p99.9 that still
// has at least ten samples beyond it (below 100 samples, the median
// alone), with the sample count.
type picked struct {
	P50    float64 `json:"p50"`
	HiName string  `json:"hi_name,omitempty"` // "" when no percentile has ten samples beyond it
	Hi     float64 `json:"hi,omitempty"`
	N      int     `json:"n"`
}

func pick(xs []float64) picked {
	out := picked{P50: percentile(xs, 0.5), N: len(xs)}
	for _, c := range []struct {
		name     string
		p        float64
		permille int // share of samples beyond the percentile
	}{{"p99.9", 0.999, 1}, {"p99", 0.99, 10}, {"p90", 0.90, 100}} {
		if len(xs)*c.permille/1000 >= 10 {
			out.HiName, out.Hi = c.name, percentile(xs, c.p)
			break
		}
	}
	return out
}
