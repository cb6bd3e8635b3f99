package hunter

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/component"
	"skeletonhunter/internal/faults"
	"skeletonhunter/internal/parallelism"
	"skeletonhunter/internal/probe"
	"skeletonhunter/internal/topology"
)

// The metamorphic property of the analysis plane: the order in which
// agent batches *arrive* between two analysis rounds is an accident of
// transport scheduling, so permuting it must leave every analysis
// outcome — the alarm stream, the blacklist, and the incident
// fingerprint (which digests evidence bundles) — bit-identical. The
// permutations preserve each agent's own batch order, the guarantee a
// real collector has (per-sender FIFO over one TCP stream, arbitrary
// interleaving across senders).

// agentKey identifies one sidecar agent's batch stream.
type agentKey struct {
	task string
	c    int
}

// batchShuffler is a probe.ShardSink wrapped around the deployment's
// own: it buffers every agent batch landed between analysis rounds and
// re-delivers the buffer, through the inner sink's Consume then Land,
// in a seeded random interleaving just before the round drains (via
// the analyzer's Gate hook, which runs at the top of every round).
type batchShuffler struct {
	inner  probe.ShardSink
	rng    *rand.Rand
	order  []agentKey
	queues map[agentKey][]probe.Batch
}

func installShuffler(d *Deployment, seed int64) *batchShuffler {
	s := &batchShuffler{
		inner:  d.rounds.Sink,
		rng:    rand.New(rand.NewSource(seed)),
		queues: make(map[agentKey][]probe.Batch),
	}
	d.rounds.Sink = s
	d.Analyzer.Gate = func(time.Duration) bool {
		s.flush()
		return false
	}
	return s
}

func (s *batchShuffler) Prepare(tasks []cluster.TaskID) { s.inner.Prepare(tasks) }

// Consume does nothing: batches are buffered at Land, which runs
// serially.
func (s *batchShuffler) Consume(probe.Batch) {}

// Land buffers a batch in place of delivery. The batch's records and
// paths are reused by the agent, so buffer a deep copy.
func (s *batchShuffler) Land(b probe.Batch) {
	if len(b) == 0 {
		return
	}
	k := agentKey{task: string(b[0].Task), c: b[0].SrcContainer}
	if _, ok := s.queues[k]; !ok {
		s.order = append(s.order, k)
	}
	s.queues[k] = append(s.queues[k], b.Clone())
}

// flush delivers everything buffered: repeatedly pick a random agent
// that still has batches queued and deliver its oldest one.
func (s *batchShuffler) flush() {
	live := make([]agentKey, 0, len(s.order))
	for _, k := range s.order {
		if len(s.queues[k]) > 0 {
			live = append(live, k)
		}
	}
	for len(live) > 0 {
		i := s.rng.Intn(len(live))
		k := live[i]
		q := s.queues[k]
		s.inner.Consume(q[0])
		s.inner.Land(q[0])
		s.queues[k] = q[1:]
		if len(s.queues[k]) == 0 {
			live = append(live[:i], live[i+1:]...)
		}
	}
	s.order = s.order[:0]
	for k := range s.queues {
		delete(s.queues, k)
	}
}

// runArrivalScenario plays the two-tenant fault scenario of the
// determinism tests and renders every analysis outcome. shuffleSeed 0
// runs with normal batch delivery; any other seed buffers and shuffles
// batch arrival order between rounds.
func runArrivalScenario(t *testing.T, shuffleSeed int64) string {
	t.Helper()
	d, err := New(Options{
		Seed:    23,
		Spec:    topology.Spec{Pods: 1, HostsPerPod: 8, Rails: 8, AggPerPod: 2},
		Lag:     fastLag(),
		Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var finish func()
	if shuffleSeed != 0 {
		s := installShuffler(d, shuffleSeed)
		finish = s.flush
	}
	t1, err := d.SubmitTask(cluster.TaskSpec{Par: parallelism.Config{TP: 8, PP: 2, DP: 2}})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := d.SubmitTask(cluster.TaskSpec{Par: parallelism.Config{TP: 8, PP: 2, DP: 2}})
	if err != nil {
		t.Fatal(err)
	}
	d.Run(7 * time.Minute)

	a := t1.Containers[0].Addrs[0]
	if _, err := d.Injector.Inject(faults.RNICPortDown, faults.Target{Host: a.Host, Rail: a.Rail}); err != nil {
		t.Fatal(err)
	}
	b := t2.Containers[1].Addrs[2]
	if _, err := d.Injector.Inject(faults.RNICPortFlapping, faults.Target{Host: b.Host, Rail: b.Rail}); err != nil {
		t.Fatal(err)
	}
	d.Run(3 * time.Minute)
	// Batches emitted since the last round are still buffered in the
	// shuffled run: deliver them before closing the windows, exactly as
	// the next round's Gate would have.
	if finish != nil {
		finish()
	}
	d.Analyzer.Flush(d.Engine.Now())

	var sb strings.Builder
	for _, al := range d.Analyzer.Alarms() {
		fmt.Fprintf(&sb, "alarm@%v\n", al.At)
		for _, an := range al.Anomalies {
			fmt.Fprintf(&sb, "  anomaly %+v %v @%v score=%.9g\n", an.Key, an.Type, an.At, an.Score)
		}
		for _, v := range al.Verdicts {
			fmt.Fprintf(&sb, "  verdict [%v] %v pairs=%d %s\n", v.Layer, v.Components, v.Pairs, v.Detail)
		}
	}
	bl := d.Analyzer.Blacklist()
	keys := make([]string, 0, len(bl))
	for c := range bl {
		keys = append(keys, string(c))
	}
	sort.Strings(keys)
	for _, c := range keys {
		at, _ := d.Analyzer.Blacklisted(component.ID(c))
		fmt.Fprintf(&sb, "blacklist %s @%v\n", c, at)
	}
	fmt.Fprintf(&sb, "incidents=%d fingerprint=%s\n", len(d.Incidents.Incidents()), d.Incidents.Fingerprint())
	return sb.String()
}

// TestArrivalOrderMetamorphic checks the property across several
// independent permutations of batch arrival order.
func TestArrivalOrderMetamorphic(t *testing.T) {
	want := runArrivalScenario(t, 0)
	if !strings.Contains(want, "alarm@") {
		t.Fatal("scenario raised no alarms; metamorphic test has no teeth")
	}
	if !strings.Contains(want, "incidents=") || strings.Contains(want, "incidents=0 ") {
		t.Fatal("scenario opened no incidents; fingerprint comparison has no teeth")
	}
	for _, seed := range []int64{7, 99, 4242} {
		if got := runArrivalScenario(t, seed); got != want {
			t.Fatalf("shuffle seed %d changed the analysis outcome:\n--- ordered ---\n%s--- shuffled ---\n%s", seed, want, got)
		}
	}
}
