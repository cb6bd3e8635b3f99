package probe_test

import (
	"testing"
	"time"

	"skeletonhunter/internal/analyzer"
	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/controller"
	"skeletonhunter/internal/localize"
	"skeletonhunter/internal/logstore"
	"skeletonhunter/internal/netsim"
	"skeletonhunter/internal/overlay"
	"skeletonhunter/internal/parallelism"
	"skeletonhunter/internal/probe"
	"skeletonhunter/internal/sim"
	"skeletonhunter/internal/topology"
)

// roundsPerInterval is how many probing rounds land between two
// analysis rounds: the shard inbox's steady-state depth.
const roundsPerInterval = 10

// ingestWorld is the per-round ingest path outside the engine: the
// agents of one running task, each round's batch enqueued into the
// analyzer and appended to the log, the way the round engine's shard
// sink lands it.
type ingestWorld struct {
	agents []*probe.OverlayAgent
	ctx    *netsim.ProbeCtx
	an     *analyzer.Analyzer
	log    *logstore.Store
	now    time.Duration
}

func newIngestWorld(tb testing.TB) *ingestWorld {
	tb.Helper()
	eng := sim.NewEngine(5)
	fab, err := topology.New(topology.Spec{Pods: 1, HostsPerPod: 8, Rails: 8, AggPerPod: 2})
	if err != nil {
		tb.Fatal(err)
	}
	ovl := overlay.NewNetwork()
	cp := cluster.NewControlPlane(eng, fab, ovl, cluster.DefaultLagModel())
	ctl := controller.New()
	ctl.Attach(cp)
	task, err := cp.Submit(cluster.TaskSpec{Par: parallelism.Config{TP: 8, PP: 2, DP: 2}})
	if err != nil {
		tb.Fatal(err)
	}
	eng.RunUntil(10 * time.Minute)
	net := netsim.New(eng, fab, ovl)
	w := &ingestWorld{
		ctx: net.NewProbeCtx(),
		an:  analyzer.New(eng, localize.NewWithControlPlane(net, cp), analyzer.Config{}),
		log: logstore.New(1024, fab),
		now: eng.Now(),
	}
	driver := &probe.RoundEngine{Sim: eng, Net: net}
	for _, c := range task.Containers {
		a := &probe.OverlayAgent{Net: net, Controller: ctl, Task: task, Container: c, Driver: driver}
		a.Start()
		w.agents = append(w.agents, a)
	}
	return w
}

// agentRound runs agent a's round and lands its batch.
func (w *ingestWorld) agentRound(a *probe.OverlayAgent) {
	b := a.RunRound(w.ctx, w.now)
	w.an.IngestBatch(b)
	w.log.AppendBatch(b)
}

// round runs every agent's round, one simulated second after the last.
func (w *ingestWorld) round() {
	w.now += time.Second
	for _, a := range w.agents {
		w.agentRound(a)
	}
}

// warm plays two analysis intervals, sizing the agents' buffers, the
// shard inbox, path pool and pair table, and the log ring's path
// storage for good.
func (w *ingestWorld) warm() {
	for i := 0; i < 2; i++ {
		for r := 0; r < roundsPerInterval; r++ {
			w.round()
		}
		w.an.Round(w.now)
	}
}

// TestAgentRoundAllocatesNothing pins the steady-state ingest path at
// zero allocations: an agent's round refills buffers it owns, the
// analyzer copies each borrowed path into its shard's ordinal pool, and
// the log copies it into storage its ring slot owns — no per-round path
// arena, no per-record allocation. AllocsPerRun calls round once more
// than it measures, so one analysis interval of rounds lands between
// the warm-up's drain and the end of the measurement.
func TestAgentRoundAllocatesNothing(t *testing.T) {
	w := newIngestWorld(t)
	w.warm()
	if n := testing.AllocsPerRun(roundsPerInterval-1, w.round); n != 0 {
		t.Fatalf("a warmed round of %d agents plus enqueue and log append allocates %v times, want 0", len(w.agents), n)
	}
}

// BenchmarkAgentRound is one agent's probing round plus the analyzer
// enqueue and log append of its batch; the analysis round that drains
// the inbox every interval runs off the clock. allocs/op should stay 0.
func BenchmarkAgentRound(b *testing.B) {
	w := newIngestWorld(b)
	w.warm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(w.agents) == 0 {
			w.now += time.Second
		}
		w.agentRound(w.agents[i%len(w.agents)])
		if (i+1)%(roundsPerInterval*len(w.agents)) == 0 {
			b.StopTimer()
			w.an.Round(w.now)
			b.StartTimer()
		}
	}
}
