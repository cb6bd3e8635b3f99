package correlate

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"time"

	"skeletonhunter/internal/component"
	"skeletonhunter/internal/sim"
	"skeletonhunter/internal/topology"
)

// SnapshotVersion identifies the correlate snapshot wire shape carried
// inside the deployment checkpoint (v4's new section).
const SnapshotVersion = 1

// SeriesSnapshot is one series' exact state: identity, frozen
// baseline, CUSUM accumulators, and the (normally empty between
// rounds) round accumulator.
type SeriesSnapshot struct {
	// Key reconstructs the map key: [src container, src rail, dst
	// container, dst rail] for RTT series, [host, rail] for
	// throughput series, empty for queue series (Node carries it).
	Key   []int
	Node  topology.NodeID
	Name  string
	Kind  SeriesKind
	Comps []component.ID
	State CUSUM
	Sum   float64
	N     int
}

// ShardSnapshot is one task's series set plus its replay guard.
type ShardSnapshot struct {
	Task            string
	ObservedThrough time.Duration
	RTT             []SeriesSnapshot
	NIC             []SeriesSnapshot
}

// BloomSnapshot is the dedup filter's cells and RNG stream position.
type BloomSnapshot struct {
	Cells []uint8
	RNG   uint64
}

// LeaderSnapshot is one retained lead-lag leader event.
type LeaderSnapshot struct {
	Round     int
	Component component.ID
	Kind      SeriesKind
}

// LagSnapshot is one (leader component, follower task) lag histogram.
type LagSnapshot struct {
	Component component.ID
	Task      string
	Counts    []int
	Total     int
	Emitted   bool
}

// Snapshot is the engine's complete state, deterministically ordered.
type Snapshot struct {
	Version int
	Round   int
	Shards  []ShardSnapshot
	Queues  []SeriesSnapshot
	Bloom   BloomSnapshot
	Alarms  []Alarm
	Leaders []LeaderSnapshot
	Lags    []LagSnapshot
	Prev    []ChangePoint
}

func snapSeries(s *series, key []int, node topology.NodeID) SeriesSnapshot {
	return SeriesSnapshot{
		Key:   key,
		Node:  node,
		Name:  s.name,
		Kind:  s.kind,
		Comps: append([]component.ID(nil), s.comps...),
		State: s.cusum,
		Sum:   s.sum,
		N:     s.n,
	}
}

func restoreSeries(ss SeriesSnapshot) *series {
	return &series{
		kind:  ss.Kind,
		name:  ss.Name,
		comps: append([]component.ID(nil), ss.Comps...),
		cusum: ss.State,
		sum:   ss.Sum,
		n:     ss.N,
	}
}

// Snapshot captures the engine's exact state. Engine goroutine only.
func (e *Engine) Snapshot() Snapshot {
	snap := Snapshot{Version: SnapshotVersion, Round: e.round}

	tasks := make([]string, 0, len(e.shards))
	for t := range e.shards {
		tasks = append(tasks, t)
	}
	sort.Strings(tasks)
	for _, t := range tasks {
		sh := e.shards[t]
		ss := ShardSnapshot{Task: t, ObservedThrough: sh.observedThrough}
		pks := make([]pairKey, 0, len(sh.rtt))
		for k := range sh.rtt {
			pks = append(pks, k)
		}
		sort.Slice(pks, func(i, j int) bool { return pks[i].less(pks[j]) })
		for _, k := range pks {
			ss.RTT = append(ss.RTT, snapSeries(sh.rtt[k], []int{k.sc, k.sr, k.dc, k.dr}, ""))
		}
		nks := make([]nicKey, 0, len(sh.nic))
		for k := range sh.nic {
			nks = append(nks, k)
		}
		sort.Slice(nks, func(i, j int) bool { return nks[i].less(nks[j]) })
		for _, k := range nks {
			ss.NIC = append(ss.NIC, snapSeries(sh.nic[k], []int{k.host, k.rail}, ""))
		}
		snap.Shards = append(snap.Shards, ss)
	}

	nodes := make([]string, 0, len(e.queue))
	for n := range e.queue {
		nodes = append(nodes, string(n))
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		snap.Queues = append(snap.Queues, snapSeries(e.queue[topology.NodeID(n)], nil, topology.NodeID(n)))
	}

	snap.Bloom = BloomSnapshot{
		Cells: append([]uint8(nil), e.bloom.cells...),
		RNG:   uint64(e.bloom.rng),
	}
	snap.Alarms = e.Alarms()

	snap.Leaders = make([]LeaderSnapshot, len(e.leaders))
	for i, l := range e.leaders {
		snap.Leaders[i] = LeaderSnapshot{Round: l.Round, Component: l.Component, Kind: l.Kind}
	}

	lks := make([]lagKey, 0, len(e.lags))
	for k := range e.lags {
		lks = append(lks, k)
	}
	sort.Slice(lks, func(i, j int) bool {
		if lks[i].Component != lks[j].Component {
			return lks[i].Component < lks[j].Component
		}
		return lks[i].Task < lks[j].Task
	})
	for _, k := range lks {
		h := e.lags[k]
		snap.Lags = append(snap.Lags, LagSnapshot{
			Component: k.Component, Task: k.Task,
			Counts: append([]int(nil), h.Counts...),
			Total:  h.Total, Emitted: h.Emitted,
		})
	}

	for _, cp := range e.prev {
		cp.Components = append([]component.ID(nil), cp.Components...)
		snap.Prev = append(snap.Prev, cp)
	}
	return snap
}

// Restore replaces the engine's state with the snapshot's, exactly:
// CUSUM accumulators, bloom cells and RNG position, the alarm ledger,
// and the lead-lag histograms all resume bit-identically. Shards get
// their replay guard set so the recovery's logstore replay feeds the
// first-layer detector without double-counting here.
func (e *Engine) Restore(snap Snapshot) error {
	if snap.Version != SnapshotVersion {
		return fmt.Errorf("correlate: snapshot version %d, want %d", snap.Version, SnapshotVersion)
	}
	e.round = snap.Round
	e.shards = make(map[string]*Shard, len(snap.Shards))
	for _, ss := range snap.Shards {
		sh := newShard(ss.Task, e.cfg.Warmup)
		sh.observedThrough = ss.ObservedThrough
		sh.skipThrough = ss.ObservedThrough
		for _, rs := range ss.RTT {
			k := pairKey{rs.Key[0], rs.Key[1], rs.Key[2], rs.Key[3]}
			sh.rtt[k] = restoreSeries(rs)
		}
		for _, ns := range ss.NIC {
			k := nicKey{ns.Key[0], ns.Key[1]}
			sh.nic[k] = restoreSeries(ns)
		}
		e.shards[ss.Task] = sh
	}
	e.queue = make(map[topology.NodeID]*series, len(snap.Queues))
	for _, qs := range snap.Queues {
		e.queue[qs.Node] = restoreSeries(qs)
	}
	e.bloom = newStableBloom(bloomCells, bloomHashes, bloomDecay, bloomMax, e.cfg.Seed)
	if len(snap.Bloom.Cells) == len(e.bloom.cells) {
		copy(e.bloom.cells, snap.Bloom.Cells)
	}
	if snap.Bloom.RNG != 0 {
		e.bloom.rng = sim.SplitMix64(snap.Bloom.RNG)
	}
	e.alarms = make([]*Alarm, len(snap.Alarms))
	e.ledger = make(map[string]int, len(snap.Alarms))
	for i, al := range snap.Alarms {
		cp := al.clone()
		e.alarms[i] = &cp
		e.ledger[string(al.Component)+"|"+al.Kind.String()] = al.Seq
	}
	e.leaders = make([]leaderEvent, len(snap.Leaders))
	for i, l := range snap.Leaders {
		e.leaders[i] = leaderEvent{Round: l.Round, Component: l.Component, Kind: l.Kind}
	}
	e.lags = make(map[lagKey]*lagHist, len(snap.Lags))
	for _, ls := range snap.Lags {
		e.lags[lagKey{ls.Component, ls.Task}] = &lagHist{
			Counts: append([]int(nil), ls.Counts...),
			Total:  ls.Total, Emitted: ls.Emitted,
		}
	}
	e.prev = nil
	for _, cp := range snap.Prev {
		cp.Components = append([]component.ID(nil), cp.Components...)
		e.prev = append(e.prev, cp)
	}
	return nil
}

// Crash wipes in-memory state, as a correlate layer dying with its
// controller process would. RecoverFrom restores from the last
// checkpoint afterwards.
func (e *Engine) Crash() {
	fresh := New(e.cfg)
	e.shards = fresh.shards
	e.queue = fresh.queue
	e.bloom = fresh.bloom
	e.round = 0
	e.alarms = nil
	e.ledger = fresh.ledger
	e.leaders = nil
	e.lags = fresh.lags
	e.prev = nil
}

func hashF(h interface{ Write([]byte) (int, error) }, v float64) {
	fmt.Fprintf(h, "%016x ", math.Float64bits(v))
}

func hashSeries(h interface{ Write([]byte) (int, error) }, ss SeriesSnapshot) {
	fmt.Fprintf(h, "s %v %q %q %d %v %d %d ", ss.Key, ss.Node, ss.Name, ss.Kind, ss.Comps, ss.State.N, ss.N)
	for _, f := range []float64{ss.State.Mean, ss.State.M2, ss.State.Mu, ss.State.Sig,
		ss.State.LevelPos, ss.State.LevelNeg, ss.State.DriftPos, ss.State.DriftNeg, ss.Sum} {
		hashF(h, f)
	}
	fmt.Fprintln(h)
}

// Fingerprint digests the engine's complete state — series baselines
// and accumulators, bloom cells and RNG, alarms with chains, lag
// histograms — so the checkpoint tests can assert exact restoration,
// not just behavioral similarity.
func (e *Engine) Fingerprint() string {
	snap := e.Snapshot()
	h := sha256.New()
	fmt.Fprintf(h, "v%d r%d\n", snap.Version, snap.Round)
	for _, ss := range snap.Shards {
		fmt.Fprintf(h, "shard %q %d\n", ss.Task, ss.ObservedThrough)
		for _, s := range ss.RTT {
			hashSeries(h, s)
		}
		for _, s := range ss.NIC {
			hashSeries(h, s)
		}
	}
	for _, s := range snap.Queues {
		hashSeries(h, s)
	}
	h.Write(snap.Bloom.Cells)
	fmt.Fprintf(h, "rng %016x\n", snap.Bloom.RNG)
	for _, al := range snap.Alarms {
		fmt.Fprintf(h, "al %d %q %d %d %d %d %d %d ", al.Seq, al.Component, al.Kind,
			al.At, al.LastAt, al.Round, al.ChangePoints, al.Suppressed)
		hashF(h, al.Score)
		fmt.Fprintf(h, "%q\n", al.Chains)
	}
	for _, l := range snap.Leaders {
		fmt.Fprintf(h, "ld %d %q %d\n", l.Round, l.Component, l.Kind)
	}
	for _, ls := range snap.Lags {
		fmt.Fprintf(h, "lag %q %q %v %d %v\n", ls.Component, ls.Task, ls.Counts, ls.Total, ls.Emitted)
	}
	for _, cp := range snap.Prev {
		fmt.Fprintf(h, "cp %d %d %d %d %d %q %q %v ", cp.Round, cp.At, cp.Kind, cp.Variant,
			cp.Direction, cp.Task, cp.Series, cp.Components)
		hashF(h, cp.Stat)
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}
