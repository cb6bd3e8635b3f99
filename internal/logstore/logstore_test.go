package logstore

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/overlay"
	"skeletonhunter/internal/probe"
	"skeletonhunter/internal/topology"
)

// fab is the fabric the fixtures' links belong to: two pods of four
// hosts on two rails, two aggs per pod, one spine.
var fab = func() *topology.Fabric {
	f, err := topology.New(topology.Spec{Pods: 2, HostsPerPod: 4, Rails: 2, AggPerPod: 2, Spines: 1})
	if err != nil {
		panic(err)
	}
	return f
}()

// rec builds a record whose path is the named fabric links, as
// ordinals.
func rec(task string, srcC, dstC int, at time.Duration, path ...string) probe.Record {
	r := probe.Record{
		Task:         cluster.TaskID(task),
		SrcContainer: srcC, SrcRail: 1,
		DstContainer: dstC, DstRail: 1,
		Src: overlay.Addr{Host: srcC, Rail: 1},
		Dst: overlay.Addr{Host: dstC, Rail: 1},
		At:  at, RTT: 16 * time.Microsecond,
	}
	for _, p := range path {
		ord, ok := fab.LinkIndex(topology.LinkID(p))
		if !ok {
			panic("fixture link outside the fabric: " + p)
		}
		r.Path = append(r.Path, ord)
	}
	return r
}

// put appends one record through the store's only write method.
func put(s *Store, r probe.Record) { s.AppendBatch([]probe.Record{r}) }

func TestQueries(t *testing.T) {
	s := New(100, fab)
	put(s, rec("t1", 0, 1, time.Second, "nic/h0/r1--tor/p0/r1", "nic/h1/r1--tor/p0/r1"))
	put(s, rec("t1", 1, 2, 2*time.Second, "nic/h1/r1--tor/p0/r1", "nic/h2/r1--tor/p0/r1"))
	put(s, rec("t2", 0, 1, 3*time.Second))

	if got := s.ByTask("t1", 0); len(got) != 2 {
		t.Fatalf("by task = %d, want 2", len(got))
	}
	if got := s.ByTask("t1", 2*time.Second); len(got) != 1 {
		t.Fatalf("by task since = %d, want 1", len(got))
	}
	// Container 1 of t1 touched both records (dst of first, src of second).
	if got := s.ByContainer("t1", 1, 0); len(got) != 2 {
		t.Fatalf("by container = %d, want 2", len(got))
	}
	// Host 1 rail 1 appears in all three records (dst of the first and
	// third, src of the second) — the RNIC dimension is task-agnostic.
	if got := s.ByRNIC(1, 1, 0); len(got) != 3 {
		t.Fatalf("by RNIC = %d, want 3", len(got))
	}
	if got := s.ByRNIC(2, 1, 0); len(got) != 1 {
		t.Fatalf("by RNIC h2 = %d, want 1", len(got))
	}
	if got := s.BySwitch("tor/p0/r1", 0); len(got) != 2 {
		t.Fatalf("by switch = %d, want 2", len(got))
	}
	if got := s.BySwitch("tor/p9/r9", 0); len(got) != 0 {
		t.Fatalf("unknown switch = %d records", len(got))
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestConcurrentAppendQuery(t *testing.T) {
	s := New(256, fab)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				put(s, rec(fmt.Sprintf("t%d", w), i%4, (i+1)%4, time.Duration(i)*time.Millisecond))
				if i%10 == 0 {
					s.ByTask(fmt.Sprintf("t%d", w), 0)
					s.ByRNIC(i%4, 1, 0)
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 256 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestZeroCapacityFloor(t *testing.T) {
	s := New(0, fab)
	put(s, rec("t", 0, 1, 0))
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
}

// TestContainerOwnProbeReturnedOnce: a record whose source and
// destination are the same container touches that container once. The
// indexed store filed it twice under the one container key, so
// ByContainer served it twice and evidence bundles double-counted it.
func TestContainerOwnProbeReturnedOnce(t *testing.T) {
	s := New(8, fab)
	put(s, rec("t1", 2, 2, time.Second))
	put(s, rec("t1", 2, 3, 2*time.Second))
	if got := s.ByContainer("t1", 2, 0); len(got) != 2 {
		t.Fatalf("ByContainer = %d records, want 2 (the self-probe once)", len(got))
	}
	if got := s.ByRNIC(2, 1, 0); len(got) != 2 {
		t.Fatalf("ByRNIC = %d records, want 2 (the self-probe once)", len(got))
	}
}

// TestQueriesMatchModel checks every query dimension against a
// brute-force filter over the last `capacity` appended records, after
// every append of a stream that wraps the ring several times: only
// retained records are served, all of them, oldest first. Cases vary
// how the same stream is batched — single records, uneven batches,
// batches longer than the ring, empty batches — because batch
// boundaries must not be observable.
func TestQueriesMatchModel(t *testing.T) {
	paths := [][]string{
		{"nic/h0/r1--tor/p0/r1", "agg/p0/a0--tor/p0/r1"},
		{"nic/h1/r1--tor/p0/r1", "agg/p0/a1--tor/p0/r1", "agg/p0/a1--spine/s0"},
		nil, // lost before the first hop
		{"nic/h4/r1--tor/p1/r1"},
	}
	stream := make([]probe.Record, 120)
	for i := range stream {
		src, dst := i%4, (i/4+1)%4
		if i%5 == 0 {
			dst = src // a container probing itself
		}
		stream[i] = rec(fmt.Sprintf("t%d", i%3), src, dst, time.Duration(i/7)*time.Second, paths[i%len(paths)]...)
	}
	touches := func(r probe.Record, node string) bool {
		for _, l := range r.Path {
			if ends := strings.Split(string(fab.LinkByIndex(l)), "--"); ends[0] == node || ends[1] == node {
				return true
			}
		}
		return false
	}
	none := func(probe.Record) bool { return false }
	queries := []struct {
		name  string
		run   func(s *Store, since time.Duration) []probe.Record
		match func(r probe.Record) bool
	}{
		{"ByTask(t1)",
			func(s *Store, since time.Duration) []probe.Record { return s.ByTask("t1", since) },
			func(r probe.Record) bool { return r.Task == "t1" }},
		{"ByTask(absent)",
			func(s *Store, since time.Duration) []probe.Record { return s.ByTask("t9", since) }, none},
		{"ByContainer(t0,2)",
			func(s *Store, since time.Duration) []probe.Record { return s.ByContainer("t0", 2, since) },
			func(r probe.Record) bool { return r.Task == "t0" && (r.SrcContainer == 2 || r.DstContainer == 2) }},
		{"ByRNIC(1,1)",
			func(s *Store, since time.Duration) []probe.Record { return s.ByRNIC(1, 1, since) },
			func(r probe.Record) bool {
				return r.Src == overlay.Addr{Host: 1, Rail: 1} || r.Dst == overlay.Addr{Host: 1, Rail: 1}
			}},
		{"ByRNIC(1,0) other rail",
			func(s *Store, since time.Duration) []probe.Record { return s.ByRNIC(1, 0, since) }, none},
		{"BySwitch(tor) at a link's tail",
			func(s *Store, since time.Duration) []probe.Record { return s.BySwitch("tor/p0/r1", since) },
			func(r probe.Record) bool { return touches(r, "tor/p0/r1") }},
		{"BySwitch(agg) at a link's head",
			func(s *Store, since time.Duration) []probe.Record { return s.BySwitch("agg/p0/a1", since) },
			func(r probe.Record) bool { return touches(r, "agg/p0/a1") }},
		{"BySwitch(spine)",
			func(s *Store, since time.Duration) []probe.Record { return s.BySwitch("spine/s0", since) },
			func(r probe.Record) bool { return touches(r, "spine/s0") }},
		{"BySwitch(prefix of a switch name)",
			func(s *Store, since time.Duration) []probe.Record { return s.BySwitch("tor/p0/r", since) }, none},
		{"BySwitch(nic): not a query dimension",
			func(s *Store, since time.Duration) []probe.Record { return s.BySwitch("nic/h0/r1", since) }, none},
	}
	cases := []struct {
		name     string
		capacity int
		batch    func(i int) int // size of the i-th batch
	}{
		{"single records", 16, func(int) int { return 1 }},
		{"uneven batches with empties", 16, func(i int) int { return i % 6 }},
		{"batch straddles the wrap", 10, func(int) int { return 7 }},
		{"batch longer than the ring", 8, func(i int) int { return 8 + 13*(i%2) }},
		{"never fills", 256, func(int) int { return 5 }},
		{"capacity one", 1, func(i int) int { return 1 + i%3 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(tc.capacity, fab)
			for done, i := 0, 0; done < len(stream); i++ {
				n := tc.batch(i)
				if done+n > len(stream) {
					n = len(stream) - done
				}
				batch := append([]probe.Record(nil), stream[done:done+n]...)
				s.AppendBatch(batch)
				// The caller may reuse the batch's backing array.
				for j := range batch {
					batch[j].SrcContainer = 999
				}
				done += n

				live := stream[:done]
				if len(live) > tc.capacity {
					live = live[len(live)-tc.capacity:]
				}
				if s.Len() != len(live) {
					t.Fatalf("after %d appends: Len = %d, want %d", done, s.Len(), len(live))
				}
				if len(live) == 0 {
					continue
				}
				if at, full := s.OldestAt(); at != live[0].At || full != (done >= tc.capacity) {
					t.Fatalf("after %d appends: OldestAt = (%v, %v), want (%v, %v)",
						done, at, full, live[0].At, done >= tc.capacity)
				}
				for _, q := range queries {
					for _, since := range []time.Duration{0, live[len(live)/2].At, time.Hour} {
						var want []probe.Record
						for _, r := range live {
							if r.At >= since && q.match(r) {
								want = append(want, r)
							}
						}
						if got := q.run(s, since); !reflect.DeepEqual(got, want) {
							t.Fatalf("after %d appends, %s since %v:\n got %d records at %v\nwant %d records at %v",
								done, q.name, since, len(got), ats(got), len(want), ats(want))
						}
					}
				}
			}
		})
	}
}

func ats(recs []probe.Record) []time.Duration {
	out := make([]time.Duration, len(recs))
	for i, r := range recs {
		out[i] = r.At
	}
	return out
}

// TestQueryDuringEvictionNeverServesEvicted races a writer wrapping
// the ring against readers on every query dimension. Readers must
// never observe a record older than the low-water mark the writer has
// already advanced past — the ring had provably evicted those before
// the query started — and nothing may panic mid-eviction.
func TestQueryDuringEvictionNeverServesEvicted(t *testing.T) {
	const capacity = 64
	s := New(capacity, fab)
	// Pre-fill so eviction is active from the first concurrent append.
	for i := 0; i < capacity; i++ {
		put(s, rec("t1", i%4, (i+1)%4, time.Duration(i)*time.Second,
			"nic/h0/r1--tor/p0/r1"))
	}

	var appended int64 = capacity // guarded by mu below
	var mu sync.Mutex
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := capacity; i < capacity*40; i++ {
			put(s, rec("t1", i%4, (i+1)%4, time.Duration(i)*time.Second,
				"nic/h0/r1--tor/p0/r1"))
			mu.Lock()
			appended = int64(i + 1)
			mu.Unlock()
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				// Low-water mark *before* the query: anything older than
				// (appended - capacity) was evicted before we started, so
				// serving it would be a use-after-evict.
				mu.Lock()
				floor := appended - capacity
				mu.Unlock()
				var got []probe.Record
				switch w {
				case 0:
					got = s.ByTask("t1", 0)
				case 1:
					got = s.ByContainer("t1", w%4, 0)
				case 2:
					got = s.ByRNIC(w%4, 1, 0)
				default:
					got = s.BySwitch("tor/p0/r1", 0)
				}
				for _, r := range got {
					if r.At < time.Duration(floor)*time.Second {
						errs <- fmt.Errorf("reader %d: evicted record at %v served (floor %v)", w, r.At, floor)
						return
					}
				}
			}
		}(w)
	}
	<-done
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s.Len() != capacity {
		t.Fatalf("len = %d, want %d", s.Len(), capacity)
	}
}
