package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCountersAccumulate(t *testing.T) {
	s := New()
	s.Inc(RecordsIngested)
	s.Add(RecordsIngested, 9)
	s.Add(RecordsShed, 3)
	if got := s.Get(RecordsIngested); got != 10 {
		t.Fatalf("RecordsIngested = %d, want 10", got)
	}
	if got := s.Get(RecordsShed); got != 3 {
		t.Fatalf("RecordsShed = %d, want 3", got)
	}
	if got := s.Get(AlarmsRaised); got != 0 {
		t.Fatalf("untouched counter = %d", got)
	}
}

func TestNilStatsIsSafe(t *testing.T) {
	var s *Stats
	s.Inc(RecordsIngested)
	s.Add(RecordsShed, 5)
	s.ObserveDuration("y", time.Millisecond)
	if got := s.Get(RecordsShed); got != 0 {
		t.Fatalf("nil stats returned %d", got)
	}
	snap := s.Snapshot()
	if len(snap.Histograms) != 0 {
		t.Fatal("nil stats snapshot has histograms")
	}
}

func TestHistogramSummary(t *testing.T) {
	s := New()
	for _, v := range []float64{1, 2, 3, 10} {
		s.Histogram("lat").Observe(v)
	}
	snap := s.Histogram("lat").Snapshot()
	if snap.Count != 4 || snap.Min != 1 || snap.Max != 10 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if got := snap.Mean(); got != 4 {
		t.Fatalf("mean = %v, want 4", got)
	}
	if (HistogramSnapshot{}).Mean() != 0 {
		t.Fatal("empty mean not 0")
	}
}

func TestConcurrentRecording(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Inc(ProbesSent)
				s.Histogram("round").Observe(float64(i%7) + 1)
			}
		}()
	}
	wg.Wait()
	if got := s.Get(ProbesSent); got != 8000 {
		t.Fatalf("ProbesSent = %d", got)
	}
	if got := s.Histogram("round").Snapshot().Count; got != 8000 {
		t.Fatalf("histogram count = %d", got)
	}
}

func TestSnapshotString(t *testing.T) {
	s := New()
	s.Add(BatchesDropped, 7)
	s.ObserveDuration("round-wall-clock", 2*time.Millisecond)
	out := s.Snapshot().String()
	if !strings.Contains(out, "batches-dropped") || !strings.Contains(out, "7") {
		t.Fatalf("missing counter in:\n%s", out)
	}
	if !strings.Contains(out, "round-wall-clock") {
		t.Fatalf("missing histogram in:\n%s", out)
	}
}

func TestCounterNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Counters() {
		n := c.String()
		if seen[n] {
			t.Fatalf("duplicate counter name %q", n)
		}
		if n == "" || strings.HasPrefix(n, "counter(") {
			t.Fatalf("counter %d has no name", int(c))
		}
		seen[n] = true
	}
}
