package pipeline

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

type shard struct {
	key  string
	seen int
}

// keysOf lists a shard map's keys in the order Each visits them.
func keysOf(m *Sharded[shard]) []string {
	var keys []string
	m.Each(func(key string, _ *shard) { keys = append(keys, key) })
	return keys
}

func TestShardedGetCreatesOnce(t *testing.T) {
	m := NewSharded(func(key string) *shard { return &shard{key: key} })
	a := m.Get("task-2")
	b := m.Get("task-2")
	if a != b {
		t.Fatal("Get created a second shard for the same key")
	}
	if m.Len() != 1 {
		t.Fatalf("len = %d, want 1", m.Len())
	}
	if _, ok := m.Peek("task-9"); ok {
		t.Fatal("Peek created a shard")
	}
	if m.Len() != 1 {
		t.Fatalf("Peek changed len to %d", m.Len())
	}
}

func TestShardedKeysSorted(t *testing.T) {
	m := NewSharded(func(key string) *shard { return &shard{key: key} })
	for _, k := range []string{"task-3", "task-1", "task-10", "task-2"} {
		m.Get(k)
	}
	got := keysOf(m)
	want := append([]string(nil), got...)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("keys not sorted: %v", got)
	}
	m.Delete("task-10")
	m.Delete("task-10") // double delete is a no-op
	if m.Len() != 3 {
		t.Fatalf("len after delete = %d, want 3", m.Len())
	}
	for _, k := range keysOf(m) {
		if k == "task-10" {
			t.Fatal("deleted key still listed")
		}
	}
}

func TestEachVisitsInKeyOrder(t *testing.T) {
	m := NewSharded(func(key string) *shard { return &shard{key: key} })
	for i := 20; i > 0; i-- {
		m.Get(fmt.Sprintf("k%03d", i))
	}
	var visited []string
	m.Each(func(key string, s *shard) {
		if s.key != key {
			t.Fatalf("shard %q delivered under key %q", s.key, key)
		}
		visited = append(visited, key)
	})
	if !sort.StringsAreSorted(visited) {
		t.Fatalf("Each out of order: %v", visited)
	}
	if len(visited) != 20 {
		t.Fatalf("visited %d shards, want 20", len(visited))
	}
}

// TestFanOutDeterministicMerge is the load-bearing property: the merged
// result slice must be identical at any worker count.
func TestFanOutDeterministicMerge(t *testing.T) {
	m := NewSharded(func(key string) *shard { return &shard{key: key} })
	for i := 0; i < 64; i++ {
		m.Get(fmt.Sprintf("task-%03d", i)).seen = i
	}
	run := func(workers int) []string {
		return FanOutTimed(m, workers, func(key string, s *shard) string {
			return fmt.Sprintf("%s/%d", key, s.seen)
		}, nil)
	}
	want := run(1)
	for _, workers := range []int{0, 2, 3, 8, 64, 200} {
		for rep := 0; rep < 5; rep++ {
			if got := run(workers); !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d produced a different merge:\n got %v\nwant %v", workers, got, want)
			}
		}
	}
}

func TestFanOutTouchesEachShardOnce(t *testing.T) {
	m := NewSharded(func(key string) *shard { return &shard{key: key} })
	for i := 0; i < 33; i++ {
		m.Get(fmt.Sprintf("t%02d", i))
	}
	FanOutTimed(m, 7, func(key string, s *shard) int {
		s.seen++ // exclusive ownership during the fan-out: no lock needed
		return 0
	}, nil)
	m.Each(func(key string, s *shard) {
		if s.seen != 1 {
			t.Fatalf("shard %s visited %d times", key, s.seen)
		}
	})
}

func TestFanOutTimedObservesEveryShard(t *testing.T) {
	m := NewSharded(func(key string) *shard { return &shard{key: key} })
	for i := 0; i < 17; i++ {
		m.Get(fmt.Sprintf("t%02d", i))
	}
	var mu sync.Mutex
	timed := map[string]int{}
	got := FanOutTimed(m, 4, func(key string, s *shard) string {
		return key
	}, func(key string, d time.Duration) {
		if d < 0 {
			t.Errorf("negative duration for %s", key)
		}
		mu.Lock()
		timed[key]++
		mu.Unlock()
	})
	if !reflect.DeepEqual(got, keysOf(m)) {
		t.Fatalf("timed fan-out changed the merge: %v", got)
	}
	for _, k := range keysOf(m) {
		if timed[k] != 1 {
			t.Fatalf("shard %s observed %d times", k, timed[k])
		}
	}
}

func TestFanOutEmpty(t *testing.T) {
	m := NewSharded(func(key string) *shard { return &shard{key: key} })
	if got := FanOutTimed(m, 4, func(string, *shard) int { return 1 }, nil); len(got) != 0 {
		t.Fatalf("fan-out over no shards returned %v", got)
	}
}

func TestCounters(t *testing.T) {
	var c Counters
	c.Add(StageIngest, 10)
	c.Add(StageDetect, 3)
	c.Add(StageIngest, 5)
	if got := c.Get(StageIngest); got != 15 {
		t.Fatalf("ingest = %d, want 15", got)
	}
	if got := c.Get(StageAlarm); got != 0 {
		t.Fatalf("alarm = %d, want 0", got)
	}
	s := c.String()
	if s != "ingest=15 detect=3 localize=0 alarm=0" {
		t.Fatalf("unexpected render: %q", s)
	}
}
