package probe

import (
	"fmt"
	"reflect"
	"testing"
)

func taskKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("task-%03d", i)
	}
	return keys
}

// TestFanOutDeterministicMerge is the load-bearing property: results
// written by index read back identically at any worker count.
func TestFanOutDeterministicMerge(t *testing.T) {
	var p Pool
	keys := taskKeys(64)
	run := func(workers int) []string {
		out := make([]string, len(keys))
		FanOut(&p, workers, keys, func(_, i int) {
			out[i] = fmt.Sprintf("%s/%d", keys[i], i)
		})
		return out
	}
	want := run(1)
	for _, workers := range []int{0, -1, 2, 3, 8, 64, 200} {
		for rep := 0; rep < 5; rep++ {
			if got := run(workers); !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d produced a different merge:\n got %v\nwant %v", workers, got, want)
			}
		}
	}
}

func TestFanOutRunsEachTaskOnce(t *testing.T) {
	var p Pool
	keys := taskKeys(33)
	seen := make([]int, len(keys))
	FanOut(&p, 7, keys, func(_, i int) {
		seen[i]++ // task i is owned by one goroutine: no lock needed
	})
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("task %s ran %d times", keys[i], n)
		}
	}
}

func TestFanOutEmpty(t *testing.T) {
	var p Pool
	FanOut(&p, 4, []string(nil), func(_, i int) {
		t.Errorf("fan-out over no tasks called fn(%d)", i)
	})
}

// TestFanOutInlineAtOneWorker checks that one worker, or one task at
// any worker bound, runs on the caller's goroutine in index order (an
// unsynchronized append that the race detector would flag otherwise).
func TestFanOutInlineAtOneWorker(t *testing.T) {
	var p Pool
	for _, tc := range []struct{ workers, tasks int }{{1, 20}, {8, 1}} {
		var order []int
		FanOut(&p, tc.workers, taskKeys(tc.tasks), func(slot, i int) {
			if slot != 0 {
				t.Errorf("workers=%d tasks=%d: inline call on slot %d", tc.workers, tc.tasks, slot)
			}
			order = append(order, i)
		})
		for i, got := range order {
			if got != i {
				t.Fatalf("workers=%d tasks=%d: inline order %v", tc.workers, tc.tasks, order)
			}
		}
		if len(order) != tc.tasks {
			t.Fatalf("workers=%d tasks=%d: ran %d tasks", tc.workers, tc.tasks, len(order))
		}
	}
}

// TestFanOutPinsTaskToSlot checks the affinity the probe engine's
// per-slot trace caches rely on: a task's slot depends only on the task
// and the slot count, so it lands on the same slot call after call,
// whatever else is in the round, and each slot runs its tasks in
// ascending index order.
func TestFanOutPinsTaskToSlot(t *testing.T) {
	const workers = 4
	var p Pool
	slotsOf := func(keys []string) map[string]int {
		slotOf := make([]int, len(keys))
		perSlot := make([][]int, workers)
		FanOut(&p, workers, keys, func(slot, i int) {
			slotOf[i] = slot
			perSlot[slot] = append(perSlot[slot], i)
		})
		for w, idx := range perSlot {
			for j := 1; j < len(idx); j++ {
				if idx[j] <= idx[j-1] {
					t.Fatalf("slot %d ran tasks out of order: %v", w, idx)
				}
			}
		}
		out := make(map[string]int, len(keys))
		for i, k := range keys {
			out[k] = slotOf[i]
		}
		return out
	}
	all := taskKeys(40)
	first := slotsOf(all)
	for _, k := range all {
		if want := int(taskSlotHash(k) % workers); first[k] != want {
			t.Fatalf("%s ran on slot %d, want %d", k, first[k], want)
		}
	}
	again := slotsOf(all)
	churned := slotsOf(append(append([]string(nil), all[5:30]...), "task-new-1", "task-new-2"))
	for _, k := range all {
		if again[k] != first[k] {
			t.Fatalf("%s moved from slot %d to %d between calls", k, first[k], again[k])
		}
		if s, ok := churned[k]; ok && s != first[k] {
			t.Fatalf("%s moved from slot %d to %d when other tasks came and went", k, first[k], s)
		}
	}
}
