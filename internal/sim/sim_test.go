package sim

import (
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []string
	e.Schedule(3*time.Second, "c", func(time.Duration) { got = append(got, "c") })
	e.Schedule(1*time.Second, "a", func(time.Duration) { got = append(got, "a") })
	e.Schedule(2*time.Second, "b", func(time.Duration) { got = append(got, "b") })
	e.Run()
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("clock = %v, want 3s", e.Now())
	}
}

func TestEqualTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, "x", func(time.Duration) { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("equal-time events fired out of order: %v", got)
		}
	}
}

func TestAfterRelative(t *testing.T) {
	e := NewEngine(1)
	var fired time.Duration
	e.Schedule(5*time.Second, "outer", func(now time.Duration) {
		e.After(2*time.Second, "inner", func(now time.Duration) { fired = now })
	})
	e.Run()
	if fired != 7*time.Second {
		t.Fatalf("inner fired at %v, want 7s", fired)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(10*time.Second, "x", func(time.Duration) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(1*time.Second, "past", func(time.Duration) {})
	})
	e.Run()
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.Schedule(time.Second, "x", func(time.Duration) { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var got []time.Duration
	for i := 1; i <= 5; i++ {
		d := time.Duration(i) * time.Second
		e.Schedule(d, "x", func(now time.Duration) { got = append(got, now) })
	}
	e.RunUntil(3 * time.Second)
	if len(got) != 3 {
		t.Fatalf("fired %d events, want 3", len(got))
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("clock = %v, want 3s", e.Now())
	}
	e.RunUntil(10 * time.Second)
	if len(got) != 5 {
		t.Fatalf("fired %d events total, want 5", len(got))
	}
	if e.Now() != 10*time.Second {
		t.Fatalf("clock advanced to %v, want deadline 10s", e.Now())
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine(1)
	var fires []time.Duration
	e.Every(time.Second, 2*time.Second, "tick", func(now time.Duration) {
		fires = append(fires, now)
	})
	e.RunUntil(6 * time.Second)
	want := []time.Duration{time.Second, 3 * time.Second, 5 * time.Second}
	if len(fires) != len(want) {
		t.Fatalf("ticker fired %d times by 6s, want 3 (1s,3s,5s)", len(fires))
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fires = %v, want %v", fires, want)
		}
	}
}

func TestRandStreamsIndependentAndDeterministic(t *testing.T) {
	a1 := NewEngine(42).Rand("alpha").Int63()
	a2 := NewEngine(42).Rand("alpha").Int63()
	if a1 != a2 {
		t.Fatal("same seed+name produced different draws")
	}
	b := NewEngine(42).Rand("beta").Int63()
	if a1 == b {
		t.Fatal("different stream names produced identical draws")
	}
	// Drawing from one stream must not perturb another.
	e := NewEngine(42)
	e.Rand("noise").Int63()
	e.Rand("noise").Int63()
	if got := e.Rand("alpha").Int63(); got != a1 {
		t.Fatal("stream alpha perturbed by draws on stream noise")
	}
}

func TestPendingCount(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 4; i++ {
		e.Schedule(time.Duration(i)*time.Second, "x", func(time.Duration) {})
	}
	if e.Pending() != 4 {
		t.Fatalf("pending = %d, want 4", e.Pending())
	}
	e.Step()
	if e.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", e.Pending())
	}
}

func TestPendingExcludesCancelled(t *testing.T) {
	e := NewEngine(1)
	var evs []*Event
	for i := 0; i < 5; i++ {
		evs = append(evs, e.Schedule(time.Duration(i)*time.Second, "x", func(time.Duration) {}))
	}
	evs[1].Cancel()
	evs[3].Cancel()
	evs[3].Cancel() // double cancel must not double-count
	if e.Pending() != 3 {
		t.Fatalf("pending = %d, want 3 (cancelled events must not count)", e.Pending())
	}
	// Stepping reaps zombies without disturbing the count of live events.
	e.Step() // fires ev 0
	if e.Pending() != 2 {
		t.Fatalf("pending after step = %d, want 2", e.Pending())
	}
	e.Step() // skips cancelled ev 1, fires ev 2
	if e.Pending() != 1 {
		t.Fatalf("pending after second step = %d, want 1", e.Pending())
	}
	// Cancelling an already-fired event is a no-op on the count.
	evs[0].Cancel()
	if e.Pending() != 1 {
		t.Fatalf("pending after cancelling fired event = %d, want 1", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("pending after drain = %d, want 0", e.Pending())
	}
}

func TestPendingWithTicker(t *testing.T) {
	e := NewEngine(1)
	e.Every(time.Second, time.Second, "tick", func(time.Duration) {})
	for _, until := range []time.Duration{0, 3 * time.Second, time.Minute} {
		e.RunUntil(until)
		if e.Pending() != 1 {
			t.Fatalf("pending at %v = %d, want 1 (next ticker firing)", until, e.Pending())
		}
	}
}
