package hunter

import (
	"testing"
	"time"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/parallelism"
)

// recordLedger reads the analyzer's record accounting after a flush:
// every record admitted into a shard inbox must have reached a detector
// (pipeline-detect) or been counted as withdrawn. A record that left an
// inbox any other way is silent loss.
func recordLedger(t *testing.T, d *Deployment) {
	t.Helper()
	d.Analyzer.Flush(d.Engine.Now())
	c := d.Stats().Counters
	ingested, drained, withdrawn := c["records-ingested"], c["pipeline-detect"], c["records-withdrawn"]
	if ingested == 0 {
		t.Fatal("no records ingested")
	}
	if ingested != drained+withdrawn {
		t.Fatalf("records-ingested = %d, want pipeline-detect %d + records-withdrawn %d = %d",
			ingested, drained, withdrawn, drained+withdrawn)
	}
}

// withdrawnBy runs step and returns how many inbox records it withdrew.
func withdrawnBy(d *Deployment, step func()) uint64 {
	before := d.Stats().Counters["records-withdrawn"]
	step()
	return d.Stats().Counters["records-withdrawn"] - before
}

func TestIngestedRecordsAreDrainedOrWithdrawn(t *testing.T) {
	// Rounds fire every 30 s from t=0; each step below lands mid-window,
	// so shard inboxes hold records when it runs.
	midWindow := func(d *Deployment) {
		d.Run(30*time.Second - d.Engine.Now()%(30*time.Second) + 15*time.Second)
	}

	t.Run("stop-and-finish", func(t *testing.T) {
		d := newDeployment(t)
		finished := steadyTask(t, d)
		var crashed *cluster.Task
		for i := 0; i < 2; i++ {
			task, err := d.SubmitTask(cluster.TaskSpec{Par: parallelism.Config{TP: 8, PP: 1, DP: 2}})
			if err != nil {
				t.Fatal(err)
			}
			crashed = task
		}
		d.Run(2 * time.Minute)

		// A finished task's containers stop gracefully: each stop
		// withdraws the inbox records touching that container.
		midWindow(d)
		if n := withdrawnBy(d, func() {
			d.CP.FinishTask(finished.ID)
			d.Run(5 * time.Second)
		}); n == 0 {
			t.Fatal("graceful stops withdrew no inbox records")
		}
		// A task whose containers all crash is forgotten whole, inbox
		// included.
		midWindow(d)
		if n := withdrawnBy(d, func() {
			for _, c := range crashed.Containers {
				d.CP.CrashContainer(c.ID)
			}
		}); n == 0 {
			t.Fatal("forgetting a crashed-out task withdrew no inbox records")
		}
		d.Run(time.Minute)
		recordLedger(t, d)
	})

	t.Run("controller-crash", func(t *testing.T) {
		d := newDeployment(t)
		steadyTask(t, d)
		d.Run(3 * time.Minute)
		midWindow(d)
		if n := withdrawnBy(d, d.CrashController); n == 0 {
			t.Fatal("an analyzer crash withdrew no inbox records")
		}
		d.Run(time.Minute)
		if err := d.RecoverFromLast(); err != nil {
			t.Fatal(err)
		}
		d.Run(2 * time.Minute)
		recordLedger(t, d)
	})
}
