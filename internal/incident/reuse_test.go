package incident

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"skeletonhunter/internal/component"
	"skeletonhunter/internal/probe"
)

// cloneAll deep-copies a snapshot, as the reference an earlier result
// must still equal later.
func cloneAll(incs []Incident) []Incident {
	out := make([]Incident, len(incs))
	for i, in := range incs {
		out[i] = in.clone()
	}
	return out
}

// shares reports whether two copies of an incident share evidence
// memory, i.e. one was reused for the other rather than re-cloned.
func shares(a, b Incident) bool {
	return len(a.Evidence.Verdicts) > 0 && len(b.Evidence.Verdicts) > 0 &&
		&a.Evidence.Verdicts[0] == &b.Evidence.Verdicts[0]
}

// TestIncidentsReusingMatchesIncidents drives a seeded mix of every
// mutation — open, hard fold, gray fold, mitigate, repair, remediation
// note, sweep, Crash+Restore — and checks the clone-on-change snapshot
// after each step: it deep-equals Incidents(), it reuses exactly the
// copies whose (ID, Rev) did not move, and no slice it returned earlier
// ever changes.
func TestIncidentsReusingMatchesIncidents(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	c := New(Config{QuietWindow: 2 * time.Minute, MaxEvidenceNotes: 4}, Sources{
		Records: func(comp component.ID, since time.Duration) []probe.Record {
			return []probe.Record{{Task: "job", At: since, SrcContainer: len(comp)}}
		},
	})
	comps := make([]component.ID, 12)
	for i := range comps {
		comps[i] = component.RNIC(i, i%8)
	}
	var (
		now              time.Duration
		ckpt             Snapshot
		prev             []Incident
		returned, frozen [][]Incident
		reused, recloned int
		steps            = map[string]int{}
	)
	for step := 0; step < 400; step++ {
		now += time.Duration(1+r.Intn(40)) * time.Second
		comp := comps[r.Intn(len(comps))]
		var op string
		switch k := r.Intn(20); {
		case k < 6:
			op = "hard"
			c.ObserveAlarm(alarmFor(now, fmt.Sprintf("step %d", step), comp))
		case k < 10:
			op = "gray"
			c.ObserveGray(grayAlarm(now-10*time.Second, now, comp, fmt.Sprintf("chain %d", step)))
		case k < 12:
			op = "mitigate"
			c.NoteMitigated(comp, now, "blacklist")
		case k < 14:
			op = "repair"
			c.NoteRepaired(comp, now, "remedy:reset")
		case k < 15:
			op = "note"
			c.NoteRemediation(comp, fmt.Sprintf("remedy note %d", step))
		case k < 18:
			op = "sweep"
			c.Sweep(now)
		case k < 19:
			op = "checkpoint"
			ckpt = c.Snapshot()
		default:
			if ckpt.Version == 0 {
				continue
			}
			op = "crash+restore"
			rev := c.Rev()
			c.Crash()
			if len(c.Incidents()) != 0 || c.Rev() <= rev {
				t.Fatalf("step %d: crash kept incidents or did not bump the revision", step)
			}
			if err := c.Restore(ckpt); err != nil {
				t.Fatal(err)
			}
		}
		steps[op]++

		cur := c.IncidentsReusing(prev)
		if want := c.Incidents(); !reflect.DeepEqual(cur, want) {
			t.Fatalf("step %d (%s): reusing snapshot diverged from Incidents()", step, op)
		}
		for i := range cur {
			same := i < len(prev) && prev[i].ID == cur[i].ID && prev[i].Rev == cur[i].Rev
			if i < len(prev) && shares(cur[i], prev[i]) != same {
				t.Fatalf("step %d (%s): incident %s reused=%v, want %v", step, op, cur[i].ID, !same, same)
			}
			if same {
				reused++
			} else {
				recloned++
			}
		}
		if latest, ok := c.Latest(comp); ok && latest.Component != comp {
			t.Fatalf("step %d: Latest(%s) returned %s", step, comp, latest.Component)
		}
		if n := len(returned); n > 0 && !reflect.DeepEqual(returned[n-1], frozen[n-1]) {
			t.Fatalf("step %d (%s): the previous snapshot changed under its holder", step, op)
		}
		returned, frozen = append(returned, cur), append(frozen, cloneAll(cur))
		prev = cur
	}
	for i := range returned {
		if !reflect.DeepEqual(returned[i], frozen[i]) {
			t.Fatalf("snapshot %d changed after it was returned", i)
		}
	}
	for _, op := range []string{"hard", "gray", "mitigate", "repair", "note", "sweep", "crash+restore"} {
		if steps[op] == 0 {
			t.Fatalf("sequence never exercised %s (%v)", op, steps)
		}
	}
	if reused == 0 || recloned == 0 {
		t.Fatalf("reused %d, re-cloned %d: the sequence does not exercise both paths", reused, recloned)
	}
}
