package hunter

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"skeletonhunter/internal/analyzer"
	"skeletonhunter/internal/apiserver"
	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/component"
	"skeletonhunter/internal/correlate"
	"skeletonhunter/internal/detect"
	"skeletonhunter/internal/faults"
	"skeletonhunter/internal/incident"
	"skeletonhunter/internal/parallelism"
)

// get serves one GET in-process and returns the body and ETag.
func get(t *testing.T, srv *apiserver.Server, path string) ([]byte, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != 200 {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes(), rec.Header().Get("ETag")
}

// wholesale renders path from the deployment's current monitoring state
// on a fresh server that re-marshals everything, stamped at now.
func wholesale(t *testing.T, d *Deployment, path string, now time.Duration) ([]byte, string) {
	t.Helper()
	bl := d.Analyzer.Blacklist()
	ids := make([]component.ID, 0, len(bl))
	for id := range bl {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var entries []apiserver.BlacklistEntry
	for _, id := range ids {
		entries = append(entries, apiserver.BlacklistEntry{
			Component: id, Class: component.ClassOf(id).String(), SinceSec: bl[id].Seconds(),
		})
	}
	fresh := apiserver.New(apiserver.Config{DisableDeltas: true})
	fresh.Update(apiserver.Snapshot{
		Now:       now,
		Incidents: d.Incidents.Incidents(),
		Alarms:    d.Analyzer.Alarms(),
		Blacklist: entries,
	})
	return get(t, fresh, path)
}

// TestPublishOncePerRound pins the incident plane's publish cadence.
// The alarm handlers only fold and each analysis round publishes once
// at its end, yet after every tick the served list resources are
// byte-identical (ETags included) to a wholesale rendering of the
// deployment's state at that moment. And a round that folds many gray
// alarms mints at most one epoch. The sweep cannot change anything
// here (the quiet window outlasts the run), so every epoch in a tick
// belongs to its round.
func TestPublishOncePerRound(t *testing.T) {
	d, err := New(Options{
		Seed:             31,
		Hosts:            64,
		Lag:              fastLag(),
		Detect:           detect.Config{ShortWindow: 10 * time.Second},
		AnalysisInterval: 10 * time.Second,
		Correlate:        &correlate.Config{Warmup: 6},
		Incidents:        incident.Config{QuietWindow: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.API = apiserver.New(apiserver.Config{RatePerSec: 1e9, Burst: 1e9})
	d.refreshAPI()
	var tasks []*cluster.Task
	for i := 0; i < 5; i++ {
		task, err := d.SubmitTask(cluster.TaskSpec{Par: parallelism.Config{TP: 8, PP: 4, DP: 3}})
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	grays, hards := 0, 0
	onGray, onAlarm := d.Analyzer.OnGray, d.Analyzer.OnAlarm
	d.Analyzer.OnGray = func(al correlate.Alarm) { grays++; onGray(al) }
	d.Analyzer.OnAlarm = func(al analyzer.Alarm) { hards++; onAlarm(al) }

	d.Run(90 * time.Second)
	if _, err := d.Injector.InjectGray(faults.GrayCongestionDroop, faults.Target{Switch: d.Fabric.ToR(0, 3)}); err != nil {
		t.Fatal(err)
	}
	a := tasks[0].Containers[0].Addrs[2]
	if _, err := d.Injector.InjectGray(faults.GrayPartialRTT, faults.Target{Host: a.Host, Rail: a.Rail}); err != nil {
		t.Fatal(err)
	}

	busyRounds := 0
	for tick := 0; tick < 90; tick++ {
		if tick == 20 {
			b := tasks[1].Containers[1].Addrs[5]
			if _, err := d.Injector.Inject(faults.RNICPortDown, faults.Target{Host: b.Host, Rail: b.Rail}); err != nil {
				t.Fatal(err)
			}
		}
		epoch, graysBefore := d.API.Epoch(), grays
		d.Run(time.Second)
		if n := grays - graysBefore; n >= 2 {
			busyRounds++
			if minted := d.API.Epoch() - epoch; minted > 1 {
				t.Fatalf("tick %d: a round folding %d gray alarms minted %d epochs, want at most 1", tick, n, minted)
			}
		}
		for _, path := range []string{"/v1/incidents", "/v1/alarms", "/v1/blacklist"} {
			body, etag := get(t, d.API, path)
			// Each resource carries the time it last changed.
			var stamp struct {
				NowS float64 `json:"now_s"`
			}
			if err := json.Unmarshal(body, &stamp); err != nil {
				t.Fatalf("tick %d: %s: %v", tick, path, err)
			}
			now := time.Duration(math.Round(stamp.NowS * float64(time.Second)))
			wantBody, wantETag := wholesale(t, d, path, now)
			if !bytes.Equal(body, wantBody) || etag != wantETag {
				t.Fatalf("tick %d: %s served\n%s\nwant (wholesale at %v)\n%s", tick, path, body, now, wantBody)
			}
		}
	}
	if busyRounds == 0 || hards == 0 {
		t.Fatalf("campaign had %d rounds with ≥2 gray alarms and %d hard alarms; the test has no teeth", busyRounds, hards)
	}
	if len(d.Analyzer.Blacklist()) == 0 || len(d.Incidents.Incidents()) == 0 {
		t.Fatal("campaign left no blacklist or incidents to compare")
	}
}
