package incident

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"skeletonhunter/internal/analyzer"
	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/component"
	"skeletonhunter/internal/detect"
	"skeletonhunter/internal/localize"
	"skeletonhunter/internal/overlay"
	"skeletonhunter/internal/probe"
	"skeletonhunter/internal/topology"
)

// alarmFor builds a minimal analyzer alarm whose single verdict names
// the given components.
func alarmFor(at time.Duration, detail string, comps ...component.ID) analyzer.Alarm {
	return analyzer.Alarm{
		At: at,
		Anomalies: []detect.Anomaly{
			{At: at - 30*time.Second, Score: 3.5},
		},
		Verdicts: []localize.Verdict{
			{Components: comps, Layer: localize.LayerUnderlay, Detail: detail, Pairs: 2},
		},
	}
}

func TestSeverityFor(t *testing.T) {
	cases := []struct {
		class component.Class
		want  Severity
	}{
		{component.ClassInterHostNetwork, SevCritical},
		{component.ClassRNIC, SevHigh},
		{component.ClassHostBoard, SevHigh},
		{component.ClassVirtualSwitch, SevMedium},
		{component.ClassContainerRuntime, SevMedium},
		{component.ClassConfiguration, SevLow},
	}
	for _, c := range cases {
		if got := SeverityFor(c.class); got != c.want {
			t.Errorf("SeverityFor(%v) = %v, want %v", c.class, got, c.want)
		}
	}
}

func TestLifecycleOpenMitigateResolve(t *testing.T) {
	c := New(Config{QuietWindow: 5 * time.Minute}, Sources{})
	comp := component.ID("switch/tor/0/0")

	c.ObserveAlarm(alarmFor(10*time.Minute, "port down", comp))
	incs := c.Incidents()
	if len(incs) != 1 {
		t.Fatalf("got %d incidents, want 1", len(incs))
	}
	in := incs[0]
	if in.ID != "inc-0001" || in.State != Open || in.Component != comp {
		t.Fatalf("unexpected incident: %+v", in)
	}
	if in.Class != component.ClassInterHostNetwork || in.Severity != SevCritical {
		t.Fatalf("class/severity: %v/%v", in.Class, in.Severity)
	}
	if in.TimeToDetect != 30*time.Second {
		t.Fatalf("TimeToDetect = %v, want 30s", in.TimeToDetect)
	}

	// A second alarm folds into the same incident.
	c.ObserveAlarm(alarmFor(11*time.Minute, "port down", comp))
	if incs = c.Incidents(); len(incs) != 1 {
		t.Fatalf("second alarm minted a new incident: %d", len(incs))
	}
	if incs[0].AlarmCount != 2 || incs[0].LastAlarmAt != 11*time.Minute {
		t.Fatalf("fold: count=%d last=%v", incs[0].AlarmCount, incs[0].LastAlarmAt)
	}

	c.NoteMitigated(comp, 11*time.Minute+30*time.Second, "blacklist")
	in = c.Incidents()[0]
	if in.State != Mitigating || in.Mitigation != "blacklist" {
		t.Fatalf("mitigation: %+v", in)
	}
	if in.TimeToMitigate != 90*time.Second {
		t.Fatalf("TimeToMitigate = %v, want 90s", in.TimeToMitigate)
	}

	// Sweeps before the quiet window elapse do nothing.
	c.Sweep(15 * time.Minute)
	if st := c.Incidents()[0].State; st != Mitigating {
		t.Fatalf("early sweep resolved: %v", st)
	}
	c.Sweep(16 * time.Minute)
	in = c.Incidents()[0]
	if in.State != Resolved || in.ResolvedAt != 16*time.Minute {
		t.Fatalf("resolve: %+v", in)
	}

	open, mit, res := c.Counts()
	if open != 0 || mit != 0 || res != 1 {
		t.Fatalf("counts = %d/%d/%d", open, mit, res)
	}
}

func TestFlapReopenInsideQuietWindow(t *testing.T) {
	c := New(Config{QuietWindow: 5 * time.Minute}, Sources{})
	comp := component.ID("rnic/h3/r1")

	c.ObserveAlarm(alarmFor(10*time.Minute, "flaky nic", comp))
	c.NoteMitigated(comp, 10*time.Minute, "blacklist")
	c.Sweep(15 * time.Minute)
	if st := c.Incidents()[0].State; st != Resolved {
		t.Fatalf("setup: state %v", st)
	}

	// Recurrence 2 min after resolution: same record reopens.
	c.ObserveAlarm(alarmFor(17*time.Minute, "flaky nic", comp))
	incs := c.Incidents()
	if len(incs) != 1 {
		t.Fatalf("flap minted a new incident: %d", len(incs))
	}
	in := incs[0]
	if in.State != Open || in.Reopens != 1 {
		t.Fatalf("reopen: %+v", in)
	}
	if in.Severity != SevCritical { // High bumped one level
		t.Fatalf("severity after flap = %v, want critical", in.Severity)
	}
	if in.Mitigation != "" || in.MitigatedAt != 0 || in.ResolvedAt != 0 {
		t.Fatalf("mitigation state not reset: %+v", in)
	}
	if in.Evidence.GatheredAt != 17*time.Minute {
		t.Fatalf("evidence not re-gathered: %v", in.Evidence.GatheredAt)
	}

	// Recurrence well past the quiet window opens a fresh incident.
	c.NoteMitigated(comp, 18*time.Minute, "blacklist")
	c.Sweep(25 * time.Minute)
	c.ObserveAlarm(alarmFor(60*time.Minute, "flaky nic", comp))
	if incs = c.Incidents(); len(incs) != 2 {
		t.Fatalf("late recurrence should mint: %d incidents", len(incs))
	}
	if incs[1].ID != "inc-0002" || incs[1].Reopens != 0 {
		t.Fatalf("second incident: %+v", incs[1])
	}
}

func TestEvidenceBundle(t *testing.T) {
	recs := make([]probe.Record, 10)
	for i := range recs {
		recs[i] = probe.Record{
			Task: "job", SrcContainer: i, At: time.Duration(i) * time.Second,
			RTT: 100 * time.Microsecond,
		}
	}
	var gotSince time.Duration
	src := Sources{
		Records: func(c component.ID, since time.Duration) []probe.Record {
			gotSince = since
			return recs
		},
		QueueLength: func(n topology.NodeID) float64 { return 42.5 },
		Offload: func(host, rail int) overlay.OffloadDump {
			return overlay.OffloadDump{
				Host: host, Rail: rail, Total: 7,
				Inconsistent: []overlay.FlowKey{{VNI: 1, Dst: "10.0.0.1"}},
			}
		},
	}
	c := New(Config{EvidenceWindow: 2 * time.Minute, MaxEvidenceRecords: 4}, src)

	// Link component: queue samples for both switch endpoints, no offload.
	link := component.ID("link/tor/0/0--agg/0/1")
	c.ObserveAlarm(alarmFor(10*time.Minute, "loss on link", link))
	ev := c.Incidents()[0].Evidence
	if gotSince != 8*time.Minute {
		t.Fatalf("since = %v, want 8m", gotSince)
	}
	if ev.TotalRecords != 10 || len(ev.Records) != 4 {
		t.Fatalf("records: total=%d kept=%d", ev.TotalRecords, len(ev.Records))
	}
	// Newest records kept.
	if ev.Records[0].SrcContainer != 6 {
		t.Fatalf("cap kept oldest records: %+v", ev.Records[0])
	}
	if len(ev.Queues) != 2 || ev.Queues[0].Depth != 42.5 {
		t.Fatalf("queues: %+v", ev.Queues)
	}
	if ev.Offload != nil {
		t.Fatalf("link incident has offload dump")
	}
	if len(ev.Verdicts) != 1 || !strings.Contains(ev.Verdicts[0], "loss on link") {
		t.Fatalf("verdicts: %v", ev.Verdicts)
	}

	// RNIC component: offload dump, no queue samples.
	c.ObserveAlarm(alarmFor(10*time.Minute, "drift", component.ID("rnic/h5/r2")))
	ev = c.Incidents()[1].Evidence
	if ev.Offload == nil || ev.Offload.Host != 5 || ev.Offload.Rail != 2 {
		t.Fatalf("offload: %+v", ev.Offload)
	}
	if len(ev.Queues) != 0 {
		t.Fatalf("rnic incident has queue samples: %+v", ev.Queues)
	}

	// Negative cap keeps no records but still counts matches.
	c2 := New(Config{MaxEvidenceRecords: -1}, src)
	c2.ObserveAlarm(alarmFor(time.Minute, "x", link))
	ev = c2.Incidents()[0].Evidence
	if len(ev.Records) != 0 || ev.TotalRecords != 10 {
		t.Fatalf("negative cap: kept=%d total=%d", len(ev.Records), ev.TotalRecords)
	}
}

func TestIncidentsAreDeepCopies(t *testing.T) {
	c := New(Config{}, Sources{
		Records: func(component.ID, time.Duration) []probe.Record {
			return []probe.Record{{Task: "job"}}
		},
	})
	c.ObserveAlarm(alarmFor(time.Minute, "x", component.ID("switch/tor/0/0")))
	a := c.Incidents()
	a[0].Evidence.Records[0].Task = "mutated"
	a[0].Evidence.Verdicts[0] = "mutated"
	b := c.Incidents()
	if b[0].Evidence.Records[0].Task != "job" || b[0].Evidence.Verdicts[0] == "mutated" {
		t.Fatal("Incidents() exposes internal state")
	}
}

func TestSnapshotRestoreFingerprint(t *testing.T) {
	src := Sources{
		Records: func(component.ID, time.Duration) []probe.Record {
			return []probe.Record{{Task: "job", RTT: 123 * time.Microsecond}}
		},
	}
	c := New(Config{QuietWindow: 5 * time.Minute}, src)
	sw := component.ID("switch/tor/0/0")
	nic := component.ID("rnic/h1/r0")
	c.ObserveAlarm(alarmFor(10*time.Minute, "a", sw, nic))
	c.NoteMitigated(sw, 10*time.Minute+time.Second, "blacklist")
	c.Sweep(16 * time.Minute)

	snap := c.Snapshot()
	fp := c.Fingerprint()
	if snap.Version != SnapshotVersion || len(snap.Incidents) != 2 {
		t.Fatalf("snapshot: %+v", snap)
	}

	// Crash wipes everything.
	c.Crash()
	if len(c.Incidents()) != 0 || c.Fingerprint() == fp {
		t.Fatal("crash did not clear state")
	}

	// Restore brings back verbatim state: same fingerprint, same IDs,
	// and the sequence counter continues without collisions.
	if err := c.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := c.Fingerprint(); got != fp {
		t.Fatalf("fingerprint after restore: %s != %s", got, fp)
	}
	if _, ok := c.Incident("inc-0001"); !ok {
		t.Fatal("inc-0001 lost in restore")
	}
	c.ObserveAlarm(alarmFor(60*time.Minute, "b", component.ID("vswitch/h2")))
	if _, ok := c.Incident("inc-0003"); !ok {
		t.Fatal("sequence counter did not survive restore")
	}

	// Restoring a snapshot must not alias its contents.
	snap.Incidents[0].Evidence.Verdicts[0] = "mutated"
	if in, _ := c.Incident("inc-0001"); in.Evidence.Verdicts[0] == "mutated" {
		t.Fatal("restore aliased the snapshot")
	}

	if err := c.Restore(Snapshot{Version: SnapshotVersion + 1}); err == nil {
		t.Fatal("version mismatch accepted")
	}
}

func TestRestoreReattachesLatestByComponent(t *testing.T) {
	c := New(Config{QuietWindow: 5 * time.Minute}, Sources{})
	comp := component.ID("switch/tor/0/0")
	c.ObserveAlarm(alarmFor(10*time.Minute, "x", comp))
	snap := c.Snapshot()

	c2 := New(Config{QuietWindow: 5 * time.Minute}, Sources{})
	if err := c2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	// A follow-up alarm must fold into the restored incident, not mint.
	c2.ObserveAlarm(alarmFor(11*time.Minute, "x", comp))
	if incs := c2.Incidents(); len(incs) != 1 || incs[0].AlarmCount != 2 {
		t.Fatalf("restored correlator minted instead of folding: %+v", incs)
	}
	// And mitigation still finds it.
	c2.NoteMitigated(comp, 12*time.Minute, "blacklist")
	if st := c2.Incidents()[0].State; st != Mitigating {
		t.Fatalf("state after mitigation: %v", st)
	}
}

// BenchmarkIncidentCorrelator measures the alarm fold hot path: a
// steady alarm stream cycling over a fleet of components, with
// evidence gathering against a stubbed record source, including
// periodic mitigation and sweeps so all lifecycle branches execute.
func BenchmarkIncidentCorrelator(b *testing.B) {
	recs := make([]probe.Record, 64)
	for i := range recs {
		recs[i] = probe.Record{Task: "job", SrcContainer: i, At: time.Duration(i) * time.Second}
	}
	src := Sources{
		Records:     func(component.ID, time.Duration) []probe.Record { return recs },
		QueueLength: func(topology.NodeID) float64 { return 1 },
		Offload:     func(h, r int) overlay.OffloadDump { return overlay.OffloadDump{Host: h, Rail: r} },
	}
	comps := make([]component.ID, 32)
	for i := range comps {
		switch i % 3 {
		case 0:
			comps[i] = component.ID("switch/tor/0/" + string(rune('a'+i)))
		case 1:
			comps[i] = component.ID("rnic/h" + string(rune('a'+i)) + "/r0")
		default:
			comps[i] = component.ID("link/tor/0/0--agg/0/" + string(rune('a'+i)))
		}
	}
	c := New(Config{QuietWindow: 5 * time.Minute}, src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := time.Duration(i) * time.Second
		comp := comps[i%len(comps)]
		c.ObserveAlarm(alarmFor(at, "bench", comp))
		if i%4 == 0 {
			c.NoteMitigated(comp, at, "blacklist")
		}
		if i%16 == 0 {
			c.Sweep(at)
		}
	}
}

// TestFingerprintRecordFormat pins the fingerprint's evidence-record
// line to the bytes %+v produced when a record's path was a slice of
// link IDs, so moving the path to ordinals moved no fingerprint.
func TestFingerprintRecordFormat(t *testing.T) {
	type linkIDRecord struct {
		Task                  cluster.TaskID
		SrcContainer, SrcRail int
		DstContainer, DstRail int
		Src, Dst              overlay.Addr
		At                    time.Duration
		RTT                   time.Duration
		Lost                  bool
		Path                  []topology.LinkID
	}
	links := []topology.LinkID{"nic/h3/r1--tor/p0/r1", "agg/p0/a1--tor/p0/r1", "agg/p0/a1--spine/s0"}
	c := New(Config{}, Sources{LinkName: func(o int32) topology.LinkID { return links[o] }})
	for _, tc := range []struct {
		rec  probe.Record
		path []topology.LinkID
	}{
		{probe.Record{}, nil},
		{probe.Record{
			Task: "job-7", SrcContainer: 3, SrcRail: 1, DstContainer: 11, DstRail: 1,
			Src: overlay.Addr{VNI: 4242, IP: "10.1.0.3", Host: 3, Rail: 1},
			Dst: overlay.Addr{VNI: 4242, IP: "10.1.0.11", Host: 300, Rail: 1},
			At:  90*time.Second + 250*time.Millisecond, RTT: 16512 * time.Nanosecond,
			Path: []int32{0, 1, 2},
		}, links},
		{probe.Record{Task: "t", At: -time.Second, Lost: true, Path: []int32{2}}, links[2:]},
	} {
		r := tc.rec
		legacy := linkIDRecord{r.Task, r.SrcContainer, r.SrcRail, r.DstContainer, r.DstRail, r.Src, r.Dst, r.At, r.RTT, r.Lost, tc.path}
		if got, want := string(c.appendRecord(nil, &r)), fmt.Sprintf(" r %+v\n", legacy); got != want {
			t.Errorf("record line\n got %q\nwant %q", got, want)
		}
	}
}
