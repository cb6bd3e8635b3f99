package hunter

import (
	"slices"
	"testing"
	"time"

	"skeletonhunter/internal/transport"
)

func TestTransportEndToEnd(t *testing.T) {
	d := newDeployment(t)
	task := steadyTask(t, d)

	srv, err := d.ServeTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = nil
	defer srv.Close()

	secret, ok := d.TaskSecret(task.ID)
	if !ok {
		t.Fatal("no secret for task")
	}
	// Secrets are stable across lookups (agents and server must agree).
	secret2, _ := d.TaskSecret(task.ID)
	if string(secret) != string(secret2) {
		t.Fatal("task secret not stable")
	}

	c, err := transport.Dial(srv.Addr(), string(task.ID), 0, secret)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Register(); err != nil {
		t.Fatal(err)
	}
	targets, err := c.PingList()
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) == 0 {
		t.Fatal("no targets over the wire")
	}
	for _, tg := range targets {
		if tg.SrcContainer != 0 {
			t.Fatalf("target for wrong source: %+v", tg)
		}
	}

	// Stream a synthetic anomalous batch and confirm it reaches the
	// analyzer's detector state (windows need more samples to alarm;
	// ingestion is what is under test here).
	var reports []transport.ProbeReport
	base := d.Engine.Now()
	for i := 0; i < 10; i++ {
		reports = append(reports, transport.ProbeReport{
			SrcContainer: 0, SrcRail: 0, DstContainer: 1, DstRail: 0,
			AtNanos:  int64(base + time.Duration(i)*time.Second),
			RTTNanos: int64(16 * time.Microsecond),
		})
	}
	if err := c.Report(reports); err != nil {
		t.Fatal(err)
	}

	full, basic, current, phase, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if full != 768 || basic != 96 || current != 96 || phase != "preload" {
		t.Fatalf("stats over wire = %d/%d/%d/%s", full, basic, current, phase)
	}

	// Forged identity: another tenant cannot query this task.
	evil, err := transport.Dial(srv.Addr(), string(task.ID), 0, transport.Secret("guess"))
	if err != nil {
		t.Fatal(err)
	}
	defer evil.Close()
	if _, err := evil.PingList(); err == nil {
		t.Fatal("forged ping-list request accepted")
	}

	// Malformed reports are rejected.
	if err := c.Report([]transport.ProbeReport{{SrcContainer: 99}}); err == nil {
		t.Fatal("out-of-range report accepted")
	}
}

func TestTransportUnknownTask(t *testing.T) {
	d := newDeployment(t)
	srv, err := d.ServeTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = nil
	defer srv.Close()
	if _, ok := d.TaskSecret("task-ghost"); ok {
		t.Fatal("secret minted for unknown task")
	}
	c, err := transport.Dial(srv.Addr(), "task-ghost", 0, transport.Secret("x"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Register(); err == nil {
		t.Fatal("unknown task registered")
	}
}

// TestTransportResolvesPathLinks: wire reports name their path links,
// and ingest resolves each to its fabric ordinal. A report naming a
// link the fabric does not have is malformed, like an out-of-range
// container: the whole report is rejected and nothing is logged.
func TestTransportResolvesPathLinks(t *testing.T) {
	d := newDeployment(t)
	task := steadyTask(t, d)
	srv, err := d.ServeTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = nil
	defer srv.Close()
	secret, _ := d.TaskSecret(task.ID)
	c, err := transport.Dial(srv.Addr(), string(task.ID), 0, secret)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Register(); err != nil {
		t.Fatal(err)
	}

	src, dst := task.Containers[0].Addrs[0], task.Containers[1].Addrs[0]
	path := d.Net.Probe(src, dst, 7).UnderlayPath
	var names []string
	for _, o := range path {
		names = append(names, string(d.Fabric.LinkByIndex(o)))
	}
	at := d.Engine.Now() + time.Hour // newer than anything the agents logged
	report := func(links []string) []transport.ProbeReport {
		return []transport.ProbeReport{{
			SrcContainer: 0, SrcRail: 0, DstContainer: 1, DstRail: 0,
			AtNanos: int64(at), RTTNanos: int64(16 * time.Microsecond), Path: links,
		}}
	}

	bad := append(append([]string(nil), names...), "nic/h0/r0--tor/p99/r0")
	if err := c.Report(report(bad)); err == nil {
		t.Fatal("report naming a link outside the fabric accepted")
	}
	if got := d.Log.ByTask(string(task.ID), at); len(got) != 0 {
		t.Fatalf("rejected report logged %d records", len(got))
	}

	if err := c.Report(report(names)); err != nil {
		t.Fatal(err)
	}
	got := d.Log.ByTask(string(task.ID), at)
	if len(got) != 1 {
		t.Fatalf("logged %d records, want 1", len(got))
	}
	if !slices.Equal(got[0].Path, path) {
		t.Fatalf("logged path %v, want %v (%v)", got[0].Path, path, names)
	}
}
