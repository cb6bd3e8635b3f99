// Checkpoint/restore for the incident plane. Incident records are the
// operator-durable artifact — losing them to a controller restart
// would erase the tickets operations is working — so the whole set is
// versioned into the deployment checkpoint verbatim, evidence bundles
// included. Unlike the analyzer's detector state there is nothing to
// rebuild by replay: an incident is history, and history is data.
package incident

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"skeletonhunter/internal/component"
	"skeletonhunter/internal/overlay"
	"skeletonhunter/internal/probe"
)

// SnapshotVersion is the incident snapshot format version. Version 2
// added the remediation fields (RepairedAt, TimeToRepair, the
// evidence audit trail); version 3 added the gray-failure source
// (Incident.Gray, Evidence.Chains). Older snapshots are not readable.
const SnapshotVersion = 3

// Snapshot is the correlator's serializable state.
type Snapshot struct {
	Version   int
	NextSeq   int
	Rev       uint64
	Incidents []Incident
}

// Snapshot deep-copies the correlator's state; the result shares no
// mutable memory with the live correlator.
func (c *Correlator) Snapshot() Snapshot {
	s := Snapshot{
		Version:   SnapshotVersion,
		NextSeq:   c.nextSeq,
		Rev:       c.rev,
		Incidents: make([]Incident, len(c.incidents)),
	}
	for i, inc := range c.incidents {
		s.Incidents[i] = inc.clone()
	}
	return s
}

// Restore replaces the correlator's state with a snapshot's. The
// latest-per-component index rebuilds from open order: later incidents
// for a component supersede earlier ones, exactly as they were minted.
// The mutation revision stays monotonic (and bumps): restoring changes
// the visible incident set, and a revision from before the crash must
// never be reused for different content.
func (c *Correlator) Restore(s Snapshot) error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("incident: snapshot version %d, want %d", s.Version, SnapshotVersion)
	}
	c.nextSeq = s.NextSeq
	if s.Rev > c.rev {
		c.rev = s.Rev
	}
	c.rev++
	c.incidents = make([]*Incident, len(s.Incidents))
	c.latest = make(map[component.ID]*Incident, len(s.Incidents))
	c.byID = make(map[string]*Incident, len(s.Incidents))
	for i := range s.Incidents {
		inc := s.Incidents[i].clone()
		c.incidents[i] = &inc
		c.latest[inc.Component] = &inc
		c.byID[inc.ID] = &inc
	}
	return nil
}

// Crash models the incident plane dying with its controller: every
// record is lost until a checkpoint restores them. The mutation
// revision survives (and bumps): it is serving metadata that must stay
// monotonic so post-crash incidents never alias pre-crash renderings.
func (c *Correlator) Crash() {
	c.incidents = nil
	c.latest = make(map[component.ID]*Incident)
	c.byID = make(map[string]*Incident)
	c.nextSeq = 0
	c.rev++
}

// Fingerprint digests the incident history into a stable hash: equal
// histories — IDs, lifecycle transitions, SLO clocks, evidence
// contents — hash equal. The deployment folds this into its
// determinism probe.
func (c *Correlator) Fingerprint() string {
	h := sha256.New()
	var line []byte
	for _, inc := range c.incidents {
		fmt.Fprintf(h, "inc %s %s %s %s %d %d %d %d %d %d %d %d %d %d %v %q\n",
			inc.ID, inc.Component, inc.State, inc.Severity,
			inc.OpenedAt, inc.MitigatedAt, inc.ResolvedAt, inc.LastAlarmAt,
			inc.TimeToDetect, inc.TimeToMitigate, inc.RepairedAt, inc.TimeToRepair,
			inc.AlarmCount, inc.Reopens, inc.Gray, inc.Mitigation)
		ev := inc.Evidence
		fmt.Fprintf(h, " ev %d %d %d\n", ev.GatheredAt, ev.TotalRecords, len(ev.Records))
		for i := range ev.Records {
			line = c.appendRecord(line[:0], &ev.Records[i])
			h.Write(line)
		}
		for _, q := range ev.Queues {
			fmt.Fprintf(h, " q %s %g\n", q.Node, q.Depth)
		}
		if ev.Offload != nil {
			fmt.Fprintf(h, " o %+v\n", *ev.Offload)
		}
		for _, v := range ev.Verdicts {
			fmt.Fprintf(h, " v %s\n", v)
		}
		for _, ch := range ev.Chains {
			fmt.Fprintf(h, " c %s\n", ch)
		}
		for _, m := range ev.Remediation {
			fmt.Fprintf(h, " m %s\n", m)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// appendRecord renders one evidence record into a fingerprint line,
// byte for byte as fmt's %+v rendered it when paths were link IDs, so a
// fingerprint does not depend on how the record stores its path.
func (c *Correlator) appendRecord(b []byte, r *probe.Record) []byte {
	b = append(b, " r {Task:"...)
	b = append(b, r.Task...)
	b = append(b, " SrcContainer:"...)
	b = strconv.AppendInt(b, int64(r.SrcContainer), 10)
	b = append(b, " SrcRail:"...)
	b = strconv.AppendInt(b, int64(r.SrcRail), 10)
	b = append(b, " DstContainer:"...)
	b = strconv.AppendInt(b, int64(r.DstContainer), 10)
	b = append(b, " DstRail:"...)
	b = strconv.AppendInt(b, int64(r.DstRail), 10)
	b = append(b, " Src:"...)
	b = appendAddr(b, r.Src)
	b = append(b, " Dst:"...)
	b = appendAddr(b, r.Dst)
	b = append(b, " At:"...)
	b = append(b, r.At.String()...)
	b = append(b, " RTT:"...)
	b = append(b, r.RTT.String()...)
	b = append(b, " Lost:"...)
	b = strconv.AppendBool(b, r.Lost)
	b = append(b, " Path:["...)
	for i, o := range r.Path {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, c.src.LinkName(o)...)
	}
	return append(b, "]}\n"...)
}

// appendAddr renders an overlay address as %+v does.
func appendAddr(b []byte, a overlay.Addr) []byte {
	b = append(b, "{VNI:"...)
	b = strconv.AppendUint(b, uint64(a.VNI), 10)
	b = append(b, " IP:"...)
	b = append(b, a.IP...)
	b = append(b, " Host:"...)
	b = strconv.AppendInt(b, int64(a.Host), 10)
	b = append(b, " Rail:"...)
	b = strconv.AppendInt(b, int64(a.Rail), 10)
	return append(b, '}')
}
