// Incident-plane wiring: the deployment side of the alarm→incident
// correlator (evidence-source taps into the log store, the network
// simulator and the overlay) and the query API's snapshot refresh.
package hunter

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"skeletonhunter/internal/analyzer"
	"skeletonhunter/internal/apiserver"
	"skeletonhunter/internal/component"
	"skeletonhunter/internal/incident"
	"skeletonhunter/internal/obs"
	"skeletonhunter/internal/probe"
)

// evidenceRecords pulls the retained probe records supporting one
// localized component — the correlator's Records source. Dispatch
// follows the log store's query dimensions: RNICs and switches query
// directly, links query their switch endpoints, containers by (task,
// index), and host-scoped components (boards, vswitches, host configs)
// fold every rail of the host.
// Every branch routes through sortRecords: a single query comes back
// in log append order, which tracks batch *arrival* order — an
// accident of delivery interleaving, not of what was measured. Evidence
// bundles (and the incident fingerprints digesting them) must be a pure
// function of the record set, so the order is canonicalized here.
func (d *Deployment) evidenceRecords(c component.ID, since time.Duration) []probe.Record {
	if d.logTruncatedSince(since) {
		d.Obs.Inc(obs.EvidenceTruncated)
	}
	if host, rail, ok := component.RNICOf(c); ok {
		return sortRecords(d.Log.ByRNIC(host, rail, since))
	}
	if sw, ok := component.SwitchOf(c); ok {
		return sortRecords(d.Log.BySwitch(sw, since))
	}
	if sws := component.LinkSwitches(c); len(sws) > 0 {
		var out []probe.Record
		for _, sw := range sws {
			out = mergeRecords(out, d.Log.BySwitch(sw, since))
		}
		return sortRecords(out)
	}
	if name, ok := component.ContainerOf(c); ok {
		// Cluster container IDs render "<task>/c<idx>"; overlay-only
		// names ("vni…/ip") are not a log dimension and yield no records.
		if i := strings.LastIndex(name, "/c"); i > 0 {
			if idx, err := strconv.Atoi(name[i+2:]); err == nil {
				return sortRecords(d.Log.ByContainer(name[:i], idx, since))
			}
		}
		return nil
	}
	if host, ok := component.HostOf(c); ok {
		var out []probe.Record
		for rail := 0; rail < d.Fabric.Spec.Rails; rail++ {
			out = mergeRecords(out, d.Log.ByRNIC(host, rail, since))
		}
		return sortRecords(out)
	}
	return nil
}

// logTruncatedSince reports whether the log can no longer answer
// "everything since t": the ring is full and its oldest retained record
// is newer than t, so older matching records may have been overwritten.
func (d *Deployment) logTruncatedSince(t time.Duration) bool {
	oldest, full := d.Log.OldestAt()
	return full && oldest > t
}

// recordIdent is the dedup identity of a probe record across merged
// queries (a record matched by two of them must count
// once in an evidence bundle). Path is excluded: it is not comparable,
// and the remaining fields already pin the observation.
type recordIdent struct {
	task                   string
	srcC, srcR, dstC, dstR int
	at, rtt                time.Duration
	lost                   bool
}

func identOf(r probe.Record) recordIdent {
	return recordIdent{
		task: string(r.Task),
		srcC: r.SrcContainer, srcR: r.SrcRail,
		dstC: r.DstContainer, dstR: r.DstRail,
		at: r.At, rtt: r.RTT, lost: r.Lost,
	}
}

// mergeRecords folds a second query into an accumulated result,
// dropping duplicates and restoring ascending observation order so the
// merged stream is a pure function of the sets involved.
func mergeRecords(acc, more []probe.Record) []probe.Record {
	if len(acc) == 0 {
		return append(acc, more...)
	}
	seen := make(map[recordIdent]bool, len(acc))
	for _, r := range acc {
		seen[identOf(r)] = true
	}
	for _, r := range more {
		if !seen[identOf(r)] {
			seen[identOf(r)] = true
			acc = append(acc, r)
		}
	}
	return sortRecords(acc)
}

// sortRecords restores ascending observation order — the canonical
// evidence order, independent of how delivery interleaved the batches
// the records arrived in.
func sortRecords(recs []probe.Record) []probe.Record {
	sort.SliceStable(recs, func(i, j int) bool {
		a, b := identOf(recs[i]), identOf(recs[j])
		if a.at != b.at {
			return a.at < b.at
		}
		if a.task != b.task {
			return a.task < b.task
		}
		if a.srcC != b.srcC {
			return a.srcC < b.srcC
		}
		if a.srcR != b.srcR {
			return a.srcR < b.srcR
		}
		if a.dstC != b.dstC {
			return a.dstC < b.dstC
		}
		if a.dstR != b.dstR {
			return a.dstR < b.dstR
		}
		return a.rtt < b.rtt
	})
	return recs
}

// incidentSnapshot returns the incident set in open order as an
// immutable deep copy, shared by the remediation sweep and refreshAPI.
// Only incidents whose revision moved since the previous snapshot are
// re-cloned, and an unchanged correlator returns the previous snapshot
// itself. Requires the incident plane.
func (d *Deployment) incidentSnapshot() []incident.Incident {
	if rev := d.Incidents.Rev(); d.incidents == nil || rev != d.incidentsRev {
		d.incidents = d.Incidents.IncidentsReusing(d.incidents)
		d.incidentsRev = rev
	}
	return d.incidents
}

// refreshAPI re-renders the query API's published snapshot; a cheap
// no-op without a server. It runs on the engine goroutine once at the
// end of each step that can change incident or alarm state — every
// analysis round (the alarm handlers only fold), every sweep, crash
// and recovery — so a round that folds hundreds of alarms publishes
// once, and a watcher sees one event carrying every changed path.
//
// The snapshot inputs are cached between refreshes and rebuilt only
// dirty (see the cache fields on Deployment). The cached slices are
// immutable once handed to the API server, which is what lets its
// delta renderer reuse pre-marshaled fragments across epochs instead
// of re-marshaling a 32K-entry blacklist every round.
func (d *Deployment) refreshAPI() {
	if d.API == nil {
		return
	}
	bl := d.Analyzer.Blacklist()
	if len(bl) != len(d.apiBlacklist) {
		ids := make([]component.ID, 0, len(bl))
		for id := range bl {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		entries := make([]apiserver.BlacklistEntry, 0, len(ids))
		for _, id := range ids {
			entries = append(entries, apiserver.BlacklistEntry{
				Component: id,
				Class:     component.ClassOf(id).String(),
				SinceSec:  bl[id].Seconds(),
			})
		}
		d.apiBlacklist = entries
	}
	incs := d.incidentSnapshot()
	if alarms := d.Analyzer.Alarms(); len(alarms) != len(d.apiAlarms) {
		d.apiAlarms = append([]analyzer.Alarm(nil), alarms...)
	}
	d.API.Update(apiserver.Snapshot{
		Now:       d.Engine.Now(),
		Incidents: incs,
		Alarms:    d.apiAlarms,
		Blacklist: d.apiBlacklist,
		Stats:     d.Stats(),
	})
}
