// Package logstore is the measurement log service of §6: it retains the
// agents' most recent probe records in a bounded ring and answers
// queries by training task, container, RNIC, and uplink (ToR) switch —
// the four dimensions the production system aggregates on — so
// operators and the analyzer can pull the evidence trail for any
// suspicious element.
//
// The store is deliberately bounded: production keeps a retention
// window, not history forever. Eviction is FIFO — an append overwrites
// the oldest slot — and nothing is materialised per dimension: a write
// is a copy into the ring, and a query is one oldest-to-newest filtered
// scan of the retained slots. Each slot owns the storage of its
// record's path (fabric link ordinals) and refills it on overwrite; a
// query copies the paths it returns into one array of its own. The
// trade is O(capacity) reads (see BenchmarkScan) for writes that cost a
// memcpy; at fleet size the ring turns over more than once per probing
// round while reads happen a few hundred times per campaign, so the
// write side is the one that counts.
package logstore

import (
	"slices"
	"strings"
	"sync"
	"time"

	"skeletonhunter/internal/obs"
	"skeletonhunter/internal/probe"
	"skeletonhunter/internal/topology"
)

// Store is a bounded probe-record log. Safe for concurrent use: agents
// append from their rounds while operators query.
type Store struct {
	// Obs, when set before the first append, receives the
	// records-logged counter.
	Obs *obs.Stats

	fab   *topology.Fabric
	mu    sync.RWMutex
	slots []probe.Record
	next  int    // slot the next record lands in
	total uint64 // records ever appended
}

// New returns a store retaining up to capacity records whose paths are
// ordinals of links in fab.
func New(capacity int, fab *topology.Fabric) *Store {
	if capacity < 1 {
		capacity = 1
	}
	return &Store{fab: fab, slots: make([]probe.Record, capacity)}
}

// AppendBatch stores a probing round's records under one lock
// acquisition, overwriting the oldest retained records once the ring is
// full. Records and their paths are copied into the ring, so callers
// may reuse the batch's storage.
func (s *Store) AppendBatch(recs probe.Batch) {
	if len(recs) == 0 {
		return
	}
	s.Obs.Add(obs.RecordsLogged, uint64(len(recs)))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total += uint64(len(recs))
	for i := range recs {
		slot := &s.slots[s.next]
		path := slot.Path[:0]
		if path == nil && len(recs[i].Path) > 0 {
			// Room for one tunnel leg's longest route, so the slot's
			// storage outgrows it only for multi-leg paths.
			path = make([]int32, 0, topology.MaxPathNodes-1)
		}
		*slot = recs[i]
		slot.Path = append(path, recs[i].Path...)
		if s.next++; s.next == len(s.slots) {
			s.next = 0
		}
	}
}

// retained returns the ring's live records as two oldest-first runs;
// the caller holds s.mu.
func (s *Store) retained() (older, newer []probe.Record) {
	if s.total < uint64(len(s.slots)) {
		return nil, s.slots[:s.next]
	}
	return s.slots[s.next:], s.slots[:s.next]
}

// scan returns the retained records at or after since that match,
// oldest first. The returned paths share one array the caller owns.
func (s *Store) scan(since time.Duration, match func(*probe.Record) bool) []probe.Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []probe.Record
	n := 0
	older, newer := s.retained()
	for _, run := range [2][]probe.Record{older, newer} {
		for i := range run {
			if r := &run[i]; r.At >= since && match(r) {
				out = append(out, *r)
				n += len(r.Path)
			}
		}
	}
	paths := make([]int32, 0, n)
	for i := range out {
		if p := out[i].Path; len(p) > 0 {
			start := len(paths)
			paths = append(paths, p...)
			out[i].Path = paths[start:len(paths):len(paths)]
		} else {
			out[i].Path = nil
		}
	}
	return out
}

// ByTask returns the retained records of a task since the given time.
func (s *Store) ByTask(task string, since time.Duration) []probe.Record {
	return s.scan(since, func(r *probe.Record) bool { return string(r.Task) == task })
}

// ByContainer returns records touching a container (as source or
// destination).
func (s *Store) ByContainer(task string, container int, since time.Duration) []probe.Record {
	return s.scan(since, func(r *probe.Record) bool {
		return (r.SrcContainer == container || r.DstContainer == container) && string(r.Task) == task
	})
}

// ByRNIC returns records whose endpoints ride the given RNIC.
func (s *Store) ByRNIC(host, rail int, since time.Duration) []probe.Record {
	return s.scan(since, func(r *probe.Record) bool {
		return (r.Src.Host == host && r.Src.Rail == rail) || (r.Dst.Host == host && r.Dst.Rail == rail)
	})
}

// BySwitch returns records whose underlay path traversed the switch.
// Only switch nodes (ToR, aggregation, spine) are a query dimension;
// any other node yields nothing.
func (s *Store) BySwitch(node topology.NodeID, since time.Duration) []probe.Record {
	n := string(node)
	if !strings.HasPrefix(n, "tor/") && !strings.HasPrefix(n, "agg/") && !strings.HasPrefix(n, "spine/") {
		return nil
	}
	links := s.fab.LinksAt(node)
	if len(links) == 0 {
		return nil
	}
	return s.scan(since, func(r *probe.Record) bool {
		for _, o := range r.Path {
			if _, ok := slices.BinarySearch(links, o); ok {
				return true
			}
		}
		return false
	})
}

// Len returns the number of retained records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	older, newer := s.retained()
	return len(older) + len(newer)
}

// OldestAt returns the observation time of the oldest retained record
// and whether the ring is full — that is, whether older records may
// already have been overwritten. Callers reading "everything since T"
// use it to tell a complete answer from a truncated one.
func (s *Store) OldestAt() (at time.Duration, full bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	older, newer := s.retained()
	switch {
	case len(older) > 0:
		return older[0].At, true
	case len(newer) > 0:
		return newer[0].At, false
	}
	return 0, false
}
