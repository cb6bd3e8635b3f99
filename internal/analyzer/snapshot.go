// Checkpoint/restore for the analyzer (crash recovery).
//
// The analyzer's durable outputs — raised alarms and the component
// blacklist — are snapshotted verbatim. The per-pair detector state
// (open temporal windows, pending anomalies, healthy-path rings) is
// deliberately NOT serialized: the paper's analyzer is a streaming job
// over a durable log service, so on restart that state is rebuilt
// deterministically by replaying the retained probe records from the
// logstore (hunter.Deployment.RecoverFrom drives the replay). That
// keeps the checkpoint format small and version-stable while the
// detector internals keep evolving.
package analyzer

import (
	"time"

	"skeletonhunter/internal/component"
)

// Snapshot is the analyzer's serializable durable state.
type Snapshot struct {
	Alarms    []Alarm
	Blacklist map[component.ID]time.Duration
}

// SnapshotState captures the alarms and blacklist. The returned value
// shares no mutable memory with the live analyzer (alarm inner slices
// are append-only after raise, so sharing them is safe).
func (an *Analyzer) SnapshotState() Snapshot {
	s := Snapshot{
		Alarms:    append([]Alarm(nil), an.alarms...),
		Blacklist: make(map[component.ID]time.Duration, len(an.blacklist)),
	}
	for k, v := range an.blacklist {
		s.Blacklist[k] = v
	}
	return s
}

// Crash models the streaming job dying: every shard (detector windows,
// pair maps, inboxes — their records count as withdrawn), alarm and
// blacklist entry is lost. Periodic
// rounds keep ticking — an empty analyzer's rounds raise nothing — so
// the engine schedule is undisturbed.
func (an *Analyzer) Crash() {
	an.resetShards()
	an.alarms = nil
	an.blacklist = make(map[component.ID]time.Duration)
}

// RestoreState rebuilds the analyzer from a snapshot: shards are reset
// empty (the caller replays the logstore to repopulate detector state)
// and the snapshotted alarms/blacklist become the live ones, copied so
// later appends never touch the checkpoint.
func (an *Analyzer) RestoreState(s Snapshot) {
	an.resetShards()
	an.alarms = append([]Alarm(nil), s.Alarms...)
	an.blacklist = make(map[component.ID]time.Duration, len(s.Blacklist))
	for k, v := range s.Blacklist {
		an.blacklist[k] = v
	}
}
