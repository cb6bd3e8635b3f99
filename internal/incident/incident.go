// Package incident is the operator-facing half of §8's deployment
// story: it folds the analyzer's per-round alarms into long-lived,
// deduplicated incidents keyed by the localized component, so a port
// that flaps for an hour is one ticket with a lifecycle — not 120
// identical alarms scrolling past.
//
// An incident moves open → mitigating → resolved. It opens on the
// first alarm naming its component, turns mitigating when operations
// act on it (the §8 blacklist, or a live migration), and resolves once
// the component stays quiet for a configurable window after
// mitigation. A recurrence inside that same window after resolution
// reopens the incident (a flap) instead of minting a fresh one, and
// bumps its severity: the SHIFT/Ghost-in-the-Datacenter observation
// that single-round verdicts are untrustworthy on flapping hardware is
// exactly why the record, not the detection, is the operable unit.
//
// Each incident carries an evidence bundle assembled at open (and
// refreshed on reopen): the supporting probe records pulled from the
// retained measurement log, queue-occupancy context for implicated
// switches (the Fig. 17 congestion case), and RNIC↔vswitch flow-table
// drift for implicated NICs and vswitches (the Fig. 18 offload case),
// plus the localization verdict details that named the component.
//
// The correlator is engine-agnostic and single-writer: the deployment
// calls it from the simulation goroutine (alarm handler and periodic
// sweep), and every fold is a pure function of (state, alarm, sources),
// so identical runs produce identical incident histories — the
// property the checkpoint/recovery fingerprint test pins.
package incident

import (
	"fmt"
	"time"

	"skeletonhunter/internal/analyzer"
	"skeletonhunter/internal/component"
	"skeletonhunter/internal/correlate"
	"skeletonhunter/internal/obs"
	"skeletonhunter/internal/overlay"
	"skeletonhunter/internal/probe"
	"skeletonhunter/internal/topology"
)

// State is an incident's lifecycle position.
type State int

const (
	// Open: alarms implicate the component and nothing has acted yet.
	Open State = iota
	// Mitigating: operations acted (blacklist/migration); waiting for
	// the component to stay quiet.
	Mitigating
	// Resolved: the quiet window elapsed after mitigation with no
	// recurrence.
	Resolved
)

func (s State) String() string {
	switch s {
	case Open:
		return "open"
	case Mitigating:
		return "mitigating"
	case Resolved:
		return "resolved"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Severity ranks operator urgency. It derives from the component class
// — shared-fate fabric elements outrank single-host software — and is
// bumped one level per flap-reopen, saturating at Critical.
type Severity int

const (
	SevLow Severity = iota
	SevMedium
	SevHigh
	SevCritical
)

func (s Severity) String() string {
	switch s {
	case SevLow:
		return "low"
	case SevMedium:
		return "medium"
	case SevHigh:
		return "high"
	case SevCritical:
		return "critical"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// SeverityFor maps the paper's six component classes onto initial
// severities: inter-host network elements are shared fate across
// tasks (critical); RNICs and host boards take a host's rails out
// (high); vswitch and container-runtime issues are host-software
// scoped (medium); configuration drift is low until it flaps.
func SeverityFor(class component.Class) Severity {
	switch class {
	case component.ClassInterHostNetwork:
		return SevCritical
	case component.ClassRNIC, component.ClassHostBoard:
		return SevHigh
	case component.ClassVirtualSwitch, component.ClassContainerRuntime:
		return SevMedium
	default:
		return SevLow
	}
}

// QueueSample is one switch's queue occupancy at evidence-gathering
// time — the Fig. 17 congestion signal attached to the verdict.
type QueueSample struct {
	Node  topology.NodeID
	Depth float64
}

// Evidence is the bundle of supporting context gathered when an
// incident opens (and re-gathered on a flap-reopen, replacing the
// stale view).
type Evidence struct {
	// GatheredAt stamps when the bundle was assembled (sim time).
	GatheredAt time.Duration
	// Records are supporting probe records pulled from the retained
	// measurement log, oldest first, capped at MaxEvidenceRecords
	// (newest kept). TotalRecords counts matches before the cap.
	Records      []probe.Record
	TotalRecords int
	// Queues samples queue occupancy at implicated switches.
	Queues []QueueSample
	// Offload, for RNIC- and vswitch-scoped incidents, is the
	// RNIC↔vswitch flow-table consistency dump (Fig. 18 drift).
	Offload *overlay.OffloadDump
	// Verdicts are the localization details ("[underlay] …") that named
	// this incident's component in the triggering alarm.
	Verdicts []string
	// Chains are the correlate layer's causal chains ("ToR queue
	// growth leads task rtt inflation by ~2 rounds"), observation
	// order, capped at MaxEvidenceNotes.
	Chains []string
	// Remediation is the self-healing audit trail: one line per
	// remediation-plane event touching this incident (planned, deferred,
	// executed, committed, rolled back, escalated), in event order,
	// capped at MaxEvidenceNotes (newest kept).
	Remediation []string
}

func (e Evidence) clone() Evidence {
	out := e
	out.Records = append([]probe.Record(nil), e.Records...)
	out.Queues = append([]QueueSample(nil), e.Queues...)
	out.Verdicts = append([]string(nil), e.Verdicts...)
	out.Chains = append([]string(nil), e.Chains...)
	out.Remediation = append([]string(nil), e.Remediation...)
	if e.Offload != nil {
		od := *e.Offload
		od.Inconsistent = append([]overlay.FlowKey(nil), e.Offload.Inconsistent...)
		od.NotOffloaded = append([]overlay.FlowKey(nil), e.Offload.NotOffloaded...)
		out.Offload = &od
	}
	return out
}

// Incident is one long-lived operator record for one localized
// component.
type Incident struct {
	// ID is stable and deterministic: incidents are numbered in fold
	// order, which satellite-1's sorted Components() makes a pure
	// function of the alarm history.
	ID        string
	Component component.ID
	Class     component.Class
	Severity  Severity
	State     State

	// Lifecycle clocks (sim time; zero = hasn't happened).
	OpenedAt    time.Duration
	MitigatedAt time.Duration
	ResolvedAt  time.Duration
	LastAlarmAt time.Duration
	// FirstAnomalyAt is the earliest detector-window close in the
	// opening alarm — when the symptom started being observable.
	FirstAnomalyAt time.Duration

	// RepairedAt stamps when a remediation action against the component
	// was verified healthy and committed (zero = not repaired).
	RepairedAt time.Duration

	// SLO clocks: TimeToDetect is open minus first anomaly (how long
	// the symptom ran before the system raised it); TimeToMitigate is
	// mitigation minus open (how long operators/automation took to
	// act); TimeToRepair is committed repair minus open — the clock
	// SHIFT argues actually bounds training goodput.
	TimeToDetect   time.Duration
	TimeToMitigate time.Duration
	TimeToRepair   time.Duration

	// Mitigation describes what acted ("blacklist", "migration").
	Mitigation string
	// AlarmCount folds every alarm that named the component; Reopens
	// counts flap-reopens after resolution.
	AlarmCount int
	Reopens    int

	// Gray marks an incident opened by the correlate layer (a
	// change-point below the hard detector's thresholds). Gray
	// incidents page with evidence; the remediation plane deliberately
	// declines to act on them.
	Gray bool

	// Rev is the incident's change revision: the correlator's global
	// monotonic mutation counter, stamped onto the incident at every
	// fold that touches it. Consumers that re-publish incidents (the
	// query API's delta renderer) compare it to skip re-rendering
	// unchanged records. Serving metadata, not history — it stays out
	// of Fingerprint.
	Rev uint64

	Evidence Evidence
}

func (in Incident) clone() Incident {
	out := in
	out.Evidence = in.Evidence.clone()
	return out
}

// Sources are the read-only taps the correlator pulls evidence from.
// The deployment wires them to the log store, the network simulator,
// and the overlay; nil fields skip that evidence dimension (tests and
// benchmarks stub them).
type Sources struct {
	// Records returns retained probe records supporting the component,
	// at or after since, oldest first.
	Records func(c component.ID, since time.Duration) []probe.Record
	// QueueLength samples a switch node's queue occupancy.
	QueueLength func(node topology.NodeID) float64
	// Offload dumps RNIC↔vswitch flow-table consistency for a rail.
	Offload func(host, rail int) overlay.OffloadDump
	// LinkName renders a record path's link ordinal in the fingerprint.
	// Required when records carry paths.
	LinkName func(ord int32) topology.LinkID
}

// Config tunes the correlator. Zero values take the defaults.
type Config struct {
	// QuietWindow is the dual-purpose flap clock (default 5 min): a
	// mitigating incident resolves after this long without a new
	// alarm, and a resolved incident reopens — rather than a new one
	// being minted — if the component recurs within this long after
	// resolution.
	QuietWindow time.Duration
	// EvidenceWindow bounds how far back supporting probe records are
	// pulled at gather time (default 2 min).
	EvidenceWindow time.Duration
	// MaxEvidenceRecords caps the records kept per bundle (default 64,
	// newest kept; negative = keep none).
	MaxEvidenceRecords int
	// MaxEvidenceNotes caps the appended evidence-note trails —
	// remediation audit lines and correlate chains — per bundle
	// (default 32, observation order, newest kept).
	MaxEvidenceNotes int
}

func (c Config) withDefaults() Config {
	if c.QuietWindow == 0 {
		c.QuietWindow = 5 * time.Minute
	}
	if c.EvidenceWindow == 0 {
		c.EvidenceWindow = 2 * time.Minute
	}
	if c.MaxEvidenceRecords == 0 {
		c.MaxEvidenceRecords = 64
	}
	if c.MaxEvidenceNotes == 0 {
		c.MaxEvidenceNotes = 32
	}
	return c
}

// Correlator folds alarms into incidents. Not safe for concurrent use:
// one goroutine (the deployment's engine loop) owns it.
type Correlator struct {
	// Obs, when set, receives incident lifecycle counters.
	Obs *obs.Stats

	cfg Config
	src Sources

	incidents []*Incident                // every incident, in open order
	latest    map[component.ID]*Incident // most recent incident per component
	byID      map[string]*Incident
	nextSeq   int
	// rev counts mutations, monotonically across crashes and restores
	// (so a rebuilt post-crash ledger never collides with a cached
	// pre-crash revision). Each touched incident is stamped with the
	// value current at its mutation.
	rev uint64
}

// New builds a correlator over the given evidence sources.
func New(cfg Config, src Sources) *Correlator {
	return &Correlator{
		cfg:    cfg.withDefaults(),
		src:    src,
		latest: make(map[component.ID]*Incident),
		byID:   make(map[string]*Incident),
	}
}

// ObserveAlarm folds one analyzer alarm into the incident set: every
// component the alarm's verdicts name either updates its live
// incident, flap-reopens a recently resolved one, or opens a new one
// with a fresh evidence bundle.
func (c *Correlator) ObserveAlarm(al analyzer.Alarm) {
	firstAnomaly := al.At
	for _, a := range al.Anomalies {
		if a.At < firstAnomaly {
			firstAnomaly = a.At
		}
	}
	for _, comp := range al.Components() {
		inc := c.latest[comp]
		switch {
		case inc == nil || (inc.State == Resolved && al.At-inc.ResolvedAt > c.cfg.QuietWindow):
			c.open(comp, al, firstAnomaly)
		case inc.State == Resolved:
			// Recurrence inside the quiet window: the "resolution" was a
			// flap trough, not a fix. Reopen the same record, escalate,
			// and replace the stale evidence with the current view.
			inc.State = Open
			inc.Reopens++
			if inc.Severity < SevCritical {
				inc.Severity++
			}
			inc.ResolvedAt = 0
			inc.MitigatedAt = 0
			inc.Mitigation = ""
			inc.RepairedAt = 0
			inc.TimeToRepair = 0
			inc.LastAlarmAt = al.At
			inc.AlarmCount++
			inc.Evidence = c.gather(comp, al)
			c.touch(inc)
			c.Obs.Inc(obs.IncidentsReopened)
		default:
			inc.LastAlarmAt = al.At
			inc.AlarmCount++
			c.touch(inc)
		}
	}
}

// ObserveGray folds one correlate-layer alarm into the incident set.
// Gray alarms are a distinct source: they carry no localization
// verdicts, open page-with-evidence incidents capped at SevMedium, and
// attach the correlator's causal chains as evidence. A gray alarm on a
// component with a live incident (gray or hard) folds into it instead.
func (c *Correlator) ObserveGray(al correlate.Alarm) {
	comp := al.Component
	verdict := fmt.Sprintf("[correlate] %s %s change-point (score %.1fσ, %d crossing(s), %d suppressed)",
		comp, al.Kind, al.Score, al.ChangePoints, al.Suppressed)
	inc := c.latest[comp]
	switch {
	case inc == nil || (inc.State == Resolved && al.LastAt-inc.ResolvedAt > c.cfg.QuietWindow):
		c.openGray(comp, al, verdict)
	case inc.State == Resolved:
		// Recurrence inside the quiet window: flap-reopen the record,
		// exactly as a hard alarm would, with re-gathered evidence.
		inc.State = Open
		inc.Reopens++
		if inc.Severity < SevCritical {
			inc.Severity++
		}
		inc.ResolvedAt = 0
		inc.MitigatedAt = 0
		inc.Mitigation = ""
		inc.RepairedAt = 0
		inc.TimeToRepair = 0
		inc.LastAlarmAt = al.LastAt
		inc.AlarmCount++
		inc.Evidence = c.gatherAt(comp, al.LastAt)
		inc.Evidence.Verdicts = append(inc.Evidence.Verdicts, verdict)
		inc.Evidence.Chains = cappedChains(nil, al.Chains, c.cfg.MaxEvidenceNotes)
		c.touch(inc)
		c.Obs.Inc(obs.IncidentsReopened)
	default:
		inc.LastAlarmAt = al.LastAt
		inc.AlarmCount++
		inc.Evidence.Verdicts = correlate.AppendCapped(inc.Evidence.Verdicts, c.cfg.MaxEvidenceNotes, verdict)
		inc.Evidence.Chains = cappedChains(inc.Evidence.Chains[:0], al.Chains, c.cfg.MaxEvidenceNotes)
		c.touch(inc)
	}
}

// openGray mints a page-with-evidence incident for a gray alarm.
func (c *Correlator) openGray(comp component.ID, al correlate.Alarm, verdict string) {
	c.nextSeq++
	class := component.ClassOf(comp)
	sev := SeverityFor(class)
	if sev > SevMedium {
		// Conservative by design: a sub-threshold signal never pages at
		// the urgency a confirmed hard fault would.
		sev = SevMedium
	}
	inc := &Incident{
		ID:             fmt.Sprintf("inc-%04d", c.nextSeq),
		Component:      comp,
		Class:          class,
		Severity:       sev,
		State:          Open,
		OpenedAt:       al.LastAt,
		LastAlarmAt:    al.LastAt,
		FirstAnomalyAt: al.At,
		TimeToDetect:   al.LastAt - al.At,
		AlarmCount:     1,
		Gray:           true,
		Evidence:       c.gatherAt(comp, al.LastAt),
	}
	inc.Evidence.Verdicts = append(inc.Evidence.Verdicts, verdict)
	inc.Evidence.Chains = cappedChains(nil, al.Chains, c.cfg.MaxEvidenceNotes)
	inc.Evidence.Remediation = correlate.AppendCapped(inc.Evidence.Remediation, c.cfg.MaxEvidenceNotes,
		"gray-failure policy: page with evidence, no automatic remediation")
	c.touch(inc)
	c.incidents = append(c.incidents, inc)
	c.latest[comp] = inc
	c.byID[inc.ID] = inc
	c.Obs.Inc(obs.IncidentsOpened)
}

// cappedChains rebuilds a chain trail from the alarm's authoritative
// list through the shared capped appender, preserving observation
// order under the incident plane's own cap.
func cappedChains(dst []string, chains []string, max int) []string {
	for _, ch := range chains {
		dst = correlate.AppendCapped(dst, max, ch)
	}
	return dst
}

// open mints a new incident for a component.
func (c *Correlator) open(comp component.ID, al analyzer.Alarm, firstAnomaly time.Duration) {
	c.nextSeq++
	class := component.ClassOf(comp)
	inc := &Incident{
		ID:             fmt.Sprintf("inc-%04d", c.nextSeq),
		Component:      comp,
		Class:          class,
		Severity:       SeverityFor(class),
		State:          Open,
		OpenedAt:       al.At,
		LastAlarmAt:    al.At,
		FirstAnomalyAt: firstAnomaly,
		TimeToDetect:   al.At - firstAnomaly,
		AlarmCount:     1,
		Evidence:       c.gather(comp, al),
	}
	c.touch(inc)
	c.incidents = append(c.incidents, inc)
	c.latest[comp] = inc
	c.byID[inc.ID] = inc
	c.Obs.Inc(obs.IncidentsOpened)
}

// touch stamps an incident with the next mutation revision.
func (c *Correlator) touch(inc *Incident) {
	c.rev++
	inc.Rev = c.rev
}

// Rev returns the correlator's mutation revision: it advances on
// every fold that changes any incident (and on Crash/Restore), so an
// unchanged Rev means the incident set is unchanged.
func (c *Correlator) Rev() uint64 { return c.rev }

// gather assembles the evidence bundle for a component at alarm time.
func (c *Correlator) gather(comp component.ID, al analyzer.Alarm) Evidence {
	ev := c.gatherAt(comp, al.At)
	for _, v := range al.Verdicts {
		for _, vc := range v.Components {
			if vc == comp {
				ev.Verdicts = append(ev.Verdicts, fmt.Sprintf("[%s] %s", v.Layer, v.Detail))
				break
			}
		}
	}
	return ev
}

// gatherAt pulls the source-backed evidence dimensions (retained
// records, queue samples, offload dump) for a component at a given
// time — shared by the hard-alarm and gray-alarm gather paths.
func (c *Correlator) gatherAt(comp component.ID, at time.Duration) Evidence {
	ev := Evidence{GatheredAt: at}
	if c.src.Records != nil {
		since := at - c.cfg.EvidenceWindow
		if since < 0 {
			since = 0
		}
		recs := c.src.Records(comp, since)
		ev.TotalRecords = len(recs)
		if limit := c.cfg.MaxEvidenceRecords; limit < 0 {
			recs = nil
		} else if len(recs) > limit {
			recs = recs[len(recs)-limit:]
		}
		ev.Records = append([]probe.Record(nil), recs...)
	}
	if c.src.QueueLength != nil {
		var nodes []topology.NodeID
		if sw, ok := component.SwitchOf(comp); ok {
			nodes = append(nodes, sw)
		}
		nodes = append(nodes, component.LinkSwitches(comp)...)
		for _, n := range nodes {
			ev.Queues = append(ev.Queues, QueueSample{Node: n, Depth: c.src.QueueLength(n)})
		}
	}
	if c.src.Offload != nil {
		if host, rail, ok := component.RNICOf(comp); ok {
			dump := c.src.Offload(host, rail)
			ev.Offload = &dump
		}
	}
	return ev
}

// NoteMitigated records that operations acted on a component (the §8
// blacklist or a migration): its open incident turns mitigating and
// the time-to-mitigate clock stops. No-op without an open incident.
func (c *Correlator) NoteMitigated(comp component.ID, at time.Duration, how string) {
	inc := c.latest[comp]
	if inc == nil || inc.State != Open {
		return
	}
	inc.State = Mitigating
	inc.MitigatedAt = at
	inc.TimeToMitigate = at - inc.OpenedAt
	inc.Mitigation = how
	c.touch(inc)
	c.Obs.Inc(obs.IncidentsMitigated)
}

// NoteRemediation appends one line to the component's latest
// incident's remediation audit trail, through the shared capped
// appender (observation order, newest MaxEvidenceNotes kept) — the
// same policy correlate chains get, so a chatty remediation loop
// cannot grow evidence without bound. Reports whether an incident existed to annotate.
func (c *Correlator) NoteRemediation(comp component.ID, note string) bool {
	inc := c.latest[comp]
	if inc == nil {
		return false
	}
	inc.Evidence.Remediation = correlate.AppendCapped(inc.Evidence.Remediation, c.cfg.MaxEvidenceNotes, note)
	c.touch(inc)
	return true
}

// NoteRepaired stops the component's latest incident's time-to-repair
// clock: a remediation action was verified healthy and committed. An
// incident still Open also turns Mitigating (the repair is the
// mitigation); resolution still waits for the quiet window, so a
// repair that does not actually silence the symptom flap-reopens like
// any other premature mitigation. An already-Resolved incident still
// takes the stamp — a fast repair can silence the symptom so quickly
// that the quiet window resolves the incident before the remediation
// plane's verify confirms, and the TTR clock must not lose that
// repair. No-op (false) without an incident or when already repaired.
func (c *Correlator) NoteRepaired(comp component.ID, at time.Duration, how string) bool {
	inc := c.latest[comp]
	if inc == nil || inc.RepairedAt != 0 {
		return false
	}
	inc.RepairedAt = at
	inc.TimeToRepair = at - inc.OpenedAt
	if inc.State == Open {
		inc.State = Mitigating
		inc.MitigatedAt = at
		inc.TimeToMitigate = at - inc.OpenedAt
		inc.Mitigation = how
		c.Obs.Inc(obs.IncidentsMitigated)
	}
	c.touch(inc)
	c.Obs.Inc(obs.IncidentsRepaired)
	return true
}

// Sweep advances resolution: every mitigating incident whose component
// has stayed quiet for the quiet window resolves. Called periodically
// from the engine loop; iteration is in open order, so resolution
// timing is deterministic.
func (c *Correlator) Sweep(now time.Duration) {
	for _, inc := range c.incidents {
		if inc.State == Mitigating && now-inc.LastAlarmAt >= c.cfg.QuietWindow {
			inc.State = Resolved
			inc.ResolvedAt = now
			c.touch(inc)
			c.Obs.Inc(obs.IncidentsResolved)
		}
	}
}

// Incidents returns a deep copy of every incident, in open order.
func (c *Correlator) Incidents() []Incident { return c.IncidentsReusing(nil) }

// IncidentsReusing returns what Incidents returns, but reuses prev's
// copy of every incident whose (ID, Rev) has not moved since prev was
// taken, so a snapshot costs one clone per changed incident instead of
// one per incident. prev must be an unmodified earlier result of
// Incidents or IncidentsReusing on this correlator; it is left as it
// was, and the result shares only those unchanged copies with it.
//
// An equal (ID, Rev) pins the content: every mutation stamps a fresh
// revision, and revisions stay monotonic across Crash and Restore.
// Incidents are matched by position: open order only appends, and
// Restore rebuilds the checkpointed order, so anything that moved an
// incident also moved the (ID, Rev) at its position.
func (c *Correlator) IncidentsReusing(prev []Incident) []Incident {
	out := make([]Incident, len(c.incidents))
	for i, inc := range c.incidents {
		if i < len(prev) && prev[i].ID == inc.ID && prev[i].Rev == inc.Rev {
			out[i] = prev[i]
			continue
		}
		out[i] = inc.clone()
	}
	return out
}

// Latest returns a deep copy of the component's most recent incident.
func (c *Correlator) Latest(comp component.ID) (Incident, bool) {
	inc, ok := c.latest[comp]
	if !ok {
		return Incident{}, false
	}
	return inc.clone(), true
}

// Incident returns a deep copy of one incident by ID.
func (c *Correlator) Incident(id string) (Incident, bool) {
	inc, ok := c.byID[id]
	if !ok {
		return Incident{}, false
	}
	return inc.clone(), true
}

// Counts reports how many incidents sit in each lifecycle state.
func (c *Correlator) Counts() (open, mitigating, resolved int) {
	for _, inc := range c.incidents {
		switch inc.State {
		case Open:
			open++
		case Mitigating:
			mitigating++
		case Resolved:
			resolved++
		}
	}
	return
}
