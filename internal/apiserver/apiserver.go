// Package apiserver is the operator query plane over a running
// SkeletonHunter deployment: a stdlib net/http read-only API serving
// incidents, alarms, the component blacklist, and self-monitoring
// stats as JSON.
//
// The serving model is snapshot-immutable: the deployment (on its
// engine goroutine) periodically renders the monitoring state into a
// set of pre-marshaled JSON resources and swaps them in atomically;
// request handlers only ever read the current immutable view. That
// keeps handlers allocation-light and completely free of locks against
// the simulation — the shape that survives "heavy traffic from
// millions of users" — and it makes HTTP caching exact: a resource's
// ETag is a digest of its bytes, so If-None-Match revalidation returns
// 304 precisely until the monitoring state actually changes.
//
// Publishing is *delta-rendered*: each Update compares the snapshot
// against what the previous view already rendered — per-incident
// change revisions (incident.Incident.Rev), an append-only alarm
// stamp, an elementwise blacklist compare — and re-marshals only what
// changed, stitching the incident list from per-incident pre-marshaled
// fragments reused across epochs. A 32K-entry blacklist or a long
// incident table therefore costs nothing to republish until it
// actually changes. Updates that change anything (stats excluded; see
// below) mint a new monotonically increasing *epoch*, and the change
// set is retained in a bounded ring so clients can follow the plane
// via the resumable /v1/watch surface (long-poll or SSE) instead of
// polling — see watch.go.
//
// Self-protection mirrors the controller's transport server: a bounded
// concurrent-request admission gate (503 + Retry-After when full), a
// per-client token-bucket rate limiter (429) with idle-eviction
// bounding the client table, and a capped watcher registry with
// counted shedding and fell-behind eviction for the watch surface.
package apiserver

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"skeletonhunter/internal/analyzer"
	"skeletonhunter/internal/component"
	"skeletonhunter/internal/incident"
	"skeletonhunter/internal/obs"
)

// Config tunes the server's self-protection. Zero values take the
// defaults.
type Config struct {
	// RatePerSec is each client's sustained request budget (default
	// 50/s) and Burst its bucket depth (default 100).
	RatePerSec float64
	Burst      float64
	// MaxInFlight bounds concurrently admitted requests (default 128).
	MaxInFlight int
	// MaxClients bounds the rate-limiter table; when it fills, buckets
	// idle long enough to have refilled completely are evicted —
	// never live (possibly throttled) ones (default 4096).
	MaxClients int
	// MaxWatchers bounds concurrently registered watch clients —
	// blocked long-pollers plus open SSE streams; excess watch
	// requests are shed with 503 (default 1024).
	MaxWatchers int
	// WatchBacklog is how many epochs of change events are retained
	// for resumable watches; a cursor older than the backlog gets
	// 410 Gone and must resync from the full resources (default 512).
	WatchBacklog int
	// DisableDeltas forces every Update to re-marshal every resource
	// wholesale — the pre-delta baseline, kept so the delta renderer
	// can be benchmarked (and equivalence-tested) against it.
	DisableDeltas bool

	// now overrides the rate limiter's clock (tests).
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.RatePerSec == 0 {
		c.RatePerSec = 50
	}
	if c.Burst == 0 {
		c.Burst = 100
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 128
	}
	if c.MaxClients == 0 {
		c.MaxClients = 4096
	}
	if c.MaxWatchers == 0 {
		c.MaxWatchers = 1024
	}
	if c.WatchBacklog <= 0 {
		c.WatchBacklog = 512
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// BlacklistEntry is one blacklisted component in the /v1/blacklist
// response.
type BlacklistEntry struct {
	Component component.ID `json:"component"`
	Class     string       `json:"class"`
	SinceSec  float64      `json:"since_s"`
}

// Snapshot is the monitoring state the deployment renders into a view.
// All fields are copies owned by the snapshot (the server never
// mutates them, so callers may hand the same slices to consecutive
// Updates).
//
// Delta contract: incidents are identified by ID and carry a change
// revision (Incident.Rev) that is bumped on every mutation — an
// incident whose (ID, Rev) pair matches the previous Update is served
// from the previous rendering without re-marshaling. Rev zero means
// "no tracking" and always re-renders. Alarms are append-only between
// Updates; the blacklist is compared elementwise.
type Snapshot struct {
	Now       time.Duration
	Incidents []incident.Incident
	Alarms    []analyzer.Alarm
	Blacklist []BlacklistEntry
	Stats     obs.Snapshot
}

// resource is one pre-marshaled endpoint body.
type resource struct {
	body []byte
	etag string
}

// view is one immutable generation of every served resource.
type view struct {
	epoch     uint64
	resources map[string]resource // fixed paths
	incidents map[string]resource // /v1/incidents/{id}
}

// incFrag is the cached rendering of one incident at one revision:
// its list-summary JSON fragment (indented for in-place stitching
// into the /v1/incidents body). The detail resource is reused from
// the previous view directly.
type incFrag struct {
	rev     uint64
	summary []byte
}

// Server is the HTTP read plane. Construct with New, feed with Update,
// serve via Start or use it directly as an http.Handler.
type Server struct {
	cfg  Config
	view atomic.Pointer[view]

	admit chan struct{}

	mu      sync.Mutex
	buckets map[string]*bucket

	// Publisher state: owned by Update's caller (the deployment's
	// engine goroutine — Update is single-writer by contract).
	epoch     atomic.Uint64
	frags     map[string]incFrag
	listIDs   []string // incident order the published list was stitched in
	blacklist []BlacklistEntry
	alarmLen  int
	alarmLast time.Duration

	hub watchHub

	requests     atomic.Uint64
	notModified  atomic.Uint64
	throttled    atomic.Uint64
	rejected     atomic.Uint64
	watchReqs    atomic.Uint64
	watchEvents  atomic.Uint64
	watchShed    atomic.Uint64
	watchEvicted atomic.Uint64
	watchResyncs atomic.Uint64

	ln   net.Listener
	http *http.Server
}

// New builds a server with no view yet; requests 503 until the first
// Update.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		admit:   make(chan struct{}, cfg.MaxInFlight),
		buckets: make(map[string]*bucket),
		frags:   make(map[string]incFrag),
	}
	s.hub.init(cfg.WatchBacklog)
	return s
}

// incidentView is the JSON shape of one incident. Durations serialize
// as seconds: operators read curl output, not nanosecond integers.
type incidentView struct {
	ID             string       `json:"id"`
	Component      component.ID `json:"component"`
	Class          string       `json:"class"`
	Severity       string       `json:"severity"`
	State          string       `json:"state"`
	OpenedSec      float64      `json:"opened_s"`
	MitigatedSec   float64      `json:"mitigated_s,omitempty"`
	ResolvedSec    float64      `json:"resolved_s,omitempty"`
	LastAlarmSec   float64      `json:"last_alarm_s"`
	TimeToDetect   float64      `json:"time_to_detect_s"`
	TimeToMitigate float64      `json:"time_to_mitigate_s,omitempty"`
	RepairedSec    float64      `json:"repaired_s,omitempty"`
	TimeToRepair   float64      `json:"time_to_repair_s,omitempty"`
	Mitigation     string       `json:"mitigation,omitempty"`
	AlarmCount     int          `json:"alarm_count"`
	Reopens        int          `json:"reopens"`
	// Gray marks an incident opened by the correlate layer's
	// change-point detector: sub-threshold evidence, page-only policy.
	Gray        bool     `json:"gray,omitempty"`
	Chains      []string `json:"chains,omitempty"`
	Remediation []string `json:"remediation,omitempty"`
}

// incidentDetail adds the evidence bundle to the detail endpoint.
type incidentDetail struct {
	incidentView
	Evidence evidenceView `json:"evidence"`
}

type evidenceView struct {
	GatheredSec  float64      `json:"gathered_s"`
	TotalRecords int          `json:"total_records"`
	Records      []recordView `json:"records,omitempty"`
	Queues       []queueView  `json:"queues,omitempty"`
	Offload      *offloadView `json:"offload,omitempty"`
	Verdicts     []string     `json:"verdicts,omitempty"`
}

type recordView struct {
	Task  string  `json:"task"`
	Src   string  `json:"src"`
	Dst   string  `json:"dst"`
	AtSec float64 `json:"at_s"`
	RTTUs float64 `json:"rtt_us"`
	Lost  bool    `json:"lost"`
	Hops  int     `json:"path_hops"`
}

type queueView struct {
	Node  string  `json:"node"`
	Depth float64 `json:"depth_pkts"`
}

type offloadView struct {
	Host         int `json:"host"`
	Rail         int `json:"rail"`
	Inconsistent int `json:"inconsistent_entries"`
	NotOffloaded int `json:"not_offloaded_entries"`
	Total        int `json:"total_entries"`
}

type alarmView struct {
	AtSec     float64       `json:"at_s"`
	Anomalies int           `json:"anomalies"`
	Verdicts  []verdictView `json:"verdicts"`
}

type verdictView struct {
	Layer      string         `json:"layer"`
	Detail     string         `json:"detail"`
	Components []component.ID `json:"components"`
	Pairs      int            `json:"pairs"`
}

func seconds(d time.Duration) float64 { return d.Seconds() }

func toIncidentView(in incident.Incident) incidentView {
	return incidentView{
		ID:             in.ID,
		Component:      in.Component,
		Class:          in.Class.String(),
		Severity:       in.Severity.String(),
		State:          in.State.String(),
		OpenedSec:      seconds(in.OpenedAt),
		MitigatedSec:   seconds(in.MitigatedAt),
		ResolvedSec:    seconds(in.ResolvedAt),
		LastAlarmSec:   seconds(in.LastAlarmAt),
		TimeToDetect:   seconds(in.TimeToDetect),
		TimeToMitigate: seconds(in.TimeToMitigate),
		RepairedSec:    seconds(in.RepairedAt),
		TimeToRepair:   seconds(in.TimeToRepair),
		Mitigation:     in.Mitigation,
		AlarmCount:     in.AlarmCount,
		Reopens:        in.Reopens,
		Gray:           in.Gray,
		Chains:         in.Evidence.Chains,
		Remediation:    in.Evidence.Remediation,
	}
}

func toDetail(in incident.Incident) incidentDetail {
	ev := evidenceView{
		GatheredSec:  seconds(in.Evidence.GatheredAt),
		TotalRecords: in.Evidence.TotalRecords,
		Verdicts:     in.Evidence.Verdicts,
	}
	for _, r := range in.Evidence.Records {
		ev.Records = append(ev.Records, recordView{
			Task:  string(r.Task),
			Src:   fmt.Sprintf("c%d/r%d", r.SrcContainer, r.SrcRail),
			Dst:   fmt.Sprintf("c%d/r%d", r.DstContainer, r.DstRail),
			AtSec: seconds(r.At),
			RTTUs: float64(r.RTT) / float64(time.Microsecond),
			Lost:  r.Lost,
			Hops:  len(r.Path),
		})
	}
	for _, q := range in.Evidence.Queues {
		ev.Queues = append(ev.Queues, queueView{Node: string(q.Node), Depth: q.Depth})
	}
	if od := in.Evidence.Offload; od != nil {
		ev.Offload = &offloadView{
			Host: od.Host, Rail: od.Rail,
			Inconsistent: len(od.Inconsistent), NotOffloaded: len(od.NotOffloaded),
			Total: od.Total,
		}
	}
	return incidentDetail{incidentView: toIncidentView(in), Evidence: ev}
}

// mustResource marshals a body and stamps its ETag. Marshaling the
// view types cannot fail (no channels/funcs/cycles), so errors are
// programming bugs and panic.
func mustResource(v any) resource {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("apiserver: marshal: %v", err))
	}
	return finishResource(append(b, '\n'))
}

// finishResource stamps a fully rendered body with its ETag.
func finishResource(body []byte) resource {
	sum := sha256.Sum256(body)
	return resource{body: body, etag: `"` + hex.EncodeToString(sum[:8]) + `"`}
}

// summaryFragment renders one incident's list entry indented for
// stitching into the /v1/incidents array (two levels deep), matching
// json.MarshalIndent of the whole list byte for byte.
func summaryFragment(in incident.Incident) []byte {
	b, err := json.MarshalIndent(toIncidentView(in), "    ", "  ")
	if err != nil {
		panic(fmt.Sprintf("apiserver: marshal: %v", err))
	}
	return b
}

// detailResource renders one incident's /v1/incidents/{id} body.
func detailResource(in incident.Incident, now time.Duration) resource {
	return mustResource(map[string]any{
		"now_s":    seconds(now),
		"incident": toDetail(in),
	})
}

// stitchList assembles the /v1/incidents body from per-incident
// summary fragments — no per-incident re-marshaling. The output is
// byte-identical to mustResource over the equivalent map, which the
// equivalence test pins.
func stitchList(frags [][]byte, now time.Duration) resource {
	nowJSON, _ := json.Marshal(seconds(now))
	var buf bytes.Buffer
	buf.WriteString("{\n  \"incidents\": [")
	for i, f := range frags {
		if i > 0 {
			buf.WriteString(",")
		}
		buf.WriteString("\n    ")
		buf.Write(f)
	}
	if len(frags) > 0 {
		buf.WriteString("\n  ")
	}
	buf.WriteString("],\n  \"now_s\": ")
	buf.Write(nowJSON)
	buf.WriteString("\n}\n")
	return finishResource(buf.Bytes())
}

// Update renders a snapshot into a fresh immutable view and swaps it
// in; handlers pick the new view up on their next request. Called from
// the deployment's engine goroutine — Update is single-writer (the
// delta caches are unguarded publisher state).
//
// Only resources whose content actually changed are re-marshaled (see
// the Snapshot delta contract); if anything changed, the server's
// epoch advances and the change set is published to the watch ring.
// The stats resource re-renders every Update but never participates
// in epochs or watch events: serving counters move on every request,
// and a watch surface that woke on its own traffic would spin.
func (s *Server) Update(snap Snapshot) {
	prev := s.view.Load()
	wholesale := prev == nil || s.cfg.DisableDeltas

	v := &view{
		resources: make(map[string]resource, 5),
		incidents: make(map[string]resource, len(snap.Incidents)),
	}
	var changed []string

	// Incidents: reuse the previous rendering for every (ID, Rev)
	// pair already published; stitch the list from cached fragments.
	frags := make([][]byte, 0, len(snap.Incidents))
	ids := make([]string, 0, len(snap.Incidents))
	listDirty := wholesale
	for _, in := range snap.Incidents {
		ids = append(ids, in.ID)
		f, haveFrag := s.frags[in.ID]
		prevDet, havePrev := resource{}, false
		if prev != nil {
			prevDet, havePrev = prev.incidents[in.ID]
		}
		if !wholesale && in.Rev != 0 && haveFrag && f.rev == in.Rev && havePrev {
			v.incidents[in.ID] = prevDet
			frags = append(frags, f.summary)
			continue
		}
		frag := summaryFragment(in)
		v.incidents[in.ID] = detailResource(in, snap.Now)
		s.frags[in.ID] = incFrag{rev: in.Rev, summary: frag}
		frags = append(frags, frag)
		changed = append(changed, "/v1/incidents/"+in.ID)
		listDirty = true
	}
	if !listDirty && !sameIDs(ids, s.listIDs) {
		listDirty = true
	}
	if listDirty {
		v.resources["/v1/incidents"] = stitchList(frags, snap.Now)
		changed = append(changed, "/v1/incidents")
	} else {
		v.resources["/v1/incidents"] = prev.resources["/v1/incidents"]
	}
	s.listIDs = ids

	// Alarms: append-only between Updates, so (count, last-At) pins
	// the content.
	var alarmLast time.Duration
	if n := len(snap.Alarms); n > 0 {
		alarmLast = snap.Alarms[n-1].At
	}
	if wholesale || len(snap.Alarms) != s.alarmLen || alarmLast != s.alarmLast {
		alarms := make([]alarmView, 0, len(snap.Alarms))
		for _, al := range snap.Alarms {
			av := alarmView{AtSec: seconds(al.At), Anomalies: len(al.Anomalies)}
			for _, vd := range al.Verdicts {
				av.Verdicts = append(av.Verdicts, verdictView{
					Layer: vd.Layer.String(), Detail: vd.Detail,
					Components: vd.Components, Pairs: vd.Pairs,
				})
			}
			alarms = append(alarms, av)
		}
		v.resources["/v1/alarms"] = mustResource(map[string]any{
			"now_s":  seconds(snap.Now),
			"alarms": alarms,
		})
		changed = append(changed, "/v1/alarms")
		s.alarmLen, s.alarmLast = len(snap.Alarms), alarmLast
	} else {
		v.resources["/v1/alarms"] = prev.resources["/v1/alarms"]
	}

	// Blacklist: compared elementwise — entries are tiny comparable
	// structs, and the compare is what spares re-marshaling 32K of
	// them every round.
	if wholesale || !blacklistEqual(snap.Blacklist, s.blacklist) {
		v.resources["/v1/blacklist"] = mustResource(map[string]any{
			"now_s":     seconds(snap.Now),
			"blacklist": snap.Blacklist,
		})
		changed = append(changed, "/v1/blacklist")
		s.blacklist = append(s.blacklist[:0], snap.Blacklist...)
	} else {
		v.resources["/v1/blacklist"] = prev.resources["/v1/blacklist"]
	}

	// Stats: always re-rendered, never epoch-relevant.
	v.resources["/v1/stats"] = mustResource(map[string]any{
		"now_s":    seconds(snap.Now),
		"counters": snap.Stats.Counters,
	})

	if len(changed) > 0 || prev == nil {
		epoch := s.epoch.Add(1)
		v.epoch = epoch
		s.view.Store(v)
		s.hub.publish(renderEvent(epoch, snap.Now, changed, v))
	} else {
		v.epoch = prev.epoch
		s.view.Store(v)
	}
}

// sameIDs reports whether two incident orderings are identical.
func sameIDs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func blacklistEqual(a, b []BlacklistEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ServeHTTP implements the read API.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		jsonError(w, http.StatusMethodNotAllowed, "read-only API: GET/HEAD only")
		return
	}

	path := strings.TrimSuffix(r.URL.Path, "/")

	// The watch surface has its own self-protection (the bounded
	// watcher registry) and can legitimately hold a request open for
	// the whole long-poll wait — it must not pin admission slots the
	// fast resource gets need.
	if path == "/v1/watch" {
		if !s.allow(clientKey(r)) {
			s.throttled.Add(1)
			w.Header().Set("Retry-After", "1")
			jsonError(w, http.StatusTooManyRequests, "client rate limit exceeded")
			return
		}
		s.serveWatch(w, r)
		return
	}

	// Admission: bounded concurrency, shed immediately when full.
	select {
	case s.admit <- struct{}{}:
		defer func() { <-s.admit }()
	default:
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		jsonError(w, http.StatusServiceUnavailable, "server at concurrent-request capacity")
		return
	}

	if !s.allow(clientKey(r)) {
		s.throttled.Add(1)
		w.Header().Set("Retry-After", "1")
		jsonError(w, http.StatusTooManyRequests, "client rate limit exceeded")
		return
	}

	v := s.view.Load()
	if v == nil {
		w.Header().Set("Retry-After", "1")
		jsonError(w, http.StatusServiceUnavailable, "no snapshot published yet")
		return
	}

	res, ok := v.resources[path]
	if !ok {
		if id, found := strings.CutPrefix(path, "/v1/incidents/"); found {
			res, ok = v.incidents[id]
		}
	}
	if !ok {
		jsonError(w, http.StatusNotFound, "unknown resource")
		return
	}

	w.Header().Set("ETag", res.etag)
	w.Header().Set("Cache-Control", "no-cache") // revalidate, don't assume fresh
	w.Header().Set("X-Epoch", strconv.FormatUint(v.epoch, 10))
	if etagMatches(r.Header.Get("If-None-Match"), res.etag) {
		s.notModified.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// Set explicitly so HEAD responses size the body they elide; for
	// GET it matches the single Write below exactly.
	w.Header().Set("Content-Length", strconv.Itoa(len(res.body)))
	if r.Method == http.MethodHead {
		return
	}
	w.Write(res.body)
}

// etagMatches implements If-None-Match for strong ETags: "*", or any
// member of the (possibly weak-prefixed) candidate list equal to the
// resource's tag.
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	if header == "*" {
		return true
	}
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == etag {
			return true
		}
	}
	return false
}

// clientKey identifies a client for rate limiting: the connection's
// source IP (ports vary per connection; one client is one host).
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func jsonError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"error\": %q}\n", msg)
}

// Start listens on addr ("host:0" picks a free port) and serves until
// Close. The listener address is available via Addr.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.http = &http.Server{Handler: s, ReadHeaderTimeout: 5 * time.Second}
	go s.http.Serve(ln)
	return nil
}

// Addr returns the listening address (empty before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener.
func (s *Server) Close() error {
	if s.http == nil {
		return nil
	}
	return s.http.Close()
}

// Epoch returns the current incident-plane epoch (0 before the first
// Update).
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// Stats reports the server's own serving counters.
func (s *Server) Stats() map[string]uint64 {
	return map[string]uint64{
		"api-requests":      s.requests.Load(),
		"api-not-modified":  s.notModified.Load(),
		"api-throttled":     s.throttled.Load(),
		"api-rejected":      s.rejected.Load(),
		"api-epoch":         s.epoch.Load(),
		"api-watch-reqs":    s.watchReqs.Load(),
		"api-watch-events":  s.watchEvents.Load(),
		"api-watch-shed":    s.watchShed.Load(),
		"api-watch-evicted": s.watchEvicted.Load(),
		"api-watch-resyncs": s.watchResyncs.Load(),
	}
}
