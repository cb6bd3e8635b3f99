// The watch surface: a resumable change feed over incident-plane
// epochs. Every Update that changes a resource mints one epoch whose
// change set is rendered ONCE into a compact single-line JSON event —
// the bytes every watcher shares, whether it long-polls or streams —
// and retained in a bounded ring. A client holds a cursor (the last
// epoch it has seen) and asks for everything after it:
//
//	GET /v1/watch?cursor=N            → NDJSON events for epochs > N
//	GET /v1/watch?cursor=N&wait_ms=M  → long-poll: block up to M ms
//	                                    for the next epoch
//	GET /v1/watch?cursor=N&stream=sse → SSE: stream events as minted
//	                                    (id: = epoch, resumable via
//	                                    Last-Event-ID)
//
// Because event bytes are pre-rendered per epoch, a client that
// disconnects and resumes from its cursor receives a byte-identical
// event stream to one that never disconnected — as long as its cursor
// is still inside the backlog ring. A cursor that has aged out gets
// 410 Gone (long-poll) or a terminal resync event (SSE) and must
// re-fetch the full resources before watching again.
//
// Self-protection: the watcher registry bounds blocked long-pollers
// plus open SSE streams at MaxWatchers with counted shedding (503),
// and an SSE consumer too slow to drain the ring before its position
// ages out is evicted with a counted resync rather than stalling the
// publisher — publishing never blocks on any watcher.
package apiserver

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// epochEvent is one epoch's pre-rendered change event: a single line
// of compact JSON, shared by every watcher that observes the epoch.
type epochEvent struct {
	epoch uint64
	data  []byte // no trailing newline
}

// watchHub is the bounded epoch ring plus the broadcast primitive
// long-pollers and SSE streams wait on.
type watchHub struct {
	mu      sync.Mutex
	ring    []epochEvent // oldest first; at most backlog entries
	backlog int
	notify  chan struct{} // closed and replaced on every publish
	active  int           // registered watchers (waiting or streaming)
}

func (h *watchHub) init(backlog int) {
	h.backlog = backlog
	h.notify = make(chan struct{})
}

// publish appends one epoch's event and wakes every waiter. Called
// from Update (engine goroutine).
func (h *watchHub) publish(ev epochEvent) {
	h.mu.Lock()
	h.ring = append(h.ring, ev)
	if excess := len(h.ring) - h.backlog; excess > 0 {
		h.ring = append(h.ring[:0:0], h.ring[excess:]...)
	}
	notify := h.notify
	h.notify = make(chan struct{})
	h.mu.Unlock()
	close(notify)
}

// wait returns the channel the next publish will close.
func (h *watchHub) wait() <-chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.notify
}

// since returns the retained events with epoch > cursor, oldest
// first. ok=false means events after the cursor have already aged out
// of the ring — the caller must resync.
func (h *watchHub) since(cursor uint64) (events []epochEvent, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.ring) == 0 {
		return nil, true
	}
	if cursor+1 < h.ring[0].epoch {
		return nil, false
	}
	for i := len(h.ring) - 1; i >= 0; i-- {
		if h.ring[i].epoch <= cursor {
			return append([]epochEvent(nil), h.ring[i+1:]...), true
		}
	}
	return append([]epochEvent(nil), h.ring...), true
}

// register admits one watcher under the MaxWatchers bound.
func (h *watchHub) register(max int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.active >= max {
		return false
	}
	h.active++
	return true
}

func (h *watchHub) unregister() {
	h.mu.Lock()
	h.active--
	h.mu.Unlock()
}

// renderEvent builds one epoch's shared event bytes: the changed
// paths in sorted order, each with its freshly rendered resource body
// compacted onto the single event line.
func renderEvent(epoch uint64, now time.Duration, changed []string, v *view) epochEvent {
	sort.Strings(changed)
	hdr, err := json.Marshal(struct {
		Epoch   uint64   `json:"epoch"`
		NowSec  float64  `json:"now_s"`
		Changed []string `json:"changed"`
	}{epoch, seconds(now), changed})
	if err != nil {
		panic(fmt.Sprintf("apiserver: marshal event header: %v", err))
	}
	buf := append(hdr[:len(hdr)-1], `,"resources":{`...)
	for i, path := range changed {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendQuote(buf, path)
		buf = append(buf, ':')
		res, ok := v.resources[path]
		if !ok {
			res = v.incidents[strings.TrimPrefix(path, "/v1/incidents/")]
		}
		buf = appendCompact(buf, res.body)
	}
	buf = append(buf, '}', '}')
	return epochEvent{epoch: epoch, data: buf}
}

// appendCompact appends src's JSON with insignificant whitespace
// removed, keeping event lines newline-free for NDJSON/SSE framing.
func appendCompact(dst, src []byte) []byte {
	inString := false
	for i := 0; i < len(src); i++ {
		c := src[i]
		if inString {
			dst = append(dst, c)
			if c == '\\' && i+1 < len(src) {
				i++
				dst = append(dst, src[i])
			} else if c == '"' {
				inString = false
			}
			continue
		}
		switch c {
		case ' ', '\t', '\n', '\r':
			continue
		case '"':
			inString = true
		}
		dst = append(dst, c)
	}
	return dst
}

// serveWatch handles /v1/watch. Rate limiting has already run; the
// admission gate deliberately has not (see ServeHTTP).
func (s *Server) serveWatch(w http.ResponseWriter, r *http.Request) {
	s.watchReqs.Add(1)
	v := s.view.Load()
	if v == nil {
		w.Header().Set("Retry-After", "1")
		jsonError(w, http.StatusServiceUnavailable, "no snapshot published yet")
		return
	}
	current := s.epoch.Load()

	q := r.URL.Query()
	cursorStr := q.Get("cursor")
	if cursorStr == "" {
		cursorStr = r.Header.Get("Last-Event-ID")
	}
	cursor := current // no cursor: watch forward from now
	if cursorStr != "" {
		c, err := strconv.ParseUint(cursorStr, 10, 64)
		if err != nil {
			jsonError(w, http.StatusBadRequest, "malformed cursor")
			return
		}
		if c > current {
			jsonError(w, http.StatusBadRequest, "cursor ahead of stream")
			return
		}
		cursor = c
	}

	if q.Get("stream") == "sse" || strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.serveSSE(w, r, cursor)
		return
	}
	s.serveLongPoll(w, r, cursor, q.Get("wait_ms"))
}

// maxPollWait caps the long-poll wait_ms parameter.
const maxPollWait = 30 * time.Second

// serveLongPoll answers with NDJSON events past the cursor,
// optionally blocking up to wait_ms for the first one. The X-Epoch
// header carries the client's next cursor.
func (s *Server) serveLongPoll(w http.ResponseWriter, r *http.Request, cursor uint64, waitStr string) {
	var wait time.Duration
	if waitStr != "" {
		ms, err := strconv.ParseInt(waitStr, 10, 64)
		if err != nil || ms < 0 {
			jsonError(w, http.StatusBadRequest, "malformed wait_ms")
			return
		}
		wait = time.Duration(ms) * time.Millisecond
		if wait > maxPollWait {
			wait = maxPollWait
		}
	}

	events, ok := s.hub.since(cursor)
	if !ok {
		s.watchResyncs.Add(1)
		s.writeGone(w, cursor)
		return
	}
	if len(events) == 0 && wait > 0 {
		if !s.hub.register(s.cfg.MaxWatchers) {
			s.watchShed.Add(1)
			w.Header().Set("Retry-After", "1")
			jsonError(w, http.StatusServiceUnavailable, "watcher registry full")
			return
		}
		timer := time.NewTimer(wait)
		for {
			notify := s.hub.wait()
			// Re-check after grabbing the channel: a publish may have
			// slipped between the last since() and wait().
			if events, ok = s.hub.since(cursor); !ok || len(events) > 0 {
				break
			}
			select {
			case <-notify:
				continue
			case <-timer.C:
			case <-r.Context().Done():
			}
			break // timed out or client gone: answer empty
		}
		timer.Stop()
		s.hub.unregister()
		if !ok {
			s.watchResyncs.Add(1)
			s.writeGone(w, cursor)
			return
		}
	}

	next := cursor
	if n := len(events); n > 0 {
		next = events[n-1].epoch
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Epoch", strconv.FormatUint(next, 10))
	for _, ev := range events {
		w.Write(ev.data)
		w.Write([]byte{'\n'})
	}
	s.watchEvents.Add(uint64(len(events)))
}

func (s *Server) writeGone(w http.ResponseWriter, cursor uint64) {
	oldest := uint64(0)
	s.hub.mu.Lock()
	if len(s.hub.ring) > 0 {
		oldest = s.hub.ring[0].epoch
	}
	s.hub.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusGone)
	fmt.Fprintf(w, "{\"error\": \"cursor %d aged out of the watch backlog\", \"oldest\": %d, \"epoch\": %d}\n",
		cursor, oldest, s.epoch.Load())
}

// serveSSE streams events as server-sent events until the client
// disconnects or falls behind the backlog (terminal resync event,
// counted as an eviction).
func (s *Server) serveSSE(w http.ResponseWriter, r *http.Request, cursor uint64) {
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		jsonError(w, http.StatusInternalServerError, "streaming unsupported by connection")
		return
	}
	if !s.hub.register(s.cfg.MaxWatchers) {
		s.watchShed.Add(1)
		w.Header().Set("Retry-After", "1")
		jsonError(w, http.StatusServiceUnavailable, "watcher registry full")
		return
	}
	defer s.hub.unregister()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	for {
		events, ok := s.hub.since(cursor)
		if !ok {
			// Fell behind the ring: evict rather than serve a gapped
			// stream the client cannot detect.
			s.watchEvicted.Add(1)
			fmt.Fprintf(w, "event: resync\ndata: {\"resync\": true, \"epoch\": %d}\n\n", s.epoch.Load())
			fl.Flush()
			return
		}
		for _, ev := range events {
			fmt.Fprintf(w, "id: %d\ndata: ", ev.epoch)
			w.Write(ev.data)
			w.Write([]byte("\n\n"))
			cursor = ev.epoch
		}
		if len(events) > 0 {
			s.watchEvents.Add(uint64(len(events)))
			fl.Flush()
		}
		notify := s.hub.wait()
		// Re-check before blocking: a publish may have landed between
		// since() and wait().
		if more, ok2 := s.hub.since(cursor); ok2 && len(more) == 0 {
			select {
			case <-notify:
			case <-r.Context().Done():
				return
			}
		}
	}
}
