package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"
)

// API read mix issued after every tick (harness time, outside the
// measured wall): conditional list GETs, incident details and the alarm
// list from a rotating set of client addresses, so the default
// per-client rate limit stays on and is never hit, plus four watchers
// that catch up from their cursor every tick.
const (
	apiClients   = 256
	apiCondGets  = 16
	apiDetails   = 8
	apiAlarmGets = 4
	apiWatches   = 4
	apiRotating  = apiClients - apiWatches
)

type apiClient struct {
	addr   string
	etag   string // last ETag seen on /v1/incidents
	cursor string // next watch cursor ("" = watch forward from now)
}

// apiLoad drives the deployment's read API in-process through
// ServeHTTP and keeps the per-request timings.
type apiLoad struct {
	srv     http.Handler
	clients [apiClients]apiClient
	next    int
	ids     []string // incident IDs of the latest list body
	idNext  int

	requests    int
	bad         int       // status other than 200/304 (or a watch 410)
	resyncs     int       // 410 Gone on a watch catch-up: cursor aged out
	notModified int       // 304 on the conditional list GET
	conditional int       // conditional list GETs issued
	getMs       []float64 // full-body 200 on /v1/incidents
	condUs      []float64 // 304 on /v1/incidents
	watchMs     []float64
	bodyKiB     []float64 // size of each full list body
}

func newAPILoad(srv http.Handler) *apiLoad {
	a := &apiLoad{srv: srv}
	for i := range a.clients {
		a.clients[i].addr = fmt.Sprintf("10.9.%d.%d:40000", i/250, 1+i%250)
	}
	return a
}

// sink is the response writer: it keeps status, headers and body size,
// and copies the body into a reused buffer as a connection write would.
type sink struct {
	header http.Header
	code   int
	body   []byte
}

func (s *sink) Header() http.Header { return s.header }
func (s *sink) WriteHeader(code int) {
	if s.code == 0 {
		s.code = code
	}
}
func (s *sink) Write(p []byte) (int, error) {
	if s.code == 0 {
		s.code = http.StatusOK
	}
	s.body = append(s.body, p...)
	return len(p), nil
}

// get issues one GET and returns the status, the elapsed serve time
// and the sink (valid until the next call).
func (a *apiLoad) get(w *sink, c *apiClient, path, ifNoneMatch string) (int, time.Duration) {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.RemoteAddr = c.addr
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	for k := range w.header {
		delete(w.header, k)
	}
	w.code, w.body = 0, w.body[:0]
	t0 := time.Now()
	a.srv.ServeHTTP(w, req)
	dt := time.Since(t0)
	if w.code == 0 {
		w.code = http.StatusOK
	}
	a.requests++
	return w.code, dt
}

// expect counts a status outside the allowed set as a failed read.
func (a *apiLoad) expect(code int, allowed ...int) {
	for _, ok := range allowed {
		if code == ok {
			return
		}
	}
	a.bad++
}

// tick issues one tick's read mix. The first list GET is unconditional
// and refreshes the incident IDs the detail GETs use, so a controller
// crash that empties the incident table never produces a 404.
func (a *apiLoad) tick(w *sink) {
	client := func() *apiClient {
		c := &a.clients[a.next]
		a.next = (a.next + 1) % apiRotating
		return c
	}
	for i := 0; i < apiCondGets; i++ {
		c := client()
		etag := c.etag
		if i == 0 {
			etag = ""
		} else {
			a.conditional++
		}
		code, dt := a.get(w, c, "/v1/incidents", etag)
		a.expect(code, http.StatusOK, http.StatusNotModified)
		c.etag = w.header.Get("ETag")
		switch code {
		case http.StatusOK:
			a.getMs = append(a.getMs, ms(dt))
			a.bodyKiB = append(a.bodyKiB, float64(len(w.body))/1024)
			if i == 0 {
				a.refreshIDs(w.body)
			}
		case http.StatusNotModified:
			a.notModified++
			a.condUs = append(a.condUs, float64(dt)/float64(time.Microsecond))
		}
	}
	for i := 0; i < apiDetails; i++ {
		path := "/v1/incidents"
		if len(a.ids) > 0 {
			path += "/" + a.ids[a.idNext%len(a.ids)]
			a.idNext++
		}
		code, _ := a.get(w, client(), path, "")
		a.expect(code, http.StatusOK)
	}
	for i := 0; i < apiAlarmGets; i++ {
		code, _ := a.get(w, client(), "/v1/alarms", "")
		a.expect(code, http.StatusOK)
	}
	// One tick of a storm can mint more epochs than the default
	// 512-epoch backlog holds; 410 Gone is the documented answer, and
	// the watcher resyncs to the epoch it names.
	for i := 0; i < apiWatches; i++ {
		c := &a.clients[apiRotating+i]
		path := "/v1/watch"
		if c.cursor != "" {
			path += "?cursor=" + c.cursor
		}
		code, dt := a.get(w, c, path, "")
		a.expect(code, http.StatusOK, http.StatusGone)
		a.watchMs = append(a.watchMs, ms(dt))
		if code == http.StatusGone {
			a.resyncs++
			var gone struct {
				Epoch uint64 `json:"epoch"`
			}
			if json.Unmarshal(w.body, &gone) != nil {
				a.bad++
			}
			c.cursor = strconv.FormatUint(gone.Epoch, 10)
		} else if next := w.header.Get("X-Epoch"); next != "" {
			c.cursor = next
		}
	}
}

func (a *apiLoad) refreshIDs(body []byte) {
	var list struct {
		Incidents []struct {
			ID string `json:"id"`
		} `json:"incidents"`
	}
	a.ids = a.ids[:0]
	if json.Unmarshal(body, &list) != nil {
		a.bad++
		return
	}
	for _, in := range list.Incidents {
		a.ids = append(a.ids, in.ID)
	}
}
