package transport

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Backend is what the server fronts: the controller-side operations an
// authenticated agent may invoke. The deployment façade implements it
// over the in-process controller and analyzer.
type Backend interface {
	// SecretOf returns the shared secret for a task ("" task unknown).
	SecretOf(task string) (Secret, bool)
	// Epoch returns the controller incarnation counter; it is stamped
	// on every response so agents can detect a restart and re-register.
	Epoch() uint64
	// Register marks a container's agent as up.
	Register(task string, container int) error
	// Deregister marks it down.
	Deregister(task string, container int) error
	// PingList returns the container's current probe targets.
	PingList(task string, container int) ([]Target, error)
	// Report ingests a batch of probe results.
	Report(task string, container int, reports []ProbeReport) error
	// Stats returns probing-scale statistics for the task.
	Stats(task string) (full, basic, current int, phase string, err error)
}

// ServerConfig tunes the server's self-protection limits.
type ServerConfig struct {
	// IdleTimeout closes a connection that sends no request for this
	// long (default DefaultIdleTimeout). A half-open connection from a
	// crashed agent would otherwise pin a goroutine and a conns entry
	// until Close. Negative disables.
	IdleTimeout time.Duration
	// MaxConns caps concurrent agent connections (default
	// DefaultMaxConns); connections over the cap are closed at accept.
	// Negative disables.
	MaxConns int
}

const (
	// DefaultIdleTimeout is generous against a 1 s probing cadence:
	// only a truly dead peer stays silent for two minutes.
	DefaultIdleTimeout = 2 * time.Minute
	// DefaultMaxConns comfortably exceeds one connection per sidecar
	// agent on the largest simulated deployments.
	DefaultMaxConns = 1024
	// replayWindow is how many recent nonces are remembered per (task,
	// container) to refuse replayed requests: more than an agent can
	// issue inside the idle timeout at its request cadence. A captured
	// authenticated frame — say a stale Deregister — replays verbatim
	// otherwise, since the MAC covers only op|task|container|nonce.
	replayWindow = 256
)

func (c ServerConfig) withDefaults() ServerConfig {
	if c.IdleTimeout == 0 {
		c.IdleTimeout = DefaultIdleTimeout
	}
	if c.MaxConns == 0 {
		c.MaxConns = DefaultMaxConns
	}
	return c
}

// Server accepts agent connections and dispatches authenticated
// requests to the backend.
type Server struct {
	backend Backend
	cfg     ServerConfig
	ln      net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	replayMu sync.Mutex
	replay   map[replayKey]*nonceWindow

	idleCloses    atomic.Uint64
	rejectedConns atomic.Uint64
	replayDrops   atomic.Uint64

	// Logf, when set, receives connection-level errors (defaults to
	// log.Printf; tests silence it).
	Logf func(format string, args ...any)

	wg sync.WaitGroup
}

type replayKey struct {
	task      string
	container int
}

// nonceWindow is a bounded set of recently seen nonces: a ring for
// FIFO eviction plus a set for O(1) membership.
type nonceWindow struct {
	order []string
	seen  map[string]struct{}
	next  int
}

func (w *nonceWindow) admit(nonce string, capacity int) bool {
	if _, dup := w.seen[nonce]; dup {
		return false
	}
	if len(w.order) < capacity {
		w.order = append(w.order, nonce)
	} else {
		delete(w.seen, w.order[w.next])
		w.order[w.next] = nonce
		w.next = (w.next + 1) % capacity
	}
	w.seen[nonce] = struct{}{}
	return true
}

// NewServer starts a server on addr (e.g. "127.0.0.1:0") with default
// limits.
func NewServer(addr string, backend Backend) (*Server, error) {
	return NewServerWithConfig(addr, backend, ServerConfig{})
}

// NewServerWithConfig starts a server with explicit limits.
func NewServerWithConfig(addr string, backend Backend, cfg ServerConfig) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		backend: backend,
		cfg:     cfg.withDefaults(),
		ln:      ln,
		conns:   make(map[net.Conn]struct{}),
		replay:  make(map[replayKey]*nonceWindow),
		Logf:    log.Printf,
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address (for agents to dial).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// NumConns returns the number of live agent connections.
func (s *Server) NumConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// IdleCloses returns how many connections the idle deadline reaped.
func (s *Server) IdleCloses() uint64 { return s.idleCloses.Load() }

// RejectedConns returns how many connections the MaxConns cap refused.
func (s *Server) RejectedConns() uint64 { return s.rejectedConns.Load() }

// ReplayDrops returns how many requests the replay window refused.
func (s *Server) ReplayDrops() uint64 { return s.replayDrops.Load() }

// Close stops accepting, closes every live connection, and waits for
// handler goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns {
			s.mu.Unlock()
			s.rejectedConns.Add(1)
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serve(conn)
	}
}

func (s *Server) serve(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	fr := newFrameReader(conn)
	for {
		if s.cfg.IdleTimeout > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout)); err != nil {
				return
			}
		}
		req, err := fr.readRequest()
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				s.idleCloses.Add(1)
				return
			}
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && s.Logf != nil {
				s.Logf("transport: decode from %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		resp := s.dispatch(&req)
		resp.Epoch = s.backend.Epoch()
		if err := writeResponse(conn, &resp); err != nil {
			if s.Logf != nil {
				s.Logf("transport: encode to %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
	}
}

// freshNonce records the request's nonce in its agent's replay window
// and reports whether it was new.
func (s *Server) freshNonce(req *Request) bool {
	k := replayKey{task: req.Task, container: req.Container}
	s.replayMu.Lock()
	defer s.replayMu.Unlock()
	w, ok := s.replay[k]
	if !ok {
		w = &nonceWindow{seen: make(map[string]struct{})}
		s.replay[k] = w
	}
	return w.admit(req.Nonce, replayWindow)
}

func (s *Server) dispatch(req *Request) Response {
	secret, ok := s.backend.SecretOf(req.Task)
	if !ok {
		return Response{Error: "unknown task"}
	}
	// Authentication first: a request with a bad MAC learns nothing,
	// not even whether the container index is valid (§6's anti-forgery
	// requirement).
	if !Verify(secret, req) {
		return Response{Error: "authentication failed"}
	}
	// Replay check only after the MAC verifies: unauthenticated junk
	// must not be able to poison an agent's nonce window.
	if !s.freshNonce(req) {
		s.replayDrops.Add(1)
		return Response{Error: "replayed nonce"}
	}
	switch req.Op {
	case OpRegister:
		if err := s.backend.Register(req.Task, req.Container); err != nil {
			return Response{Error: err.Error()}
		}
		return Response{OK: true}
	case OpDeregister:
		if err := s.backend.Deregister(req.Task, req.Container); err != nil {
			return Response{Error: err.Error()}
		}
		return Response{OK: true}
	case OpPingList:
		targets, err := s.backend.PingList(req.Task, req.Container)
		if err != nil {
			return Response{Error: err.Error()}
		}
		return Response{OK: true, Targets: targets}
	case OpReport:
		if err := s.backend.Report(req.Task, req.Container, req.Reports); err != nil {
			return Response{Error: err.Error()}
		}
		return Response{OK: true}
	case OpStats:
		full, basic, current, phase, err := s.backend.Stats(req.Task)
		if err != nil {
			return Response{Error: err.Error()}
		}
		return Response{OK: true, FullMeshTargets: full, BasicTargets: basic, CurrentTargets: current, Phase: phase}
	default:
		return Response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}
