// Package server is the networked serving tier: it puts a
// stream.Server behind TCP, speaking the internal/wire frame
// protocol, so separate OS processes (internal/client, auctionsim
// -connect) can drive auctions through a real socket path.
//
// # Layering
//
// Admission control now has two layers. The stream layer keeps its
// bounded per-shard queues and Block/Shed policy untouched. Above it,
// each connection enforces a fixed in-flight request window backed by
// preallocated response slots: under Block the read loop simply stops
// reading when the window is full — backpressure propagates through
// TCP flow control to the client — while under Shed a request
// arriving at a full window is answered KindRejected(ReasonWindow)
// immediately. A server-wide connection cap rejects surplus dials at
// the handshake (HandshakeFull) before any frame is read.
//
// # Accounting identity
//
// The connection layer counts every auction-carrying request exactly
// once: Submitted when it is refused or handed to the stream layer
// (text that matches no keyword counts Unrouted instead), then
// exactly one of Served (outcome delivered), Shed (dropped by the
// stream policy), or Rejected (refused at the connection layer —
// window full, draining, or the stream already closed). After a drain
// completes,
//
//	Submitted == Served + Shed + Rejected
//
// holds exactly, extending the stream layer's Submitted == Served +
// Shed identity across the socket: every slot callback fires before
// stream.Server.Close returns, and every immediate disposition is
// counted on the read loop that decided it.
//
// # Zero allocations in steady state
//
// The per-auction path allocates nothing after warmup: frames decode
// into a per-connection reused Request; a query rides the shard queue
// as a value (stream.SubmitFunc); the outcome is encoded on the shard
// goroutine into the request's preallocated slot buffer; and the
// writer goroutine hands finished slots back through a fixed free
// list. Slot and control completions travel as int32 indexes on a
// channel whose capacity equals the maximum number of outstanding
// completions, so a shard goroutine can never block on a slow
// connection. TestServerSteadyStateAllocs gates this end to end.
package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Config tunes the networked tier; Stream configures the serving
// layer underneath it verbatim.
type Config struct {
	// Stream is the wrapped stream.Server configuration (engine,
	// overload policy, budget flush, ...). Its Overload policy also
	// selects the connection layer's window behavior: Block applies
	// TCP backpressure at a full window, Shed rejects immediately.
	Stream stream.Config
	// MaxConns caps admitted connections; surplus dials are rejected
	// at the handshake with HandshakeFull (default 64).
	MaxConns int
	// Window is the per-connection in-flight request window: the
	// number of preallocated response slots, and so the pipelining
	// depth one connection can reach (default 32).
	Window int
	// MaxFrame bounds accepted frame payloads (default
	// wire.MaxFrame).
	MaxFrame int
	// HandshakeTimeout bounds the magic exchange on a new connection
	// (default 5s).
	HandshakeTimeout time.Duration
	// DrainWriteTimeout bounds, per connection, the final response
	// writes during Close, so a client that stops reading cannot
	// wedge server teardown (default 5s).
	DrainWriteTimeout time.Duration
}

func (c *Config) maxConns() int {
	if c.MaxConns > 0 {
		return c.MaxConns
	}
	return 64
}

func (c *Config) window() int {
	if c.Window > 0 {
		return c.Window
	}
	return 32
}

func (c *Config) handshakeTimeout() time.Duration {
	if c.HandshakeTimeout > 0 {
		return c.HandshakeTimeout
	}
	return 5 * time.Second
}

func (c *Config) drainWriteTimeout() time.Duration {
	if c.DrainWriteTimeout > 0 {
		return c.DrainWriteTimeout
	}
	return 5 * time.Second
}

// Server is a listening networked serving tier. Construct with
// Listen; it accepts and serves immediately.
type Server struct {
	cfg      Config
	st       *stream.Server
	ln       net.Listener
	keywords int
	shed     bool // stream overload policy is Shed

	// Connection-layer accounting, registered into the engine's
	// telemetry registry (see the package comment for the identity
	// these maintain; Counters() is a view over them). mHandshake has
	// one lane per reject reason, mFrames one lane per request kind.
	mSubmitted *obs.Counter
	mServed    *obs.Counter
	mShed      *obs.Counter
	mRejected  *obs.Counter
	mUnrouted  *obs.Counter
	mHandshake *obs.Counter
	mFrames    *obs.Counter

	// conns stays a plain atomic: the handshake's admission decision
	// reads its own Add result, which a lane counter does not expose.
	conns atomic.Int64

	draining atomic.Bool

	acceptWG sync.WaitGroup
	connWG   sync.WaitGroup

	mu     sync.Mutex
	active map[*conn]struct{}

	drainOnce sync.Once
	drainedCh chan struct{}
	final     *stream.Stats

	closeOnce sync.Once
}

// Listen builds the stream server over inst, binds addr (e.g.
// "127.0.0.1:0"), and starts accepting.
func Listen(addr string, inst *workload.Instance, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", addr, err)
	}
	s := &Server{
		cfg:       cfg,
		st:        stream.NewServer(inst, cfg.Stream),
		ln:        ln,
		keywords:  inst.Keywords,
		shed:      cfg.Stream.Overload == stream.Shed,
		active:    make(map[*conn]struct{}),
		drainedCh: make(chan struct{}),
	}
	reg := s.Registry()
	s.mSubmitted = reg.Counter("ssa_server_submitted_total",
		"auction-carrying requests admitted past decode", 1)
	s.mServed = reg.Counter("ssa_server_served_total",
		"requests answered with a full outcome", 1)
	s.mShed = reg.Counter("ssa_server_shed_total",
		"requests dropped by the stream Shed policy", 1)
	s.mRejected = reg.Counter("ssa_server_rejected_total",
		"requests refused at the connection layer", 1)
	s.mUnrouted = reg.Counter("ssa_server_unrouted_total",
		"text requests that matched no catalog keyword", 1)
	s.mHandshake = reg.Counter("ssa_server_handshake_rejects_total",
		"connections refused at the handshake", 2).
		RenderLanes("reason", []string{"draining", "full"})
	s.mFrames = reg.Counter("ssa_server_frames_total",
		"request frames dispatched, by kind", len(frameKindNames)).
		RenderLanes("kind", frameKindNames)
	reg.Gauge("ssa_server_connections",
		"currently admitted connections", func() float64 {
			return float64(s.conns.Load())
		})
	reg.Gauge("ssa_server_window_inflight",
		"occupied in-flight window slots across connections", func() float64 {
			var n int
			s.mu.Lock()
			for c := range s.active {
				n += len(c.slots) - len(c.free)
			}
			s.mu.Unlock()
			return float64(n)
		})
	s.acceptWG.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Registry returns the telemetry registry shared by every layer under
// this server (engine, stream, connection) — what auctionsim's
// -metrics-addr endpoint renders.
func (s *Server) Registry() *obs.Registry {
	return s.st.Engine().Metrics().Registry
}

// Handshake-reject counter lanes.
const (
	hsDraining = iota
	hsFull
)

// frameKindNames label the mFrames lanes; frameKindLane maps a request
// kind to its lane (the last lane collects unknown kinds).
var frameKindNames = []string{
	"auction", "text", "stats",
	"reset", "add", "remove", "drain", "other",
}

func frameKindLane(k wire.Kind) int {
	switch k {
	case wire.KindAuction:
		return 0
	case wire.KindText:
		return 1
	case wire.KindStats:
		return 2
	case wire.KindReset:
		return 3
	case wire.KindAdd:
		return 4
	case wire.KindRemove:
		return 5
	case wire.KindDrain:
		return 6
	default:
		return 7
	}
}

// Addr returns the bound listen address (with the real port when
// addr was ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stream exposes the wrapped stream.Server — for inspection
// (Engine(), Ledger()) after drain, or for in-process submission
// alongside networked traffic.
func (s *Server) Stream() *stream.Server { return s.st }

// Drained returns a channel closed when a graceful drain — wire
// KindDrain or Close — has completed: intake stopped and every
// queued auction served. auctionsim -serve blocks on this.
func (s *Server) Drained() <-chan struct{} { return s.drainedCh }

// Counters returns the connection layer's admission counters. The
// identity submitted == served + shed + rejected is exact once Close
// has returned; live reads may observe in-flight requests between
// counts.
func (s *Server) Counters() (submitted, served, shed, rejected, unrouted int64) {
	return s.mSubmitted.Value(), s.mServed.Value(), s.mShed.Value(),
		s.mRejected.Value(), s.mUnrouted.Value()
}

func (s *Server) acceptLoop() {
	defer s.acceptWG.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed by drain/Close
		}
		s.connWG.Add(1)
		go s.handleConn(nc)
	}
}

// handleConn performs the handshake — admission happens here, before
// any frame is read — then runs the connection's serve loops.
func (s *Server) handleConn(nc net.Conn) {
	defer s.connWG.Done()
	hsDeadline := time.Now().Add(s.cfg.handshakeTimeout())
	nc.SetDeadline(hsDeadline)
	var magic [len(wire.Magic)]byte
	if _, err := io.ReadFull(nc, magic[:]); err != nil || string(magic[:]) != wire.Magic {
		nc.Close()
		return
	}
	status := wire.HandshakeOK
	n := s.conns.Add(1)
	switch {
	case s.draining.Load():
		status = wire.HandshakeDraining
	case n > int64(s.cfg.maxConns()):
		status = wire.HandshakeFull
	}
	var hs [len(wire.Magic) + 1]byte
	copy(hs[:], wire.Magic)
	hs[len(wire.Magic)] = status
	if _, err := nc.Write(hs[:]); err != nil {
		status = wire.HandshakeFull // any failure: do not admit
	}
	if status != wire.HandshakeOK {
		switch status {
		case wire.HandshakeDraining:
			s.mHandshake.Inc(hsDraining)
		case wire.HandshakeFull:
			s.mHandshake.Inc(hsFull)
		}
		s.conns.Add(-1)
		nc.Close()
		return
	}
	nc.SetDeadline(time.Time{})
	defer s.conns.Add(-1)

	c := newConn(s, nc)
	s.mu.Lock()
	s.active[c] = struct{}{}
	s.mu.Unlock()
	c.run()
	s.mu.Lock()
	delete(s.active, c)
	s.mu.Unlock()
}

// beginDrain executes the graceful drain exactly once: stop
// accepting, mark draining (new auction requests are counted
// Submitted+Rejected), then close the stream layer — which serves
// every queued auction and fires every slot callback before
// returning — and publish the final stream stats.
func (s *Server) beginDrain() {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		s.ln.Close()
		s.final = s.st.Close()
		close(s.drainedCh)
	})
}

// Close gracefully drains and tears the server down: accept stops,
// the stream layer drains, every connection's pending responses are
// written (bounded by DrainWriteTimeout), and all connection
// goroutines join. Idempotent; returns the final stream stats.
func (s *Server) Close() *stream.Stats {
	s.closeOnce.Do(func() {
		s.beginDrain()
		// Unblock idle read loops; give writers a bounded window to
		// flush pending responses to slow clients.
		wdl := time.Now().Add(s.cfg.drainWriteTimeout())
		s.mu.Lock()
		for c := range s.active {
			c.nc.SetWriteDeadline(wdl)
			if tc, ok := c.nc.(*net.TCPConn); ok {
				tc.CloseRead()
			} else {
				c.nc.SetReadDeadline(time.Now())
			}
		}
		s.mu.Unlock()
		s.acceptWG.Wait()
		s.connWG.Wait()
	})
	return s.final
}

// streamStats snapshots the stream layer — live before a drain, the
// final drained snapshot after.
func (s *Server) streamStats() *stream.Stats {
	if s.draining.Load() {
		// After beginDrain, st.Close's snapshot is authoritative. The
		// drainedCh gate avoids racing the drain itself.
		select {
		case <-s.drainedCh:
			return s.final
		default:
		}
	}
	return s.st.Stats()
}

// fillStats assembles the wire stats snapshot: the connection and
// stream counters plus the serving latency histogram (control path:
// the snapshots and the bucket slice allocate).
func (s *Server) fillStats(ws *wire.ServerStats) {
	ws.Submitted, ws.Served, ws.Shed, ws.Rejected, ws.Unrouted = s.Counters()
	ws.Conns = s.conns.Load()
	st := s.streamStats()
	ws.StreamSubmitted = st.Submitted
	ws.StreamServed = st.Served
	ws.StreamShed = st.Shed
	ws.StreamPending = st.Pending
	ws.Revenue = st.Revenue
	ws.Clicks = int64(st.Clicks)
	ws.Filled = int64(st.Filled)
	ws.TotalSlots = int64(st.TotalSlots)
	ws.Epoch = int64(st.Epoch)
	ws.Advertisers = int64(st.Advertisers)
	ws.BudgetSpent = st.BudgetSpent
	ws.BudgetExhausted = int64(st.BudgetExhausted)
	ws.BudgetDenied = st.BudgetDenied
	ws.WindowThroughput = st.WindowThroughput
	var hs obs.HistSnapshot
	s.st.Engine().Metrics().Latency.SnapshotInto(&hs)
	ws.SetLatency(&hs)
}

var (
	errUnknownKind  = errors.New("server: unknown request kind")
	errKeywordRange = errors.New("keyword out of range")
)
