// Package client is the Go driver for the networked serving tier: a
// Conn dials internal/server's wire protocol, pipelines requests over
// one TCP connection, and surfaces every serving disposition as a
// typed error.
//
// # Concurrency model
//
// A Conn is safe for concurrent use: pipelining comes from many
// goroutines issuing synchronous calls over the same connection. Each
// call takes one of Window request slots (the slot index is the wire
// request ID, so correlation is a direct array index — no map, no
// allocation), encodes under the write lock, and parks on its slot's
// channel until the single reader goroutine decodes the matching
// response. Slot payloads decode into per-slot reused buffers and the
// results are copied into caller-owned storage (AuctionInto) before
// the slot is released, so a warm caller's auction loop allocates
// nothing end to end — the guarantee TestServerSteadyStateAllocs
// gates through the full client → server → client path. Every public
// call is a thin wrapper over one private call path.
//
// # Failure model
//
// The connection fails as a unit: a write error, torn frame, checksum
// mismatch, protocol violation, or response timeout marks the Conn
// down with a sticky error, fails every in-flight and subsequent call
// with it, and closes the socket. Per-request dispositions that are
// not failures of the connection — shed, rejected, unrouted — are
// typed sentinel errors (ErrShed, ErrRejected, ErrUnrouted) the
// load-generator counts rather than fears. One mapping turns a
// response into a call's result, the same for every call: its success
// kind, a disposition sentinel, the server's KindError message, or an
// error naming a kind the call does not expect.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Typed errors. Dial failures: ErrServerFull, ErrDraining. Per-call
// dispositions: ErrShed, ErrRejected (wrapped with the reason),
// ErrUnrouted. Connection failures: ErrClosed, ErrTimeout (both
// sticky once set).
var (
	ErrServerFull = errors.New("client: server at connection cap")
	ErrDraining   = errors.New("client: server draining")
	ErrShed       = errors.New("client: query shed by overload policy")
	ErrRejected   = errors.New("client: rejected at connection layer")
	ErrUnrouted   = errors.New("client: text matched no keyword")
	ErrClosed     = errors.New("client: connection closed")
	ErrTimeout    = errors.New("client: response timeout")
)

// Options tunes a Conn.
type Options struct {
	// Window is the pipelining depth: the number of request slots,
	// and so the number of concurrent calls one Conn supports
	// (default 32). Callers beyond it block for a free slot.
	Window int
	// Timeout bounds the wait for any response while calls are in
	// flight; exceeding it fails the connection with ErrTimeout.
	// Zero means no timeout. Note a Drain call legitimately waits for
	// the server's full queue drain — use a generous timeout or a
	// dedicated Conn for control traffic.
	Timeout time.Duration
	// MaxFrame bounds accepted response frames (default
	// wire.MaxFrame).
	MaxFrame int
	// DialTimeout bounds the TCP connect + handshake (default 10s).
	DialTimeout time.Duration
	// RTT, when non-nil, receives the end-to-end latency of every
	// successful auction-carrying call (AuctionInto/TextInto), from
	// send to decoded response, in nanoseconds. A histogram may be
	// shared by many Conns (its writes are atomic); nil skips the
	// time.Now calls entirely. Register it in an obs.Registry to
	// expose it.
	RTT *obs.Histogram
}

func (o *Options) window() int {
	if o.Window > 0 {
		return o.Window
	}
	return 32
}

func (o *Options) dialTimeout() time.Duration {
	if o.DialTimeout > 0 {
		return o.DialTimeout
	}
	return 10 * time.Second
}

// slot is one in-flight request: the caller parks on done; the reader
// decodes into resp (reused buffers) and signals.
type slot struct {
	done     chan struct{}
	resp     wire.Response
	inflight atomic.Bool
}

// Conn is one connection to a serving tier. Construct with Dial.
type Conn struct {
	nc   net.Conn
	opts Options
	fr   *wire.FrameReader

	wmu sync.Mutex // guards bw and enc
	bw  *bufio.Writer
	enc []byte

	slots []slot
	free  chan int32

	tmu     sync.Mutex // guards pending and the read deadline (track)
	pending int        // calls awaiting a response

	emu  sync.Mutex
	err  error
	down chan struct{} // closed when the sticky error is set

	readerDone chan struct{}
}

// Dial connects, performs the magic handshake, and starts the reader.
// A server at its connection cap fails with ErrServerFull, a draining
// server with ErrDraining.
func Dial(addr string, opts Options) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, opts.dialTimeout())
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	nc.SetDeadline(time.Now().Add(opts.dialTimeout()))
	if _, err := nc.Write([]byte(wire.Magic)); err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: handshake write: %w", err)
	}
	var hs [len(wire.Magic) + 1]byte
	if _, err := io.ReadFull(nc, hs[:]); err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: handshake read: %w", err)
	}
	if string(hs[:len(wire.Magic)]) != wire.Magic {
		nc.Close()
		return nil, fmt.Errorf("client: handshake: peer speaks %q, this client speaks %q", hs[:len(wire.Magic)], wire.Magic)
	}
	switch hs[len(wire.Magic)] {
	case wire.HandshakeOK:
	case wire.HandshakeFull:
		nc.Close()
		return nil, ErrServerFull
	case wire.HandshakeDraining:
		nc.Close()
		return nil, ErrDraining
	default:
		nc.Close()
		return nil, fmt.Errorf("client: unknown handshake status %d", hs[len(wire.Magic)])
	}
	nc.SetDeadline(time.Time{})

	w := opts.window()
	c := &Conn{
		nc:         nc,
		opts:       opts,
		fr:         wire.NewFrameReader(bufio.NewReaderSize(nc, 64<<10), opts.MaxFrame),
		bw:         bufio.NewWriterSize(nc, 64<<10),
		slots:      make([]slot, w),
		free:       make(chan int32, w),
		down:       make(chan struct{}),
		readerDone: make(chan struct{}),
	}
	for i := range c.slots {
		c.slots[i].done = make(chan struct{}, 1)
		c.free <- int32(i)
	}
	go c.readLoop()
	return c, nil
}

// Err returns the sticky connection error, nil while healthy.
func (c *Conn) Err() error {
	c.emu.Lock()
	defer c.emu.Unlock()
	return c.err
}

// fatal sets the sticky error once, wakes all waiters, and closes the
// socket.
func (c *Conn) fatal(err error) {
	c.emu.Lock()
	if c.err == nil {
		c.err = err
		close(c.down)
	}
	c.emu.Unlock()
	c.nc.Close()
}

// Close marks the connection closed and tears it down. In-flight
// calls fail with ErrClosed. Always returns nil.
func (c *Conn) Close() error {
	c.fatal(ErrClosed)
	<-c.readerDone
	return nil
}

func (c *Conn) readLoop() {
	defer close(c.readerDone)
	for {
		p, err := c.fr.Next()
		if err != nil {
			switch {
			case errors.Is(err, io.EOF):
				c.fatal(fmt.Errorf("%w: server closed the connection", ErrClosed))
			case isTimeout(err):
				c.fatal(fmt.Errorf("%w: no response within %v", ErrTimeout, c.opts.Timeout))
			default:
				c.fatal(err)
			}
			return
		}
		_, id, err := wire.PeekID(p)
		if err != nil || id >= uint64(len(c.slots)) {
			c.fatal(fmt.Errorf("client: response correlation: bad request id %d", id))
			return
		}
		sl := &c.slots[id]
		if !sl.inflight.Load() {
			c.fatal(fmt.Errorf("client: response for idle slot %d", id))
			return
		}
		if err := sl.resp.Decode(p); err != nil {
			c.fatal(err)
			return
		}
		sl.inflight.Store(false)
		sl.done <- struct{}{}
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// call is the one request path every public call wraps: take a slot,
// encode the request with enc and send it, wait for the response, map
// its kind (result), let use copy the success payload out of the
// slot's reused buffers, and release the slot. want is the call's
// success kind; KindOutcome marks an auction-carrying call, whose
// round trip Options.RTT records.
func (c *Conn) call(want wire.Kind, enc func(dst []byte, id uint64) []byte, use func(*wire.Response)) error {
	si, err := c.acquire()
	if err != nil {
		return err
	}
	rtt := want == wire.KindOutcome && c.opts.RTT != nil
	var t0 time.Time
	if rtt {
		t0 = time.Now()
	}
	if err := c.send(si, enc); err != nil {
		return err
	}
	c.track(1)
	resp, err := c.wait(si)
	if err != nil {
		return err
	}
	c.track(-1)
	if rtt {
		c.opts.RTT.Record(time.Since(t0).Nanoseconds())
	}
	defer c.release(si)
	if err := result(resp, want); err != nil {
		return err
	}
	if use != nil {
		use(resp)
	}
	return nil
}

// acquire blocks for a free slot (or the connection's death).
func (c *Conn) acquire() (int32, error) {
	select {
	case si := <-c.free:
		return si, nil
	case <-c.down:
		return 0, c.Err()
	}
}

// send encodes under the write lock via enc (a frame appender over
// the shared buffer) and flushes.
func (c *Conn) send(si int32, enc func(dst []byte, id uint64) []byte) error {
	c.slots[si].inflight.Store(true)
	c.wmu.Lock()
	c.enc = enc(c.enc[:0], uint64(si))
	_, err := c.bw.Write(c.enc)
	if err == nil {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		c.fatal(fmt.Errorf("client: write: %w", err))
		return c.Err()
	}
	return nil
}

// track counts a sent call in (+1) or an answered one out (-1) and
// moves the read deadline with the count, under one lock: every call
// sent re-arms it Timeout ahead, and the answer that leaves none
// waiting clears it. Changing the two together is what keeps a
// completion from clearing the deadline a concurrent call has just
// armed. Without a Timeout it touches neither.
func (c *Conn) track(delta int) {
	if c.opts.Timeout <= 0 {
		return
	}
	c.tmu.Lock()
	defer c.tmu.Unlock()
	c.pending += delta
	switch {
	case delta > 0:
		// Concurrent SetReadDeadline re-arms even a blocked read.
		c.nc.SetReadDeadline(time.Now().Add(c.opts.Timeout))
	case c.pending == 0:
		c.nc.SetReadDeadline(time.Time{})
	}
}

// wait parks until the slot's response arrives; the caller must copy
// what it needs from the returned Response before calling release.
func (c *Conn) wait(si int32) (*wire.Response, error) {
	sl := &c.slots[si]
	select {
	case <-sl.done:
	case <-c.down:
		// The reader may have signaled done concurrently with the
		// connection dying; drain the signal so the slot channel
		// stays clean, then fail the call either way.
		select {
		case <-sl.done:
		default:
		}
		return nil, c.Err()
	}
	return &sl.resp, nil
}

func (c *Conn) release(si int32) {
	c.free <- si
}

// Inflight reports the number of occupied request slots — the window
// occupancy a telemetry gauge over one or many Conns sums. Safe to
// call concurrently with serving calls.
func (c *Conn) Inflight() int {
	return len(c.slots) - len(c.free)
}

// result maps a response to its call's documented result: nil for the
// call's success kind want, ErrShed, ErrRejected wrapped with the
// reason, ErrUnrouted, the server's message for KindError, and an
// error naming any other kind. None of them fails the connection.
func result(resp *wire.Response, want wire.Kind) error {
	switch resp.Kind {
	case want:
		return nil
	case wire.KindShed:
		return ErrShed
	case wire.KindRejected:
		return rejectedErr(resp.Reason)
	case wire.KindUnrouted:
		return ErrUnrouted
	case wire.KindError:
		return fmt.Errorf("client: server error: %s", resp.Msg)
	default:
		return fmt.Errorf("client: unexpected response kind 0x%02x", uint8(resp.Kind))
	}
}

// rejectedErr maps a KindRejected reason into ErrRejected-wrapped
// sentinels without allocating for the common reasons.
var (
	errRejWindow   = fmt.Errorf("%w: %s", ErrRejected, wire.ReasonWindow)
	errRejDraining = fmt.Errorf("%w: %s", ErrRejected, wire.ReasonDraining)
	errRejClosed   = fmt.Errorf("%w: %s", ErrRejected, wire.ReasonClosed)
)

func rejectedErr(r wire.RejectReason) error {
	switch r {
	case wire.ReasonWindow:
		return errRejWindow
	case wire.ReasonDraining:
		return errRejDraining
	case wire.ReasonClosed:
		return errRejClosed
	default:
		return fmt.Errorf("%w: %s", ErrRejected, r)
	}
}

// AuctionInto runs one auction for keyword q and deep-copies the
// outcome into out (reusing its slices): the allocation-free serving
// call. Dispositions: nil with the outcome filled, ErrShed,
// ErrRejected, or a sticky connection error.
func (c *Conn) AuctionInto(q int, out *wire.Outcome) error {
	return c.call(wire.KindOutcome, func(dst []byte, id uint64) []byte {
		return wire.AppendAuctionReq(dst, id, q)
	}, func(r *wire.Response) { out.CopyFrom(&r.Out) })
}

// TextInto routes free text server-side and runs the matched
// keyword's auction; ErrUnrouted when no keyword matches.
func (c *Conn) TextInto(query string, out *wire.Outcome) error {
	return c.call(wire.KindOutcome, func(dst []byte, id uint64) []byte {
		return wire.AppendTextReq(dst, id, query)
	}, func(r *wire.Response) { out.CopyFrom(&r.Out) })
}

// Stats snapshots the server's connection-layer counters, the stream
// layer beneath, and the serving latency histogram (rebuild it with
// ServerStats.Latency for any percentile). The returned Buckets slice
// is caller-owned.
func (c *Conn) Stats() (wire.ServerStats, error) {
	return c.stats(wire.KindStats)
}

// Drain asks the server to gracefully drain — intake stops, every
// queued auction is served — and returns the final stats, the same
// frame Stats returns. The call legitimately blocks for the full
// drain.
func (c *Conn) Drain() (wire.ServerStats, error) {
	return c.stats(wire.KindDrain)
}

func (c *Conn) stats(kind wire.Kind) (st wire.ServerStats, err error) {
	err = c.call(wire.KindStatsResult, func(dst []byte, id uint64) []byte {
		return wire.AppendEmpty(dst, kind, id)
	}, func(r *wire.Response) {
		st = r.Stats
		// The decode reuses the slot's bucket slice; copy out.
		st.Buckets = append([]wire.HistBucket(nil), st.Buckets...)
	})
	return st, err
}

// ResetBudgets issues the "next day" budget-reset fence via the wire.
func (c *Conn) ResetBudgets() error {
	return c.call(wire.KindOK, func(dst []byte, id uint64) []byte {
		return wire.AppendEmpty(dst, wire.KindReset, id)
	}, nil)
}

// AddAdvertiser admits a into the live population (an epoch-fence
// churn via the wire) and returns the new advertiser index.
func (c *Conn) AddAdvertiser(a *workload.Advertiser) (idx int, err error) {
	err = c.call(wire.KindAdded, func(dst []byte, id uint64) []byte {
		return wire.AppendAddReq(dst, id, a)
	}, func(r *wire.Response) { idx = r.Index })
	return idx, err
}

// RemoveAdvertiser evicts advertiser i via the wire.
func (c *Conn) RemoveAdvertiser(i int) error {
	return c.call(wire.KindOK, func(dst []byte, id uint64) []byte {
		return wire.AppendRemoveReq(dst, id, i)
	}, nil)
}
