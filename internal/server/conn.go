package server

import (
	"bufio"
	"net"
	"sync"

	"repro/internal/engine"
	"repro/internal/stream"
	"repro/internal/wire"
)

// ctlSlots is the number of reusable control-response buffers per
// connection: stats, acks, rejections, and errors flow through these
// so even the reject path allocates nothing in steady state. Control
// responses are rare; the read loop blocks briefly if all are in
// flight.
const ctlSlots = 8

// slot is one in-flight auction request: its echoed ID, its reused
// encode buffer, and the preallocated completion callback handed to
// the stream layer.
type slot struct {
	id  uint64
	buf []byte
	cb  func(*engine.Outcome)
}

// conn is one admitted connection: a read loop decoding and
// dispatching requests, a writer goroutine draining finished slots,
// and the fixed slot window between them.
type conn struct {
	srv *Server
	nc  net.Conn
	fr  *wire.FrameReader
	bw  *bufio.Writer

	req wire.Request // reused decode target (read loop only)

	slots []slot
	free  chan int32 // released slot indexes

	ctlBufs [][]byte   // reusable control-response buffers
	ctlFree chan int32 // released control indexes

	// out carries finished responses to the writer: slot index i ≥ 0,
	// or control buffer j encoded as -(j+1). Its capacity is
	// window+ctlSlots — one outstanding completion per slot or
	// control buffer — so no sender (shard goroutine or read loop)
	// can ever block on it.
	out chan int32

	// pending counts acquired-but-unwritten responses: the read loop
	// alone Adds (at slot/control acquisition, before any completion
	// can fire) and the writer alone Dones (after release), so run's
	// Wait is exact.
	pending    sync.WaitGroup
	writerDone chan struct{}
}

func newConn(s *Server, nc net.Conn) *conn {
	w := s.cfg.window()
	c := &conn{
		srv:        s,
		nc:         nc,
		fr:         wire.NewFrameReader(bufio.NewReaderSize(nc, 64<<10), c0maxFrame(s)),
		bw:         bufio.NewWriterSize(nc, 64<<10),
		slots:      make([]slot, w),
		free:       make(chan int32, w),
		ctlBufs:    make([][]byte, ctlSlots),
		ctlFree:    make(chan int32, ctlSlots),
		out:        make(chan int32, w+ctlSlots),
		writerDone: make(chan struct{}),
	}
	for i := range c.slots {
		sl, si := &c.slots[i], int32(i)
		sl.cb = func(out *engine.Outcome) {
			sl.buf = wire.AppendOutcomeResp(sl.buf[:0], sl.id, out)
			c.srv.mServed.Inc(0)
			c.out <- si
		}
		c.free <- si
	}
	for j := 0; j < ctlSlots; j++ {
		c.ctlFree <- int32(j)
	}
	return c
}

func c0maxFrame(s *Server) int {
	if s.cfg.MaxFrame > 0 {
		return s.cfg.MaxFrame
	}
	return wire.MaxFrame
}

// run drives the connection to completion: the read loop returns on
// EOF, protocol error, or server teardown (CloseRead); then every
// acquired response is awaited, the writer drains and flushes, and
// the socket closes.
func (c *conn) run() {
	go c.writeLoop()
	c.readLoop()
	c.pending.Wait() // all in-flight completions written & released
	close(c.out)
	<-c.writerDone
	c.nc.Close()
}

func (c *conn) readLoop() {
	for {
		p, err := c.fr.Next()
		if err != nil {
			return // EOF, torn frame, bad CRC, or teardown
		}
		if err := c.req.Decode(p); err != nil {
			// The stream position is untrustworthy after a decode
			// error: best-effort error response, then terminate.
			c.reply(c.req.ID, wire.KindError, 0, err)
			return
		}
		if !c.handle() {
			return
		}
	}
}

// handle dispatches one decoded request; false terminates the
// connection (protocol violations only — application errors answer
// KindError and keep the connection).
func (c *conn) handle() bool {
	req, s := &c.req, c.srv
	s.mFrames.Inc(frameKindLane(req.Kind))
	switch req.Kind {
	case wire.KindAuction:
		if req.Q < 0 || req.Q >= s.keywords {
			c.reply(req.ID, wire.KindError, 0, errKeywordRange)
			break
		}
		c.auction()
	case wire.KindText:
		c.auction()
	case wire.KindStats:
		c.reply(req.ID, wire.KindStatsResult, 0, nil)
	case wire.KindReset:
		c.reply(req.ID, wire.KindOK, 0, s.st.ResetBudgets())
	case wire.KindAdd:
		idx, err := s.st.AddAdvertiser(req.Adv)
		c.reply(req.ID, wire.KindAdded, idx, err)
	case wire.KindRemove:
		c.reply(req.ID, wire.KindOK, 0, s.st.RemoveAdvertiser(req.Q))
	case wire.KindDrain:
		// Blocks until every queued auction (this connection's
		// included — their completions flow through the writer, not
		// this goroutine) has been served, then answers with the
		// final stats.
		s.beginDrain()
		c.reply(req.ID, wire.KindStatsResult, 0, nil)
	default:
		c.reply(req.ID, wire.KindError, 0, errUnknownKind)
		return false
	}
	return true
}

// acquire takes a response slot, honoring the overload policy: Block
// waits (TCP backpressure), Shed returns -1 immediately on a full
// window.
func (c *conn) acquire() int32 {
	if c.srv.shed {
		select {
		case si := <-c.free:
			c.pending.Add(1)
			return si
		default:
			return -1
		}
	}
	si := <-c.free
	c.pending.Add(1)
	return si
}

// reply queues one control response for the writer through a free
// control buffer — the only path a response takes that is not an
// auction's own slot. kind is KindOK, KindAdded (v is the new index),
// KindRejected (v is the reason) or KindStatsResult (a fresh
// snapshot); a non-nil err answers KindError with its message
// instead.
func (c *conn) reply(id uint64, kind wire.Kind, v int, err error) {
	ci := <-c.ctlFree
	c.pending.Add(1)
	b := c.ctlBufs[ci][:0]
	switch {
	case err != nil:
		b = wire.AppendErrorResp(b, id, err.Error())
	case kind == wire.KindAdded:
		b = wire.AppendAddedResp(b, id, v)
	case kind == wire.KindRejected:
		b = wire.AppendRejectedResp(b, id, wire.RejectReason(v))
	case kind == wire.KindStatsResult:
		var ws wire.ServerStats
		c.srv.fillStats(&ws)
		b = wire.AppendStatsResp(b, id, &ws)
	default:
		b = wire.AppendEmpty(b, kind, id)
	}
	c.ctlBufs[ci] = b
	c.out <- -(ci + 1)
}

// auction serves the decoded KindAuction or KindText request: refuse
// it at the connection layer (draining, or a full window under Shed),
// else hand it to the stream layer with a slot's callback and answer
// whatever the stream layer did not queue from that slot. Every
// request counts Submitted and then exactly one of Served (the slot
// callback), Shed or Rejected — except unrouted text, which counts
// Unrouted and never Submitted, mirroring the stream layer.
func (c *conn) auction() {
	s, req := c.srv, &c.req
	si, reason := int32(-1), wire.ReasonDraining
	if !s.draining.Load() {
		si, reason = c.acquire(), wire.ReasonWindow
	}
	if si < 0 { // refused at the connection layer
		s.mSubmitted.Inc(0)
		s.mRejected.Inc(0)
		c.reply(req.ID, wire.KindRejected, int(reason), nil)
		return
	}
	sl := &c.slots[si]
	sl.id = req.ID
	var res stream.SubmitResult
	if req.Kind == wire.KindText {
		res = s.st.SubmitTextFunc(string(req.Text), sl.cb)
	} else {
		res = s.st.SubmitFunc(req.Q, sl.cb)
	}
	if res != stream.SubmitUnrouted {
		s.mSubmitted.Inc(0)
	}
	switch res {
	case stream.SubmitQueued:
		return // sl.cb answers from the shard goroutine.
	case stream.SubmitShed:
		s.mShed.Inc(0)
		sl.buf = wire.AppendEmpty(sl.buf[:0], wire.KindShed, req.ID)
	case stream.SubmitClosed:
		s.mRejected.Inc(0)
		sl.buf = wire.AppendRejectedResp(sl.buf[:0], req.ID, wire.ReasonClosed)
	case stream.SubmitUnrouted:
		s.mUnrouted.Inc(0)
		sl.buf = wire.AppendEmpty(sl.buf[:0], wire.KindUnrouted, req.ID)
	}
	c.out <- si
}

// writeLoop drains finished responses, flushing whenever the
// completion channel momentarily empties (classic batched-writer
// shape). A write error goes sticky: remaining completions still
// drain and release their slots — accounting and teardown never
// depend on the client reading.
func (c *conn) writeLoop() {
	defer close(c.writerDone)
	var werr error
	for {
		var idx int32
		var ok bool
		select {
		case idx, ok = <-c.out:
		default:
			if werr == nil {
				werr = c.bw.Flush()
			}
			idx, ok = <-c.out
		}
		if !ok {
			if werr == nil {
				c.bw.Flush()
			}
			return
		}
		var buf []byte
		if idx >= 0 {
			buf = c.slots[idx].buf
		} else {
			buf = c.ctlBufs[-(idx + 1)]
		}
		if werr == nil {
			if _, err := c.bw.Write(buf); err != nil {
				werr = err
			}
		}
		if idx >= 0 {
			c.free <- idx
		} else {
			c.ctlFree <- -(idx + 1)
		}
		c.pending.Done()
	}
}
