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
// stream.SubmitFunc. For KindBatch, one slot covers the whole batch
// and the batch fields aggregate under bmu.
type slot struct {
	c   *conn
	idx int32
	id  uint64
	buf []byte
	cb  func(*engine.Outcome) // single-auction completion
	bcb func(*engine.Outcome) // batch per-query completion

	bmu        chan struct{} // 1-buffered semaphore guarding the batch fields
	bTotal     int
	bDone      int
	bSubmitted bool
	batch      wire.BatchResult
}

func (sl *slot) lock()   { sl.bmu <- struct{}{} }
func (sl *slot) unlock() { <-sl.bmu }

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
		sl := &c.slots[i]
		sl.c = c
		sl.idx = int32(i)
		sl.bmu = make(chan struct{}, 1)
		sl.cb = func(out *engine.Outcome) {
			sl.buf = wire.AppendOutcomeResp(sl.buf[:0], sl.id, out)
			c.srv.mServed.Inc(0)
			c.out <- sl.idx
		}
		sl.bcb = func(out *engine.Outcome) {
			c.srv.mServed.Inc(0)
			sl.lock()
			sl.batch.Served++
			sl.batch.Revenue += out.Revenue
			for _, cl := range out.Clicked {
				if cl {
					sl.batch.Clicks++
				}
			}
			sl.bDone++
			fin := sl.bSubmitted && sl.bDone == sl.bTotal
			sl.unlock()
			if fin {
				c.finishBatch(sl)
			}
		}
		c.free <- int32(i)
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
			c.ctlError(c.req.ID, err.Error())
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
	req := &c.req
	c.srv.mFrames.Inc(frameKindLane(req.Kind))
	switch req.Kind {
	case wire.KindAuction:
		c.auction(req.ID, req.Q)
	case wire.KindText:
		c.text(req.ID, req.Text)
	case wire.KindBatch:
		c.batch(req.ID, req.Qs)
	case wire.KindStats:
		c.ctlStats(req.ID)
	case wire.KindReset:
		if err := c.srv.st.ResetBudgets(); err != nil {
			c.ctlError(req.ID, err.Error())
		} else {
			c.ctlOK(req.ID)
		}
	case wire.KindAdd:
		idx, err := c.srv.st.AddAdvertiser(c.req.Adv)
		if err != nil {
			c.ctlError(req.ID, err.Error())
			break
		}
		ci := c.ctlAcquire()
		c.ctlBufs[ci] = wire.AppendAddedResp(c.ctlBufs[ci][:0], req.ID, idx)
		c.out <- -(ci + 1)
	case wire.KindRemove:
		if err := c.srv.st.RemoveAdvertiser(req.Q); err != nil {
			c.ctlError(req.ID, err.Error())
		} else {
			c.ctlOK(req.ID)
		}
	case wire.KindDrain:
		// Blocks until every queued auction (this connection's
		// included — their completions flow through the writer, not
		// this goroutine) has been served, then answers with the
		// final stats.
		c.srv.beginDrain()
		c.ctlStats(req.ID)
	default:
		c.ctlError(req.ID, errUnknownKind.Error())
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

func (c *conn) ctlAcquire() int32 {
	ci := <-c.ctlFree
	c.pending.Add(1)
	return ci
}

func (c *conn) ctlOK(id uint64) {
	ci := c.ctlAcquire()
	c.ctlBufs[ci] = wire.AppendOKResp(c.ctlBufs[ci][:0], id)
	c.out <- -(ci + 1)
}

func (c *conn) ctlStats(id uint64) {
	ci := c.ctlAcquire()
	var ws wire.ServerStats
	c.srv.fillStats(&ws)
	c.ctlBufs[ci] = wire.AppendStatsResp(c.ctlBufs[ci][:0], id, &ws)
	c.out <- -(ci + 1)
}

func (c *conn) ctlError(id uint64, msg string) {
	ci := c.ctlAcquire()
	c.ctlBufs[ci] = wire.AppendErrorResp(c.ctlBufs[ci][:0], id, msg)
	c.out <- -(ci + 1)
}

func (c *conn) ctlRejected(id uint64, reason wire.RejectReason) {
	ci := c.ctlAcquire()
	c.ctlBufs[ci] = wire.AppendRejectedResp(c.ctlBufs[ci][:0], id, reason)
	c.out <- -(ci + 1)
}

// auction serves one KindAuction: count Submitted, take a window
// slot, hand the query to the stream layer with the slot's callback.
func (c *conn) auction(id uint64, q int) {
	s := c.srv
	if q < 0 || q >= s.keywords {
		c.ctlError(id, "keyword out of range")
		return
	}
	s.mSubmitted.Inc(0)
	if s.draining.Load() {
		s.mRejected.Inc(0)
		c.ctlRejected(id, wire.ReasonDraining)
		return
	}
	si := c.acquire()
	if si < 0 {
		s.mRejected.Inc(0)
		c.ctlRejected(id, wire.ReasonWindow)
		return
	}
	sl := &c.slots[si]
	sl.id = id
	switch s.st.SubmitFunc(q, sl.cb) {
	case stream.SubmitQueued:
		// sl.cb answers from the shard goroutine.
	case stream.SubmitShed:
		s.mShed.Inc(0)
		sl.buf = wire.AppendShedResp(sl.buf[:0], id)
		c.out <- si
	case stream.SubmitClosed:
		s.mRejected.Inc(0)
		sl.buf = wire.AppendRejectedResp(sl.buf[:0], id, wire.ReasonClosed)
		c.out <- si
	}
}

// text serves one KindText: route first (an unrouted query is counted
// Unrouted, never Submitted — mirroring the stream layer), then the
// auction path.
func (c *conn) text(id uint64, query []byte) {
	s := c.srv
	if s.draining.Load() {
		// During drain every text request is rejected at the
		// connection layer, routed or not.
		s.mSubmitted.Inc(0)
		s.mRejected.Inc(0)
		c.ctlRejected(id, wire.ReasonDraining)
		return
	}
	si := c.acquire()
	if si < 0 {
		s.mSubmitted.Inc(0)
		s.mRejected.Inc(0)
		c.ctlRejected(id, wire.ReasonWindow)
		return
	}
	sl := &c.slots[si]
	sl.id = id
	res := s.st.SubmitTextFunc(string(query), sl.cb)
	if res != stream.SubmitUnrouted {
		s.mSubmitted.Inc(0)
	}
	switch res {
	case stream.SubmitQueued:
	case stream.SubmitShed:
		s.mShed.Inc(0)
		sl.buf = wire.AppendShedResp(sl.buf[:0], id)
		c.out <- si
	case stream.SubmitClosed:
		s.mRejected.Inc(0)
		sl.buf = wire.AppendRejectedResp(sl.buf[:0], id, wire.ReasonClosed)
		c.out <- si
	case stream.SubmitUnrouted:
		s.mUnrouted.Inc(0)
		sl.buf = wire.AppendUnroutedResp(sl.buf[:0], id)
		c.out <- si
	}
}

// batch serves one KindBatch under a single window slot: each query
// is counted and dispatched individually (so the accounting identity
// is per query, exactly as for single auctions), and the response
// aggregates once the last query resolves. Completion is detected
// with the submitted-all flag: the last resolver — a shard callback
// or this read loop — observes bDone == bTotal with bSubmitted set
// and encodes the response; exactly one finisher wins.
func (c *conn) batch(id uint64, qs []int) {
	s := c.srv
	for _, q := range qs {
		if q < 0 || q >= s.keywords {
			c.ctlError(id, "keyword out of range")
			return
		}
	}
	if s.draining.Load() {
		s.mSubmitted.Add(0, int64(len(qs)))
		s.mRejected.Add(0, int64(len(qs)))
		ci := c.ctlAcquire()
		br := wire.BatchResult{Requested: len(qs), Rejected: len(qs)}
		c.ctlBufs[ci] = wire.AppendBatchResp(c.ctlBufs[ci][:0], id, &br)
		c.out <- -(ci + 1)
		return
	}
	si := c.acquire()
	if si < 0 {
		s.mSubmitted.Add(0, int64(len(qs)))
		s.mRejected.Add(0, int64(len(qs)))
		ci := c.ctlAcquire()
		br := wire.BatchResult{Requested: len(qs), Rejected: len(qs)}
		c.ctlBufs[ci] = wire.AppendBatchResp(c.ctlBufs[ci][:0], id, &br)
		c.out <- -(ci + 1)
		return
	}
	sl := &c.slots[si]
	sl.id = id
	sl.lock()
	sl.bTotal = len(qs)
	sl.bDone = 0
	sl.bSubmitted = false
	sl.batch = wire.BatchResult{Requested: len(qs)}
	sl.unlock()
	s.mSubmitted.Add(0, int64(len(qs)))
	for _, q := range qs {
		switch s.st.SubmitFunc(q, sl.bcb) {
		case stream.SubmitQueued:
		case stream.SubmitShed:
			s.mShed.Inc(0)
			sl.lock()
			sl.batch.Shed++
			sl.bDone++
			sl.unlock()
		case stream.SubmitClosed:
			s.mRejected.Inc(0)
			sl.lock()
			sl.batch.Rejected++
			sl.bDone++
			sl.unlock()
		}
	}
	sl.lock()
	sl.bSubmitted = true
	fin := sl.bDone == sl.bTotal
	sl.unlock()
	if fin {
		c.finishBatch(sl)
	}
}

func (c *conn) finishBatch(sl *slot) {
	sl.buf = wire.AppendBatchResp(sl.buf[:0], sl.id, &sl.batch)
	sl.c.out <- sl.idx
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
