// Package stream is the open-world serving layer: a long-running
// Server wrapping engine.Engine that turns the closed-batch Serve
// model into continuous ingestion — the system the paper's premise
// (§I, §V: queries and budgets arrive over time against an evolving
// advertiser base) actually calls for, and the shape Feldman &
// Muthukrishnan's survey frames sponsored search as.
//
// # Worker model
//
// The Server owns no goroutine that runs auctions and no queue: the
// engine's persistent shard workers (engine.Engine's serving loop) do
// both, for batch and streaming callers alike. Submit enqueues a
// keyword query on its shard's queue (engine.Enqueue); SubmitText
// routes free text through the engine's keyword index first.
// Per-keyword FIFO order — and with it the engine's sequential
// -equivalence contract — is preserved exactly as in batch mode,
// because a keyword still lives on exactly one shard. What is the
// Server's own: the admission policy and the closed gate, text and
// broad-match accounting, the publication of churn, budget-reset and
// flush fences (engine.Control items), and the Stats view.
//
// # Admission control
//
// The engine's queues are bounded, and Config.Overload picks what saturation
// means: Block (backpressure — Submit waits for space, nothing is
// ever dropped) or Shed (Submit never blocks — a query that finds its
// shard's queue full is rejected immediately and counted in that
// shard's shed tally). Shed queries are accounted, never silently
// lost: after Close, Submitted == Served + Shed exactly.
//
// # Live churn
//
// AddAdvertiser and RemoveAdvertiser change the population while the
// server runs. A churn builds the post-churn workload.Instance and
// enqueues an epoch fence — a control item — in-band into every
// shard's queue; each worker runs it between auctions (never tearing
// one), rebuilding its markets over the new instance via
// engine.RebuildShard. Because a rebuilt market is exactly what a
// fresh engine.New over the post-churn instance would build, the
// server's post-fence outcomes are byte-identical to a freshly
// constructed engine serving the same per-keyword subsequences — the
// contract the churn equivalence test pins under -race. Queries
// submitted before a churn call run against the old population,
// queries after it against the new one, per shard, in submission
// order.
//
// # Budget durability
//
// With a journal configured (Config.Engine.Journal), budget spend
// survives the process: lanes batch their charges and flush on every
// publish trigger — the count-based refresh, the BudgetFlush time
// fences, and drain — so journal staleness obeys the same K·R·P bound
// as snapshot staleness. Churn rebuilds and ResetBudgets begin fresh
// journal epochs, and Close flushes and closes the journal exactly
// once (Close is idempotent). ResetBudgets is the "next day"
// operation: a fresh ledger re-admits exhausted advertisers through
// in-band fences while bid state continues undisturbed.
//
// # Drain
//
// Close stops intake (subsequent Submits are rejected without being
// counted), closes the engine — which drains every queue to empty and
// joins the workers — and flushes the final Stats snapshot: latency
// percentiles, throughput over the last Config.Window auctions per
// shard, lifetime totals, and the per-shard breakdown.
package stream

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Policy selects what a full shard queue means to Submit.
type Policy int

const (
	// Block applies backpressure: Submit waits for queue space; no
	// query is ever dropped.
	Block Policy = iota
	// Shed keeps the submitter wait-free: a query arriving at a full
	// queue is dropped and counted in Stats.Shed.
	Shed
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case Shed:
		return "shed"
	default:
		return "Policy(?)"
	}
}

// Config tunes a streaming server.
type Config struct {
	// Engine configures the wrapped serving engine: shards, per-shard
	// queue depth, winner-determination method, payment rule, click
	// seed, and keyword names for text routing.
	Engine engine.Config
	// Overload picks the admission policy at queue saturation
	// (default Block).
	Overload Policy
	// Window is the per-shard rolling-window size, in auctions, behind
	// the latency percentiles and window throughput (default 1024).
	Window int
	// WindowAge bounds the age of rolling-window samples: auctions
	// completed longer ago than this are excluded from the window
	// percentiles and throughput (default 10s). Without it, a shard
	// left cold by skewed traffic would contribute arbitrarily old
	// samples and drag the "recent" figures toward history. Lifetime
	// totals are unaffected.
	WindowAge time.Duration
	// BudgetFlush is the period of the time-based budget flush: every
	// this often an in-band flush fence is offered to each shard
	// queue, and the serving worker publishes its markets' unpublished
	// spend into the shared ledger snapshot at its next auction
	// boundary — bounding snapshot staleness by wall clock even on
	// shards whose keywords see little traffic (the auction-count
	// refresh alone never fires there). Only meaningful when the
	// engine's budget policy is enabled; default 250ms.
	BudgetFlush time.Duration
	// Sink, when non-nil, observes every auction outcome on the
	// serving shard's goroutine. The outcome is owned by the keyword's
	// market and valid only for the duration of the call; Clone it to
	// retain. The callback must not call back into the Server.
	Sink func(*engine.Outcome)
}

// Fence-counter lanes (ssa_stream_fences_total).
const (
	fenceChurn = iota
	fenceFlush
	fenceReset
)

// shard is the Server's per-shard view state: the epoch of the last
// fence the shard's worker applied and the completion-time ring behind
// WindowThroughput, both written on the shard goroutine and guarded by
// mu (locked briefly per auction; Stats snapshots under the same
// lock). Serving counts live in the engine's telemetry lanes (one lane
// per shard), shed counts in the server's shed counter lanes.
type shard struct {
	mu    sync.Mutex
	epoch int
	win   *window
}

// Server is the long-running streaming front end. Construct with
// NewServer; it is live immediately. Submit/SubmitText may be called
// from any goroutine; churn and Close may run concurrently with
// submission (ordering between concurrent callers is the callers'
// own).
type Server struct {
	eng      *engine.Engine
	cfg      Config
	keywords int // catalog size; immutable (only advertisers churn)
	shards   []*shard
	wg       sync.WaitGroup // the budget flusher
	start    time.Time

	// Admission and fence counters, registered into the engine's
	// telemetry registry at construction (Stats is a view over them;
	// the wait-free lane writes replace the pre-PR-10 atomics).
	// mShed has one lane per shard; mFences one lane per fence kind
	// (churn, flush, reset), counted as each worker applies them.
	mSubmitted   *obs.Counter
	mUnrouted    *obs.Counter
	mOvermatched *obs.Counter
	mShed        *obs.Counter
	mFences      *obs.Counter

	// mu guards the admission gate (closed) and the churn state
	// (inst, epoch); Submit holds it shared, churn and Close exclusive.
	// Critically, no blocking enqueue ever happens under an exclusive
	// hold of mu, so Shed-policy Submit stays wait-free even while a
	// churn or Close is in progress.
	mu     sync.RWMutex
	inst   *workload.Instance
	epoch  int
	closed bool

	// churnMu serializes the fence-publication phase of churn, the
	// budget flusher's fence offers, and Close's gate-closing against
	// each other, outside mu: fences for successive epochs land in
	// every shard queue in epoch order, and the engine's queues are
	// never closed mid-publication. Lock order: churnMu before mu.
	churnMu sync.Mutex

	// flushStop ends the periodic budget flusher (closed once, in
	// Close); nil when the flusher never started.
	flushStop chan struct{}

	closeOnce sync.Once
	closedAt  time.Time
	final     *Stats
}

// NewServer builds a streaming server over inst; the engine's shard
// workers are live immediately.
func NewServer(inst *workload.Instance, cfg Config) *Server {
	if cfg.Window <= 0 {
		cfg.Window = 1024
	}
	if cfg.WindowAge <= 0 {
		cfg.WindowAge = 10 * time.Second
	}
	s := &Server{
		eng:      engine.New(inst, cfg.Engine),
		cfg:      cfg,
		keywords: inst.Keywords,
		inst:     inst,
		start:    time.Now(),
	}
	reg := s.eng.Metrics().Registry
	s.mSubmitted = reg.Counter("ssa_stream_submitted_total",
		"queries accepted by the admission stage", 1)
	s.mUnrouted = reg.Counter("ssa_stream_unrouted_total",
		"text queries that matched no catalog keyword", 1)
	s.mOvermatched = reg.Counter("ssa_stream_overmatched_total",
		"broad-match candidates that lost the impression", 1)
	s.mShed = reg.Counter("ssa_stream_shed_total",
		"queries dropped by the Shed overload policy", s.eng.Shards()).
		RenderLanes("shard", nil)
	s.mFences = reg.Counter("ssa_stream_fences_total",
		"control fences applied at auction boundaries", 3).
		RenderLanes("kind", []string{"churn", "flush", "reset"})
	s.shards = make([]*shard, s.eng.Shards())
	for i := range s.shards {
		s.shards[i] = &shard{win: newWindow(cfg.Window)}
	}
	// The auction itself runs outside sh.mu — only the window
	// publication needs the lock (one ring store), so a Stats snapshot
	// never waits behind an in-flight auction.
	s.eng.OnServed(func(i int, out *engine.Outcome, done time.Time) {
		sh := s.shards[i]
		sh.mu.Lock()
		sh.win.add(done.UnixNano())
		sh.mu.Unlock()
		if cfg.Sink != nil {
			cfg.Sink(out)
		}
	})
	if s.eng.Ledger() != nil {
		d := cfg.BudgetFlush
		if d <= 0 {
			d = 250 * time.Millisecond
		}
		s.flushStop = make(chan struct{})
		s.wg.Add(1)
		go s.budgetFlusher(d)
	}
	return s
}

// budgetFlusher periodically offers an in-band flush fence to every
// shard queue, bounding budget-snapshot staleness by wall clock. The
// offers are non-blocking: a saturated queue misses a round (its
// backlog of auctions is about to publish on the count-based refresh
// anyway) rather than wedging the flusher. churnMu excludes Close, so
// a fence is never offered to a closed engine.
func (s *Server) budgetFlusher(period time.Duration) {
	defer s.wg.Done()
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	flush := func(i int) {
		s.eng.FlushShard(i)
		s.mFences.Inc(fenceFlush)
	}
	for {
		select {
		case <-s.flushStop:
			return
		case <-ticker.C:
		}
		s.churnMu.Lock()
		s.mu.RLock()
		closed := s.closed
		s.mu.RUnlock()
		if closed {
			s.churnMu.Unlock()
			return
		}
		for i := range s.shards {
			s.eng.Control(i, flush, false)
		}
		s.churnMu.Unlock()
	}
}

// fence publishes an epoch fence: apply runs on every shard goroutine
// between auctions, then the shard's epoch advances. Fences always
// use blocking enqueues (population changes and resets are rare
// control traffic that must never be shed) and are published with mu
// released, which keeps Shed-policy Submit wait-free even against a
// fence stuck behind a saturated queue. The caller holds churnMu,
// which keeps successive epochs' fences in order in every queue and
// excludes Close.
func (s *Server) fence(kind, epoch int, apply func(shard int)) {
	ctl := func(i int) {
		apply(i)
		s.mFences.Inc(kind)
		sh := s.shards[i]
		sh.mu.Lock()
		sh.epoch = epoch
		sh.mu.Unlock()
	}
	for i := range s.shards {
		s.eng.Control(i, ctl, true)
	}
}

// SubmitResult classifies how SubmitFunc (and SubmitTextFunc)
// disposed of a query.
type SubmitResult uint8

const (
	// SubmitQueued: the query was admitted and will be served; its
	// callback (if any) will run exactly once. Counted in
	// Stats.Submitted.
	SubmitQueued SubmitResult = iota
	// SubmitShed: Shed policy and a full shard queue — the query was
	// dropped and counted in Stats.Submitted and Stats.Shed; the
	// callback never runs.
	SubmitShed
	// SubmitClosed: the server is closed; nothing was counted and the
	// callback never runs.
	SubmitClosed
	// SubmitUnrouted (SubmitTextFunc only): the text matched no
	// catalog keyword — counted in Stats.Unrouted, never queued.
	// Under broad match it is additionally counted in
	// Stats.Submitted (every broad query is an admission unit).
	SubmitUnrouted
)

// Submit offers one keyword query for service. It reports true when
// the query was queued (it will be served), false when it was shed
// (Shed policy, full queue — counted in Stats.Shed) or the server is
// closed (not counted at all). Under Block it waits for queue space
// and, on an open server, always returns true.
func (s *Server) Submit(q int) bool {
	return s.SubmitFunc(q, nil) == SubmitQueued
}

// SubmitFunc offers one keyword query for service with a per-query
// completion callback: when the result is SubmitQueued, fn (if
// non-nil) is invoked exactly once with the auction's outcome, on the
// serving shard's goroutine, after the auction is counted and before
// Config.Sink. The outcome is owned by the keyword's market
// and valid only for the duration of the call; Clone it to retain.
// fn must not call back into the Server. Admission accounting is
// identical to Submit — Submitted counts SubmitQueued and SubmitShed,
// Shed counts SubmitShed, a closed server counts nothing — so
// Submitted == Served + Shed still holds exactly after Close.
func (s *Server) SubmitFunc(q int, fn func(*engine.Outcome)) SubmitResult {
	if q < 0 || q >= s.keywords {
		panic(fmt.Sprintf("stream: query keyword %d out of range [0,%d)", q, s.keywords))
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return SubmitClosed
	}
	s.mSubmitted.Inc(0)
	return s.enqueue(q, 1, 1, fn)
}

// enqueue hands an admitted query to its shard's queue under the
// overload policy. The caller holds mu shared and has counted it in
// Submitted.
func (s *Server) enqueue(q int, rel, w float64, fn func(*engine.Outcome)) SubmitResult {
	if !s.eng.Enqueue(q, rel, w, fn, s.cfg.Overload == Block) {
		s.mShed.Inc(s.eng.ShardOf(q))
		return SubmitShed
	}
	return SubmitQueued
}

// SubmitText routes a free-text search through the keyword index and
// submits the matched keyword. Unrouted text (no catalog keyword
// shares a token) is counted in Stats.Unrouted and reported false; it
// never enters a queue. Like Submit, a closed server rejects without
// counting anything.
func (s *Server) SubmitText(query string) bool {
	return s.SubmitTextFunc(query, nil) == SubmitQueued
}

// SubmitTextFunc is SubmitFunc for free-text queries: the text is
// routed through the keyword index first, and SubmitUnrouted reports
// a query that matched no catalog keyword (counted in Stats.Unrouted
// unless the server is closed, in which case SubmitClosed). With
// broad match enabled (Config.Engine.Broadmatch), routing fans the
// query out instead — see submitBroad for the accounting.
func (s *Server) SubmitTextFunc(query string, fn func(*engine.Outcome)) SubmitResult {
	if s.eng.Broadmatch() != nil {
		return s.submitBroad(query, fn)
	}
	q, ok := s.eng.RouteText(query)
	if !ok {
		s.mu.RLock()
		defer s.mu.RUnlock()
		if s.closed {
			return SubmitClosed
		}
		s.mUnrouted.Inc(0)
		return SubmitUnrouted
	}
	return s.SubmitFunc(q, fn)
}

// submitBroad is SubmitTextFunc's broad-match path: the query fans
// out to every admitted candidate market, the winner (highest
// relevance, ties to the lowest keyword id) is physically served —
// admission-controlled exactly like Submit, with its relevance and
// squashed weight riding the queue entry — and the losing candidates
// are counted in Stats.Overmatched: matched, but not serving the
// impression. Every (query, admitted market) pair is one admission
// unit and an unmatched query is one Unrouted unit, so after Close
//
//	Submitted == Served + Shed + Unrouted + Overmatched
//
// exactly — the broad-match accounting identity. (Exact routing keeps
// the historical identity Submitted == Served + Shed, with Unrouted
// counted outside Submitted.)
func (s *Server) submitBroad(query string, fn func(*engine.Outcome)) SubmitResult {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return SubmitClosed
	}
	best, matched, ok := s.eng.RouteBroad(query)
	if !ok {
		s.mSubmitted.Inc(0)
		s.mUnrouted.Inc(0)
		return SubmitUnrouted
	}
	s.mSubmitted.Add(0, int64(matched))
	if matched > 1 {
		s.mOvermatched.Add(0, int64(matched-1))
	}
	return s.enqueue(best.Keyword, best.Relevance, best.Weight, fn)
}

// AddAdvertiser admits a into the live population and returns its
// advertiser index (the highest index of the post-churn instance).
// The change is applied per shard at the next auction boundary via an
// in-band epoch fence: queries submitted before this call see the old
// population, queries submitted after it see the new one.
func (s *Server) AddAdvertiser(a workload.Advertiser) (int, error) {
	s.churnMu.Lock()
	defer s.churnMu.Unlock()
	next, err := s.applyChurn(func(cur *workload.Instance) (*workload.Instance, error) {
		return cur.WithAdvertiser(a)
	})
	if err != nil {
		return 0, fmt.Errorf("stream: AddAdvertiser: %w", err)
	}
	return next.N - 1, nil
}

// RemoveAdvertiser evicts advertiser i from the live population;
// advertisers above i shift down one index, exactly as in
// workload.Instance.WithoutAdvertiser. Applied at auction boundaries
// like AddAdvertiser.
func (s *Server) RemoveAdvertiser(i int) error {
	s.churnMu.Lock()
	defer s.churnMu.Unlock()
	if _, err := s.applyChurn(func(cur *workload.Instance) (*workload.Instance, error) {
		return cur.WithoutAdvertiser(i)
	}); err != nil {
		return fmt.Errorf("stream: RemoveAdvertiser: %w", err)
	}
	return nil
}

// applyChurn derives and publishes the post-churn instance under
// churnMu: the churn state flips under a brief exclusive hold of mu,
// then one fence is pushed into every shard queue with mu released.
func (s *Server) applyChurn(derive func(*workload.Instance) (*workload.Instance, error)) (*workload.Instance, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("server is closed")
	}
	next, err := derive(s.inst)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.inst = next
	s.epoch++
	epoch := s.epoch
	// A fresh population gets a fresh budget ledger (nil when budgets
	// are off), mirroring the fresh-market churn contract; the ledger
	// rides the fence so each shard switches population and ledger at
	// the same auction boundary.
	led := s.eng.NewLedger(next)
	s.eng.SetInstance(next, led)
	s.mu.Unlock()
	s.fence(fenceChurn, epoch, func(i int) { s.eng.RebuildShard(i, next, led) })
	return next, nil
}

// ResetBudgets performs a live budget reset ("next day"): a fresh
// ledger — journaled as a reset epoch when the engine has a journal —
// replaces the current one, re-admitting exhausted advertisers while
// every market's bid state continues undisturbed. Like churn, the
// swap is applied per shard at the next auction boundary via an
// in-band fence: queries submitted before this call are charged to
// the old ledger, queries after it to the new one, per shard, in
// submission order. Returns an error when budgets are off or the
// server is closed.
func (s *Server) ResetBudgets() error {
	s.churnMu.Lock()
	defer s.churnMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("stream: ResetBudgets: server is closed")
	}
	led := s.eng.NewResetLedger()
	if led == nil {
		s.mu.Unlock()
		return fmt.Errorf("stream: ResetBudgets: budgets are not enabled")
	}
	s.epoch++
	epoch := s.epoch
	s.eng.SetInstance(s.inst, led)
	s.mu.Unlock()
	s.fence(fenceReset, epoch, func(i int) { s.eng.ResetShardBudgets(i, led) })
	return nil
}

// Instance returns the current advertiser population (the post-churn
// instance once all pending fences are applied).
func (s *Server) Instance() *workload.Instance {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inst
}

// Engine exposes the wrapped serving engine for inspection (markets,
// accounting). Safe to use only after Close, or for read paths that
// tolerate concurrent serving.
func (s *Server) Engine() *engine.Engine { return s.eng }

// Shards returns the number of persistent worker shards.
func (s *Server) Shards() int { return len(s.shards) }

// Stats takes a live snapshot: cumulative admission and serving
// counters, the current churn epoch, and rolling-window latency and
// throughput over the most recent auctions.
func (s *Server) Stats() *Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.snapshotLocked(time.Since(s.start))
}

// snapshotLocked assembles a Stats under at least a read-hold of s.mu.
// Counts come from the telemetry registry's lanes: integer lanes are
// read in shard order, and Revenue sums the float lanes in the same
// order the legacy per-shard accumulation used, so a drained snapshot
// is bit-for-bit what the pre-registry accounting produced.
func (s *Server) snapshotLocked(elapsed time.Duration) *Stats {
	st := &Stats{
		Unrouted:    s.mUnrouted.Value(),
		Overmatched: s.mOvermatched.Value(),
		Epoch:       s.epoch,
		Advertisers: s.inst.N,
		Elapsed:     elapsed,
		PerShard:    make([]ShardStats, len(s.shards)),
	}
	m := s.eng.Metrics()
	var done []int64
	for i, sh := range s.shards {
		shed := s.mShed.Lane(i)
		served := m.Auctions.Lane(i)
		sh.mu.Lock()
		epoch := sh.epoch
		done = sh.win.appendTo(done)
		sh.mu.Unlock()
		st.PerShard[i] = ShardStats{Served: int(served), Shed: shed, Queued: s.eng.QueueLen(i), Epoch: epoch}
		st.Served += served
		st.Shed += shed
		st.Revenue += m.Revenue.Lane(i)
		st.Clicks += int(m.Clicks.Lane(i))
		st.Filled += int(m.Filled.Lane(i))
		st.TotalSlots += int(m.Slots.Lane(i))
	}
	if led := s.eng.Ledger(); led != nil {
		st.BudgetSpent, st.BudgetExhausted, st.BudgetDenied = led.Totals()
	}
	// Submitted is read after the served/shed tallies: every query those
	// counted was admission-counted first, so a live snapshot's Pending
	// (Submitted − Served − Shed) can overstate the queues by in-flight
	// admissions but never go negative.
	st.Submitted = s.mSubmitted.Value()
	st.Pending = st.Submitted - st.Served - st.Shed - st.Overmatched
	if s.eng.Broadmatch() != nil {
		// Broad match counts unrouted queries inside Submitted; exact
		// routing does not (Overmatched is always 0 there, so the
		// subtraction above is a no-op).
		st.Pending -= st.Unrouted
	}
	if elapsed > 0 {
		st.Throughput = float64(st.Served) / elapsed.Seconds()
	}
	var hs obs.HistSnapshot
	m.Latency.SnapshotInto(&hs)
	st.P50, st.P95, st.P99, st.Max = hs.Percentiles()
	st.summarize(done, time.Now().Add(-s.cfg.WindowAge).UnixNano())
	return st
}

// Close gracefully drains the server: intake stops (concurrent and
// subsequent Submits are rejected and not counted), every queued
// query is served, pending churn fences are applied, the engine's
// workers exit, and the final Stats is flushed and returned. Close is
// idempotent; later calls return the same final snapshot.
func (s *Server) Close() *Stats {
	s.closeOnce.Do(func() {
		s.churnMu.Lock()
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		s.churnMu.Unlock()
		// No submitter can hold mu now and churnMu excluded an
		// in-flight fence publication, so nothing can race the engine
		// closing its queues: drain is exact. Post-churn markets are
		// released too — RebuildShard closes the markets it replaces,
		// and the engine holds the current generation.
		if s.flushStop != nil {
			close(s.flushStop)
		}
		s.wg.Wait()
		s.eng.Close()
		s.closedAt = time.Now()
		s.mu.RLock()
		s.final = s.snapshotLocked(s.closedAt.Sub(s.start))
		s.mu.RUnlock()
	})
	return s.final
}
