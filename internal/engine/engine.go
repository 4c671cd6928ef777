// Package engine is the concurrent auction-serving engine: the
// production-shaped layer the ROADMAP's "heavy traffic" north star
// asks for, built from the paper's own ingredients. It owns the full
// per-query pipeline — keyword routing (internal/kwmatch), bid
// evaluation (the explicit engine or the Section IV threshold
// algorithm + logical updates), winner determination (the reduced
// Hungarian algorithm of Section III-E running in a reusable
// matching.Workspace), generalized second pricing, user simulation,
// and accounting — behind Engine.Serve.
//
// # Sharding model
//
// Auctions for different keywords share no state in the paper's
// Section V workload beyond the advertisers' global spend totals, and
// a serving system that partitions traffic by keyword can therefore
// run keywords in parallel. The engine embraces that partition as its
// concurrency contract: every keyword owns an independent Market
// (bids, accounting, ROI statistics, and click randomness seeded by
// KeywordSeed), keywords are assigned round-robin to shards, and each
// shard is one persistent worker goroutine consuming a bounded
// channel. Because a keyword lives on exactly one shard and each
// shard drains its queue in FIFO order, the auctions of any one
// keyword execute sequentially in arrival order no matter how many
// shards exist — which yields the engine's central guarantee (below).
//
// # The serving loop
//
// There is one place an auction is dequeued, timed, run and observed:
// Engine.worker. A queue entry is either an auction (keyword,
// broad-match relevance and weight, optional completion callback) or a
// control item — "run this function on the shard goroutine between
// auctions". Batch callers (Serve, ServeOutcomes, ServeText) enqueue
// every query and then a control item per shard that publishes the
// shard's batch totals and budget spend and releases the caller: a
// barrier. The streaming layer (internal/stream) enqueues through
// Enqueue with its admission policy and publishes churn, budget-reset
// and flush fences through Control; batch ResetBudgets rides the same
// item. Workers start in New and stop in Close.
//
// # Sequential equivalence
//
// For every keyword q, the outcome sequence the engine produces is
// identical — allocations, prices, clicks, revenue, and bid
// trajectories, bit for bit — to a sequential Market over the same
// instance and method, seeded with KeywordSeed(cfg.ClickSeed, q),
// fed only q's queries. Shard count and queue depth are pure
// performance knobs; they cannot change any outcome. The -race
// equivalence test in this package pins exactly this contract.
//
// The price of the partition is that an advertiser's spend total is
// tracked per keyword market rather than summed across keywords (the
// cross-keyword coupling one sequential market over all keywords
// has). Section V's evaluation never exercises that coupling — each query involves one
// keyword — and the per-keyword ROI statistics the Figure 5 strategy
// steers by are per-keyword already. Daily budgets, the one
// cross-keyword constraint the paper's language makes first-class,
// are recovered without re-coupling the shards by the internal/budget
// subsystem: Config.Budget builds an eventually-consistent spend
// ledger whose lanes the markets charge and consult (wait-free reads,
// bounded overspend; see that package's doc).
//
// Memory: each market carries full-width per-advertiser state (the
// Figure 5 strategy's roiRange scans every keyword's ROI, so a market
// equivalent to a sequential one cannot drop the other columns),
// making the engine O(n·keywords²) overall. That is comfortable at
// the Section V catalog size (10 keywords) the engine currently
// targets; keyword-scoped markets for large catalogs are a ROADMAP
// item and imply a (documented) departure from that equivalence.
package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broadmatch"
	"repro/internal/budget"
	"repro/internal/journal"
	"repro/internal/kwmatch"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Config tunes an Engine. The zero value serves with MethodRH on
// GOMAXPROCS shards.
type Config struct {
	// Shards is the number of worker goroutines (and keyword
	// partitions). 0 means min(GOMAXPROCS, keywords). More shards than
	// keywords is never useful; the constructor clamps.
	Shards int
	// QueueDepth is the per-shard bounded-channel capacity; a batch
	// feeder blocks when a shard falls this far behind (backpressure
	// rather than unbounded buffering) and the streaming layer applies
	// its Block/Shed policy there. 0 means 256.
	QueueDepth int
	// Method selects the winner-determination pipeline (default
	// MethodRH, the paper's scalable choice).
	Method Method
	// Pricing selects the payment rule (default PricingGSP; PricingVCG
	// charges Vickrey opportunity costs via per-winner counterfactual
	// solves in each market's reused workspace).
	Pricing Pricing
	// ClickSeed is the base seed for simulated user clicks; keyword q's
	// market draws from KeywordSeed(ClickSeed, q).
	ClickSeed int64
	// HeavyParallelism is the per-market worker count of the
	// heavyweight pattern enumeration (MethodHeavy only): 0 means
	// GOMAXPROCS, 1 fully sequential, and any setting is capped per
	// auction by the 2^k pattern count. Like Shards it is a pure
	// performance knob — outcomes are byte-identical at every setting,
	// which the parallel-heavy equivalence tests pin. Each keyword
	// market owns its pool (parallelism−1 goroutines, parked between
	// auctions), so total heavyweight workers scale with
	// keywords × HeavyParallelism.
	HeavyParallelism int
	// KeywordNames optionally names the instance's keywords for
	// text-query routing (ServeText); defaults to "kw0", "kw1", …
	KeywordNames []string
	// Broadmatch configures the probabilistic broad-match query
	// router (internal/broadmatch): when Enabled, ServeText and the
	// streaming layer's SubmitText fan each text query out to every
	// catalog keyword scoring at or above Broadmatch.Threshold under
	// kwmatch subset scoring, admit candidates by deterministic
	// seeded per-(query, keyword) draws, serve the highest-relevance
	// admitted market (ties to the lowest keyword id) with the
	// squashed pricing weight relevance^Squash, and count the losing
	// candidates as Overmatched. The zero value (Enabled false) keeps
	// exact routing, byte for byte.
	Broadmatch broadmatch.Config
	// Reserve is the per-click reserve price, applied in every
	// method and pricing rule: advertisers whose (squash-weighted)
	// bid falls below it are excluded from winner determination, and
	// every charged click pays at least it. 0 disables reserve
	// pricing byte-identically.
	Reserve float64
	// Budget configures cross-keyword budget enforcement
	// (internal/budget). The zero value (PolicyOff) disables the
	// subsystem entirely: no ledger is built and outcomes are
	// byte-identical to an engine without budget support. With a
	// policy set, the engine builds one budget.Ledger over the
	// instance's Budget column, hands each keyword market its lane,
	// and publishes lane deltas on Budget.RefreshEvery plus at batch
	// boundaries (the streaming layer adds time-based flush fences).
	Budget budget.Config
	// Journal, when non-nil, makes budget spend durable: the ledger is
	// attached to it at construction (requires a Budget policy), every
	// lane's charges are journaled on the publish triggers, churn
	// rebuilds and budget resets begin fresh journal epochs, and
	// Engine.Close flushes and closes it (the engine takes ownership).
	// Journal write errors are sticky and surfaced by JournalErr and
	// Close — a full disk degrades durability, never serving.
	Journal *journal.Writer
	// Restore, when non-nil, seeds the budget ledger from a recovered
	// journal state (journal.Recover) instead of starting from zero:
	// every advertiser resumes with exactly the spend the journal
	// replay reconstructed. Its dimensions must match the instance
	// (N advertisers, Keywords lanes).
	Restore *journal.LedgerState
	// TraceSample enables the per-auction trace ring (obs.TraceRing):
	// a deterministic 1 in TraceSample of auctions stamps its pipeline
	// phases (solve, price, charge — time.Now only on sampled
	// auctions) into a fixed 4096-event ring, dumpable as JSON from
	// the telemetry endpoint's /trace and auctionsim -trace-sample.
	// 0 — the default — disables tracing entirely: no ring, no
	// per-auction sampling branch cost beyond one nil check.
	TraceSample int
}

// KeywordSeed derives the click-RNG seed of keyword q's market from
// the engine-wide base seed. The mixing constant keeps neighboring
// keywords' streams far apart; the exact function is part of the
// sequential-equivalence contract (reference Worlds must use it too).
func KeywordSeed(base int64, q int) int64 {
	return base ^ int64(q+1)*-0x61c8864680b583eb // 2^64 / golden ratio
}

// Stats aggregates one Serve call.
type Stats struct {
	// Auctions is the number of auctions run.
	Auctions int
	// Revenue is the total amount charged across all auctions.
	Revenue float64
	// Clicks counts clicked impressions; Filled and TotalSlots give the
	// fill rate.
	Clicks     int
	Filled     int
	TotalSlots int
	// Unrouted counts ServeText queries that matched no keyword (always
	// 0 for Serve).
	Unrouted int
	// Overmatched counts broad-match candidates that matched a query
	// but lost the impression to a higher-relevance market (always 0
	// for Serve and for exact routing).
	Overmatched int
	// Elapsed is the wall-clock span of the Serve call; Throughput is
	// Auctions/Elapsed in queries per second.
	Elapsed    time.Duration
	Throughput float64
	// P50, P95, P99, Max summarize per-auction service latency
	// (dequeue to outcome): quantiles of the engine's latency
	// histogram over this call (a snapshot delta), so each is a bucket
	// upper bound within 3.2% above the true value.
	P50, P95, P99, Max time.Duration
}

// Engine is the concurrent sharded serving engine. Construct with New
// (its shard workers are live immediately) and retire with Close.
// Serve may be called repeatedly (markets persist and keep evolving,
// exactly like a long-running sequential market), but not concurrently
// — the engine serializes whole batches, parallelism lives inside a
// batch.
type Engine struct {
	inst    *workload.Instance
	cfg     Config
	markets []*Market // one per keyword
	shardOf []int     // keyword -> shard
	kwIndex *kwmatch.Index
	router  *broadmatch.Router // nil = exact routing

	// ledger holds the current budget ledger (nil pointer value when
	// Budget.Policy == PolicyOff). It is an atomic pointer so the
	// telemetry gauges can read it at render time concurrently with
	// churn/reset swaps.
	ledger atomic.Pointer[budget.Ledger]

	// met is the engine's telemetry (never nil); tracer the optional
	// per-auction trace sampler (nil unless Config.TraceSample > 0).
	met    *Metrics
	tracer *obs.Tracer

	queues []chan task // one bounded queue per shard
	totals []shardTotals
	wg     sync.WaitGroup // the shard workers
	// served, when set (OnServed), observes every auction on its shard
	// goroutine after the per-query callback.
	served func(shard int, out *Outcome, done time.Time)

	mu        sync.Mutex // serializes Serve, ResetBudgets and Close
	closed    bool
	closeOnce sync.Once

	// Batch scratch, guarded by mu: the barrier's wait group and its
	// preallocated control function, and the latency-histogram
	// snapshots whose difference is a Serve call's percentiles.
	barrier       sync.WaitGroup
	endBatch      func(shard int)
	before, after obs.HistSnapshot
}

// task is one shard-queue entry: an auction for keyword q at
// broad-match relevance rel and squashed weight w (both 1 under exact
// routing) with an optional completion callback, or — when ctl is
// non-nil — a control item the worker runs between auctions.
type task struct {
	q      int
	rel, w float64
	fn     func(*Outcome)
	ctl    func(shard int)
}

// shardTotals is one worker's serving aggregate. live accumulates on
// the worker goroutine only; a batch barrier moves it into batch,
// which the Serve caller reads once the barrier has released it. The
// pad keeps neighbouring shards' per-auction writes off one cache
// line.
type shardTotals struct {
	live, batch Totals
	_           [48]byte
}

// New builds an engine over inst. Every keyword gets an independent
// market seeded with KeywordSeed(cfg.ClickSeed, q).
func New(inst *workload.Instance, cfg Config) *Engine {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Shards > inst.Keywords {
		cfg.Shards = inst.Keywords
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	e := &Engine{
		inst:    inst,
		cfg:     cfg,
		markets: make([]*Market, inst.Keywords),
		shardOf: make([]int, inst.Keywords),
		kwIndex: kwmatch.New(),
	}
	if cfg.Reserve < 0 {
		panic(fmt.Sprintf("engine: negative Reserve %v", cfg.Reserve))
	}
	if cfg.Journal != nil && cfg.Budget.Policy == budget.PolicyOff {
		panic("engine: Config.Journal requires a budget policy (there is no other durable state)")
	}
	if cfg.Restore != nil {
		if cfg.Budget.Policy == budget.PolicyOff {
			panic("engine: Config.Restore requires a budget policy")
		}
		if cfg.Restore.N != inst.N || cfg.Restore.Lanes != inst.Keywords {
			panic(fmt.Sprintf("engine: recovered ledger state is %d advertisers x %d lanes, instance is %d x %d",
				cfg.Restore.N, cfg.Restore.Lanes, inst.N, inst.Keywords))
		}
		led := budget.NewLedgerState(cfg.Restore, inst.Budget, cfg.Budget)
		if cfg.Journal != nil {
			if err := led.AttachJournal(cfg.Journal); err != nil {
				panic(fmt.Sprintf("engine: attach journal: %v", err))
			}
		}
		e.ledger.Store(led)
	} else {
		e.ledger.Store(e.newLedger(inst, true))
	}
	if cfg.TraceSample > 0 {
		e.tracer = obs.NewTracer(obs.NewTraceRing(4096), cfg.TraceSample)
	}
	e.met = newMetrics(e)
	names := make([]string, inst.Keywords)
	click := newClickData(inst, cfg.Method)
	for q := 0; q < inst.Keywords; q++ {
		e.shardOf[q] = q % cfg.Shards
		e.markets[q] = NewMarketOpts(inst, e.marketOpts(q, e.Ledger(), click))
		name := fmt.Sprintf("kw%d", q)
		if q < len(cfg.KeywordNames) && cfg.KeywordNames[q] != "" {
			name = cfg.KeywordNames[q]
		}
		names[q] = name
		// The kwmatch inverted index is advertiser-oriented; the engine
		// indexes its keyword catalog by using the keyword id as the
		// "advertiser": Query then prunes the catalog to the keywords
		// sharing tokens with the search text, Section IV's
		// keyword-matching step.
		e.kwIndex.Register(q, name)
	}
	if cfg.Broadmatch.Enabled {
		e.router = broadmatch.New(names, cfg.Broadmatch)
	}
	e.endBatch = func(s int) {
		e.FlushShard(s)
		t := &e.totals[s]
		t.batch, t.live = t.live, Totals{}
		e.barrier.Done()
	}
	e.totals = make([]shardTotals, cfg.Shards)
	e.queues = make([]chan task, cfg.Shards)
	e.wg.Add(cfg.Shards)
	for s := range e.queues {
		e.queues[s] = make(chan task, cfg.QueueDepth)
		go e.worker(s)
	}
	return e
}

// worker is shard s's persistent serving loop — the one place an
// auction is dequeued, timed, run and observed. It exits when Close
// closes the queue, after draining it and publishing the shard's
// budget spend: once every worker has exited, the ledger snapshot
// equals the exact per-market totals.
func (e *Engine) worker(s int) {
	defer e.wg.Done()
	tot := &e.totals[s].live
	for t := range e.queues[s] {
		if t.ctl != nil {
			t.ctl(s)
			continue
		}
		t0 := time.Now()
		out := e.ServeOneWeighted(t.q, t.rel, t.w, tot)
		done := time.Now()
		e.met.Latency.Record(int64(done.Sub(t0)))
		if t.fn != nil {
			t.fn(out)
		}
		if e.served != nil {
			e.served(s, out, done)
		}
	}
	e.FlushShard(s)
}

// Enqueue offers one auction for keyword q to its shard's queue: rel
// and w are the broad-match relevance and squashed pricing weight
// (1, 1 for a keyword query), and fn, when non-nil, runs exactly once
// on the shard goroutine with the outcome (owned by q's market and
// valid only for the duration of the call; Clone it to retain). With
// wait set Enqueue blocks for queue space and returns true; without,
// it never blocks and reports false when the queue is full. The
// caller must not race Close.
func (e *Engine) Enqueue(q int, rel, w float64, fn func(*Outcome), wait bool) bool {
	return send(e.queues[e.shardOf[q]], task{q: q, rel: rel, w: w, fn: fn}, wait)
}

// Control queues ctl to run on shard s's goroutine between auctions,
// in FIFO order with the auctions around it — the one control item
// behind churn, budget-reset and flush fences and the batch barrier.
// wait selects blocking as in Enqueue. The caller must not race Close.
func (e *Engine) Control(s int, ctl func(shard int), wait bool) bool {
	return send(e.queues[s], task{ctl: ctl}, wait)
}

func send(ch chan<- task, t task, wait bool) bool {
	if wait {
		ch <- t
		return true
	}
	select {
	case ch <- t:
		return true
	default:
		return false
	}
}

// QueueLen returns the number of entries waiting in shard s's queue.
func (e *Engine) QueueLen(s int) int { return len(e.queues[s]) }

// OnServed installs fn to observe every auction on its shard goroutine
// (after the per-query callback), with the completion time the
// latency histogram recorded. Call it before the first Enqueue; the
// streaming layer hangs its throughput window and Config.Sink here.
func (e *Engine) OnServed(fn func(shard int, out *Outcome, done time.Time)) { e.served = fn }

// onEveryShard runs fn once on every shard goroutine, between
// auctions, and waits for all of them. fn must end with
// e.barrier.Done(). The caller holds mu.
func (e *Engine) onEveryShard(fn func(shard int)) {
	e.barrier.Add(len(e.queues))
	for _, ch := range e.queues {
		ch <- task{ctl: fn}
	}
	e.barrier.Wait()
}

// NewLedger builds a cross-keyword budget ledger for inst under the
// engine's budget configuration, or nil when budgets are off. The
// streaming layer calls it during churn: a fresh population gets a
// fresh ledger, exactly as it gets fresh markets and accounting (the
// fresh-engine churn contract extends to budgets). With a journal
// configured, the new ledger begins a fresh journal epoch
// (journal.ReasonChurn): recovery reconstructs the post-churn ledger
// only, and the retired ledger's final flushes are dropped as stale.
func (e *Engine) NewLedger(inst *workload.Instance) *budget.Ledger {
	return e.newLedger(inst, false)
}

// NewResetLedger builds a fresh ledger over the engine's current
// instance for a budget reset ("next day": same population, zero
// spend, exhausted advertisers re-admitted), journaled as a
// journal.ReasonReset epoch. Nil when budgets are off.
func (e *Engine) NewResetLedger() *budget.Ledger {
	if e.cfg.Budget.Policy == budget.PolicyOff {
		return nil
	}
	led := budget.NewLedger(e.inst.N, e.inst.Keywords, e.inst.Budget, e.cfg.Budget)
	if e.cfg.Journal != nil {
		// Errors are sticky in the writer (JournalErr/Close surface
		// them); the swap itself must not abort halfway.
		_ = led.AttachJournalNextEpoch(e.cfg.Journal, journal.ReasonReset)
	}
	return led
}

func (e *Engine) newLedger(inst *workload.Instance, boot bool) *budget.Ledger {
	if e.cfg.Budget.Policy == budget.PolicyOff {
		return nil
	}
	led := budget.NewLedger(inst.N, inst.Keywords, inst.Budget, e.cfg.Budget)
	if e.cfg.Journal != nil {
		if boot {
			if err := led.AttachJournal(e.cfg.Journal); err != nil {
				panic(fmt.Sprintf("engine: attach journal: %v", err))
			}
		} else {
			_ = led.AttachJournalNextEpoch(e.cfg.Journal, journal.ReasonChurn)
		}
	}
	return led
}

// laneOf returns keyword q's lane of led, or nil for a nil ledger.
func (e *Engine) laneOf(led *budget.Ledger, q int) *budget.Lane {
	if led == nil {
		return nil
	}
	return led.Lane(q)
}

// Ledger returns the engine's current budget ledger (nil when budgets
// are off). After a churn it is the post-churn ledger; markets on
// shards that have not yet applied their fence still charge the
// previous one. Safe to call concurrently with churn swaps (the
// telemetry gauges read it at render time).
func (e *Engine) Ledger() *budget.Ledger { return e.ledger.Load() }

// FlushShard publishes the unpublished budget spend of every market
// owned by shard s. Must run on shard s's goroutine (a control item:
// the streaming layer's flush fences, the batch barrier, the worker's
// exit); no-op when budgets are off.
func (e *Engine) FlushShard(s int) {
	for q := range e.markets {
		if e.shardOf[q] == s {
			e.markets[q].FlushBudget()
		}
	}
}

// Shards returns the number of worker shards the engine runs.
func (e *Engine) Shards() int { return e.cfg.Shards }

// ShardOf returns the shard that owns keyword q; all of q's auctions
// run on that shard's goroutine, batch or streaming alike.
func (e *Engine) ShardOf(q int) int { return e.shardOf[q] }

// KeywordMarket exposes keyword q's market for inspection (bids,
// accounting) — test and diagnostic use; do not call while Serve runs.
func (e *Engine) KeywordMarket(q int) *Market { return e.markets[q] }

// ProgramEvaluations sums the per-market strategy-evaluation counters.
func (e *Engine) ProgramEvaluations() int64 {
	var total int64
	for _, m := range e.markets {
		total += m.ProgramEvaluations()
	}
	return total
}

// RouteText resolves a free-text search to the best-matching keyword
// (highest token-overlap relevance; ties to the lowest keyword id),
// reporting false when no catalog keyword shares a token with it.
func (e *Engine) RouteText(query string) (int, bool) {
	ms := e.kwIndex.Query(query)
	if len(ms) == 0 {
		return 0, false
	}
	return ms[0].Advertiser, true
}

// Broadmatch returns the engine's broad-match router, or nil when
// Config.Broadmatch is disabled (exact routing). The streaming layer
// uses nil-ness to pick its SubmitText path.
func (e *Engine) Broadmatch() *broadmatch.Router { return e.router }

// RouteBroad resolves a free-text search through the broad-match
// router: the winning candidate (highest admitted relevance, ties to
// the lowest keyword id), the total admitted-candidate count, and
// whether anything matched. Panics when broad match is disabled.
func (e *Engine) RouteBroad(query string) (broadmatch.Candidate, int, bool) {
	return e.router.RouteBest(query)
}

// Serve runs one auction per query (queries are keyword indices, as
// produced by workload.Instance.Queries), fanning them out to the
// keyword shards, and blocks until all have completed. Outcomes are
// discarded after aggregation; use ServeOutcomes to retain them.
//
// Serve is a thin inlinable shell around serve so that a caller which
// does not retain the Stats keeps it on its stack: a warm fixed-size
// Serve allocates nothing (TestEngineServeSteadyStateAllocs).
func (e *Engine) Serve(queries []int) *Stats {
	st := new(Stats)
	e.serve(queries, nil, nil, nil, st)
	return st
}

// ServeOutcomes is Serve, additionally returning every auction's
// outcome in query order (index i of the result is queries[i]'s
// outcome).
func (e *Engine) ServeOutcomes(queries []int) ([]*Outcome, *Stats) {
	results := make([]*Outcome, len(queries))
	st := new(Stats)
	e.serve(queries, nil, nil, results, st)
	return results, st
}

// ServeText routes free-text searches and serves the matched ones;
// unmatched queries are counted in Stats.Unrouted (no auction runs —
// no keyword means no interested advertisers). With broad match
// enabled each query fans out to its admitted candidate set, the
// highest-relevance candidate is served with its relevance and
// squashed weight, and the losers are counted in Stats.Overmatched.
func (e *Engine) ServeText(queries []string) *Stats {
	routed := make([]int, 0, len(queries))
	unrouted := 0
	if e.router != nil {
		overmatched := 0
		rels := make([]float64, 0, len(queries))
		ws := make([]float64, 0, len(queries))
		for _, s := range queries {
			best, matched, ok := e.router.RouteBest(s)
			if !ok {
				unrouted++
				continue
			}
			overmatched += matched - 1
			routed = append(routed, best.Keyword)
			rels = append(rels, best.Relevance)
			ws = append(ws, best.Weight)
		}
		st := &Stats{Unrouted: unrouted, Overmatched: overmatched}
		e.serve(routed, rels, ws, nil, st)
		return st
	}
	for _, s := range queries {
		if q, ok := e.RouteText(s); ok {
			routed = append(routed, q)
		} else {
			unrouted++
		}
	}
	st := &Stats{Unrouted: unrouted}
	e.serve(routed, nil, nil, nil, st)
	return st
}

// Totals is one serving worker's private aggregate, accumulated by
// ServeOneWeighted: each shard worker keeps one, and a batch barrier
// hands its value to the Serve caller, which merges them in shard
// order.
type Totals struct {
	Auctions, Clicks, Filled, Slots int
	Revenue                         float64
}

// Add accumulates one auction outcome.
func (t *Totals) Add(out *Outcome) {
	t.Auctions++
	t.Revenue += out.Revenue
	for j := range out.AdvOf {
		t.Slots++
		if out.AdvOf[j] >= 0 {
			t.Filled++
		}
		if out.Clicked[j] {
			t.Clicks++
		}
	}
}

// ServeOneWeighted runs one auction for keyword q on the calling
// goroutine — rel and w are the query's broad-match relevance and
// squashed pricing weight (see Market.RunWeighted; 1, 1 for a keyword
// query) — accumulates it into tot and records it in the telemetry
// lanes. The shard worker is its one caller in the serving stack. The
// returned outcome is owned by q's market and valid only until its
// next auction. The caller must be the sole concurrent runner of q's
// shard; allocation-free in steady state under MethodRH/MethodRHTALU.
func (e *Engine) ServeOneWeighted(q int, rel, w float64, tot *Totals) *Outcome {
	out := e.markets[q].RunWeighted(q, rel, w)
	tot.Add(out)
	e.met.observe(e.shardOf[q], out)
	return out
}

// RebuildShard replaces every market owned by shard s with a freshly
// constructed market over inst, seeded with the engine's own
// KeywordSeed — the streaming layer's churn fence. Because it runs as
// a control item on shard s's goroutine, between auctions, no
// in-flight auction is ever torn, and because a fresh market over inst
// is exactly what New would build, the shard's subsequent outcomes are
// byte-identical to a freshly constructed engine over inst. The
// keyword catalog must be unchanged (only the advertiser population
// churns). led is the post-churn budget ledger the rebuilt markets
// charge (nil when budgets are off); it travels with the fence rather
// than being read from the engine so that a slow shard applying an
// old fence never observes a newer churn's ledger.
func (e *Engine) RebuildShard(s int, inst *workload.Instance, led *budget.Ledger) {
	if inst.Keywords != len(e.markets) {
		panic(fmt.Sprintf("engine: RebuildShard keyword catalog changed (%d != %d)", inst.Keywords, len(e.markets)))
	}
	click := newClickData(inst, e.cfg.Method) // shared by the shard's markets
	for q := range e.markets {
		if e.shardOf[q] == s {
			old := e.markets[q]
			e.markets[q] = NewMarketOpts(inst, e.marketOpts(q, led, click))
			// The replaced market is between auctions on this very
			// goroutine, so its heavyweight worker pool (if any) is
			// idle and safe to stop.
			old.Close()
		}
	}
}

// marketOpts assembles keyword q's market options from the engine
// configuration, the given ledger and the instance's shared click
// data — the one place New and RebuildShard derive
// construction parameters, so a rebuilt market is exactly what New
// would build.
func (e *Engine) marketOpts(q int, led *budget.Ledger, click clickData) MarketOpts {
	return MarketOpts{
		Method:           e.cfg.Method,
		Pricing:          e.cfg.Pricing,
		ClickSeed:        KeywordSeed(e.cfg.ClickSeed, q),
		Lane:             e.laneOf(led, q),
		HeavyParallelism: e.cfg.HeavyParallelism,
		Reserve:          e.cfg.Reserve,
		Tracer:           e.tracer,
		TraceKeyword:     q,
		TraceShard:       e.shardOf[q],
		click:            click,
	}
}

// ResetShardBudgets swaps every market owned by shard s onto its lane
// of led — the budget-reset analogue of RebuildShard's churn fence.
// Unlike churn, the markets themselves persist: bids, accounting, and
// ROI trajectories continue; only the spend ledger is replaced. Must
// run on the goroutine that owns shard s, between auctions (the
// streaming layer's in-band reset fences); each market publishes its
// old lane's tail before switching. No-op when budgets are off.
func (e *Engine) ResetShardBudgets(s int, led *budget.Ledger) {
	if led == nil {
		return
	}
	for q := range e.markets {
		if e.shardOf[q] == s {
			e.markets[q].SetLane(led.Lane(q))
		}
	}
}

// ResetBudgets performs a batch-mode budget reset: a fresh ledger
// (journaled as a reset epoch) replaces the current one across every
// market, re-admitting exhausted advertisers while bid state
// continues. The swap runs as a control item on every shard and
// ResetBudgets waits for all of them, so it orders against Serve calls
// like another batch. Returns the new ledger, or nil when budgets are
// off. Streaming callers use stream.Server.ResetBudgets, which
// publishes the same item without waiting for it.
func (e *Engine) ResetBudgets() *budget.Ledger {
	e.mu.Lock()
	defer e.mu.Unlock()
	led := e.NewResetLedger()
	if led == nil {
		return nil
	}
	e.onEveryShard(func(s int) {
		e.ResetShardBudgets(s, led)
		e.barrier.Done()
	})
	e.ledger.Store(led)
	return led
}

// Journal returns the configured journal writer, or nil.
func (e *Engine) Journal() *journal.Writer { return e.cfg.Journal }

// JournalErr returns the journal's sticky write error, if any — the
// non-blocking way to notice degraded durability while serving.
func (e *Engine) JournalErr() error {
	if e.cfg.Journal == nil {
		return nil
	}
	return e.cfg.Journal.Err()
}

// Close retires the engine: the shard queues close, every worker
// drains what is queued, publishes its shard's unpublished budget
// spend and exits; then the journal, if one is configured, is flushed
// and closed (the engine owns the writer — sticky errors surface in
// JournalErr before this and in the writer's Close result) and every
// market's background resources (heavyweight worker pools) are
// released. No Serve or Enqueue may follow. Close is idempotent: the
// first call does the work, later calls are no-ops.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		e.mu.Lock()
		e.closed = true
		for _, ch := range e.queues {
			close(ch)
		}
		e.mu.Unlock()
		e.wg.Wait()
		if e.cfg.Journal != nil {
			_ = e.cfg.Journal.Close()
		}
		for _, m := range e.markets {
			m.Close()
		}
	})
}

// SetInstance repoints the engine's population reference (and budget
// ledger) after a churn — batch-serve validation, diagnostics, and
// statistics read them. The caller must ensure no Serve call is in
// flight; the streaming layer invokes it under its churn lock.
func (e *Engine) SetInstance(inst *workload.Instance, led *budget.Ledger) {
	if inst.Keywords != len(e.markets) {
		panic(fmt.Sprintf("engine: SetInstance keyword catalog changed (%d != %d)", inst.Keywords, len(e.markets)))
	}
	e.inst = inst
	e.ledger.Store(led)
}

// serve fans queries out to the keyword shards and fills st. rels/ws,
// when non-nil, carry the per-query broad-match relevance and squashed
// weight (parallel to queries); nil means exact routing, every query
// at (1, 1). st must not escape (see Serve).
func (e *Engine) serve(queries []int, rels, ws []float64, results []*Outcome, st *Stats) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		panic("engine: Serve after Close")
	}
	for _, q := range queries {
		if q < 0 || q >= e.inst.Keywords {
			panic(fmt.Sprintf("engine: query keyword %d out of range [0,%d)", q, e.inst.Keywords))
		}
	}

	if len(queries) > 0 {
		e.met.Latency.SnapshotInto(&e.before)
	}
	start := time.Now()
	// Feed in arrival order. A keyword lives on exactly one shard, so
	// the per-keyword auction order is the arrival order regardless of
	// how shards interleave; the bounded channels provide backpressure.
	for idx, q := range queries {
		t := task{q: q, rel: 1, w: 1}
		if rels != nil {
			t.rel, t.w = rels[idx], ws[idx]
		}
		if results != nil {
			dst := &results[idx]
			t.fn = func(out *Outcome) { *dst = out.Clone() }
		}
		e.queues[e.shardOf[q]] <- t
	}
	// Batch boundary: each shard publishes its markets' unpublished
	// budget spend and its totals behind the last of its queries, so
	// after Serve returns the published ledger is current.
	e.onEveryShard(e.endBatch)
	st.Elapsed = time.Since(start)

	for s := range e.totals {
		tot := &e.totals[s].batch
		st.Auctions += tot.Auctions
		st.Revenue += tot.Revenue
		st.Clicks += tot.Clicks
		st.Filled += tot.Filled
		st.TotalSlots += tot.Slots
	}
	if st.Elapsed > 0 {
		st.Throughput = float64(st.Auctions) / st.Elapsed.Seconds()
	}
	if len(queries) > 0 {
		e.met.Latency.SnapshotInto(&e.after)
		e.after.Sub(&e.before)
		st.P50, st.P95, st.P99, st.Max = e.after.Percentiles()
	}
}
