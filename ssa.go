// Package ssa (sponsored search auctions) is the public API of this
// library, a from-scratch reproduction of Martin, Gehrke, and
// Halpern, "Toward Expressive and Scalable Sponsored Search
// Auctions" (ICDE 2008, arXiv:0809.0116).
//
// # What the library does
//
// Advertisers express multi-feature preferences as Bids tables:
// OR-bids over Boolean formulas of outcome predicates — Click,
// Purchase, Slot1…Slotk, and (in the Section III-F extension) Heavy_j
// ("slot j holds a famous advertiser"). Winner determination — the
// expected-revenue-maximizing assignment of slots to advertisers
// under pay-what-you-bid — runs in O(nk log k + k⁵) via the paper's
// reduced-graph Hungarian algorithm whenever every bid is a
// 1-dependent event, which the library verifies; bids on events
// involving two or more advertisers' placements are rejected, since
// winner determination for them is APX-hard (Theorem 3).
//
// Dynamic strategies are bidding programs: a small SQL dialect with
// triggers (package-internal interpreter), or native Go strategies.
// The ROI-equalizing heuristic of the paper's Figure 5 ships in both
// forms, verified equivalent, together with the Section IV machinery
// (threshold algorithm over sorted bid lists + logical updates with
// trigger queues) that avoids evaluating most programs on most
// auctions.
//
// # Serving engine
//
// Beyond the one-query-at-a-time simulation, the library serves
// query streams concurrently: Engine partitions the keyword space
// across worker shards, each keyword owning an independent market
// (bids, ROI accounting, click randomness), and Serve fans a stream
// out over bounded queues to persistent shard workers while reporting
// throughput and latency percentiles. Winner determination on the serving path is the
// paper's reduced Hungarian algorithm running allocation-free in
// per-worker workspaces. The engine's contract is sequential
// equivalence: for every keyword, outcomes are bit-identical to a
// sequential SimWorld over that keyword's subsequence of the stream
// (seeded with KeywordClickSeed), so shard count and queue depth are
// pure performance knobs — a property the engine's race-detector
// equivalence tests pin. Batch callers of the expressive-bid
// winner-determination API use a Determiner to reuse matrices and
// matching workspaces across auctions.
//
// For open-world traffic — queries arriving continuously against an
// evolving advertiser base, the paper's own premise — StreamServer
// feeds the same shard workers continuously, adding bounded-queue
// admission control (block or shed, every dropped query accounted),
// live advertiser churn applied at auction boundaries via epoch
// fences (post-churn outcomes byte-identical to a freshly built
// engine over the new population), and a graceful drain that flushes
// rolling-window latency and throughput statistics. SimStream
// generates matching workloads: Poisson or bursty arrivals, Zipf
// keyword skew, and scripted churn timelines.
//
// Daily budgets — the bidding language's first-named constraint —
// are enforced across every keyword market by the cross-keyword
// budget subsystem: AttachBudgets overlays per-advertiser caps on an
// instance, and an engine or streaming server configured with a
// BudgetConfig (PolicyHard or PolicyPaced) tracks global spend in an
// eventually-consistent sharded ledger with wait-free reads, a
// documented overspend bound, and totals that settle exactly to the
// per-market accounting after a drain.
//
// The networked serving tier puts all of that behind TCP:
// ListenNetServer wraps a StreamServer in a length-prefixed,
// CRC-checked binary wire protocol with per-connection admission
// control, and DialNetClient is the matching pipelined client driver,
// so separate OS processes can drive auctions through a real socket
// path with the same exact accounting (submitted == served + shed +
// rejected after a drain) and zero steady-state allocations end to
// end.
//
// # Quick start
//
//	model := ssa.NewModel(2, 2) // 2 advertisers, 2 slots
//	model.Click[0][0], model.Click[0][1] = 0.7, 0.4
//	model.Click[1][0], model.Click[1][1] = 0.6, 0.3
//	auction := &ssa.Auction{
//		Slots: 2,
//		Probs: model,
//		Advertisers: []ssa.Advertiser{
//			{ID: "nike", Bids: ssa.MustParseBids("Click : 5\nPurchase : 20")},
//			{ID: "adidas", Bids: ssa.MustParseBids("Click AND Slot1 : 9")},
//		},
//	}
//	res, err := auction.Determine(ssa.RH)
//
// See the examples directory for complete programs and DESIGN.md for
// the module inventory.
package ssa

import (
	"math/rand"

	"repro/internal/broadmatch"
	"repro/internal/budget"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/formula"
	"repro/internal/journal"
	"repro/internal/kwmatch"
	"repro/internal/obs"
	"repro/internal/probmodel"
	"repro/internal/server"
	"repro/internal/sqlmini"
	"repro/internal/stream"
	"repro/internal/table"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Core auction types.
type (
	// Auction is one winner-determination instance: advertisers with
	// Bids tables plus a click/purchase probability model.
	Auction = core.Auction
	// Advertiser is one bidder.
	Advertiser = core.Advertiser
	// Result is a winner-determination outcome.
	Result = core.Result
	// Method selects a winner-determination algorithm.
	Method = core.Method
	// HeavyAuction is the Section III-F heavyweight/lightweight model.
	HeavyAuction = core.HeavyAuction
)

// Winner-determination methods.
const (
	// LP solves the assignment linear program with the simplex method.
	LP = core.MethodLP
	// H is the Hungarian algorithm on the full bipartite graph.
	H = core.MethodHungarian
	// RH is the paper's reduced-graph algorithm (Section III-E) — the
	// method to use.
	RH = core.MethodReduced
	// RHParallel is RH with a tree-parallel top-k phase.
	RHParallel = core.MethodReducedParallel
	// Separable is the pre-paper platforms' sort-based allocation;
	// valid only for separable click probabilities and Click-only bids.
	Separable = core.MethodSeparable
	// Brute enumerates all allocations (tiny inputs; testing).
	Brute = core.MethodBrute
)

// ErrNotOneDependent is returned when bids fall outside the tractable
// 1-dependent fragment of Theorem 2.
var ErrNotOneDependent = core.ErrNotOneDependent

// Determiner solves winner determination repeatedly without
// rebuilding per-call state: the Theorem 2 adjusted matrix and the
// reduced-Hungarian workspace are reused across Determine calls. One
// Determiner per serving goroutine.
type Determiner = core.Determiner

// NewDeterminer returns an empty Determiner; buffers grow to the
// largest auction seen.
func NewDeterminer() *Determiner { return core.NewDeterminer() }

// Bidding-language types.
type (
	// Formula is a Boolean combination of outcome predicates.
	Formula = formula.Expr
	// Bid is one Bids-table row: pay Value if F holds.
	Bid = formula.Bid
	// Bids is an advertiser's whole table (an OR-bid).
	Bids = formula.Bids
	// Outcome is a concrete auction outcome for formula evaluation.
	Outcome = formula.Outcome
)

// ParseFormula parses a bid formula, e.g. "Click AND (Slot1 OR Slot2)".
func ParseFormula(src string) (Formula, error) { return formula.Parse(src) }

// MustParseFormula is ParseFormula for literals; it panics on error.
func MustParseFormula(src string) Formula { return formula.MustParse(src) }

// ParseBids parses a textual Bids table, one "formula : value" row
// per line.
func ParseBids(src string) (Bids, error) { return formula.ParseBids(src) }

// MustParseBids is ParseBids for literals; it panics on error.
func MustParseBids(src string) Bids {
	b, err := formula.ParseBids(src)
	if err != nil {
		panic(err)
	}
	return b
}

// OneDependent reports whether f is a 1-dependent, heavyweight-free
// event — the fragment with polynomial winner determination.
func OneDependent(f Formula) bool { return formula.OneDependent(f) }

// Probability models.
type (
	// Model is a per-advertiser, per-slot click/purchase model.
	Model = probmodel.Model
	// HeavyModel conditions click probabilities on the heavyweight
	// pattern (Section III-F).
	HeavyModel = probmodel.HeavyModel
	// SeparableModel is the advertiser-factor × slot-factor special
	// case (Section III-C).
	SeparableModel = probmodel.Separable
)

// NewModel allocates a zeroed model for n advertisers and k slots.
func NewModel(n, k int) *Model { return probmodel.New(n, k) }

// ShadowFactors builds the natural heavyweight shadowing model: each
// heavyweight above a slot scales its click probability by 1−shadow.
func ShadowFactors(k int, shadow float64) [][]float64 {
	return probmodel.ShadowFactors(k, shadow)
}

// Bidding programs (the Section II language) and the relational
// substrate they run against: each advertiser's program owns a
// private database (its Keywords and Bids tables plus scalars the
// provider maintains) and is triggered by inserts into its Query
// table.
type (
	// Program is a compiled bidding program in the SQL-like dialect.
	Program = sqlmini.Program
	// DB is one bidding program's database.
	DB = table.DB
	// Table is a named relation with insert triggers.
	Table = table.Table
	// Column declares a table column.
	Column = table.Column
	// Row is one tuple.
	Row = table.Row
	// Value is a typed SQL value.
	Value = table.Value
)

// NewDB returns an empty program database.
func NewDB() *DB { return table.NewDB() }

// NewTable creates an empty table.
func NewTable(name string, cols ...Column) *Table { return table.New(name, cols...) }

// SQL value constructors and kinds.
var (
	Float  = table.Float
	String = table.String
)

// F makes a numeric SQL value; S a string value.
func F(f float64) Value { return table.F(f) }
func S(s string) Value  { return table.S(s) }

// CompileProgram compiles bidding-program source (see the Figure 5
// example under examples/roiprogram).
func CompileProgram(src string) (*Program, error) { return sqlmini.Compile(src) }

// Keyword matching: the provider-side pruning step of Section IV —
// only advertisers whose registered keywords overlap the query need
// their bidding programs evaluated.
type (
	// KeywordIndex is an inverted index from query tokens to
	// interested advertisers.
	KeywordIndex = kwmatch.Index
	// KeywordMatch is one scored (advertiser, keyword) hit.
	KeywordMatch = kwmatch.Match
	// KeywordScratch is the caller-owned workspace of the
	// allocation-free QueryInto/ScoreInto hot path.
	KeywordScratch = kwmatch.Scratch
)

// NewKeywordIndex returns an empty keyword index.
func NewKeywordIndex() *KeywordIndex { return kwmatch.New() }

// Simulation (the Section V evaluation world).
type (
	// SimInstance is a generated §V auction population.
	SimInstance = workload.Instance
	// SimWorld runs auctions under one winner-determination method:
	// one engine market driven sequentially.
	SimWorld = engine.Market
	// SimMethod selects the simulation pipeline (SimLP, SimH, SimRH,
	// SimRHTALU).
	SimMethod = engine.Method
	// SimOutcome reports one simulated auction.
	SimOutcome = engine.Outcome
)

// Simulation methods (Figure 12's four curves plus the parallel-RH
// ablation and the Section III-F heavyweight path).
const (
	SimLP         = engine.MethodLP
	SimH          = engine.MethodH
	SimRH         = engine.MethodRH
	SimRHTALU     = engine.MethodRHTALU
	SimRHParallel = engine.MethodRHParallel
	// SimHeavy serves the heavyweight/lightweight model: winner
	// determination enumerates the 2^k heavyweight patterns through a
	// reused determiner, and pricing plus the user simulation condition
	// on the realized pattern. Per-auction cost grows as 2^Slots; use
	// small slot counts.
	SimHeavy = engine.MethodHeavy
)

// SimPricing selects the payment rule of a simulation world or
// serving engine.
type SimPricing = engine.Pricing

// Payment rules: generalized second pricing (the Section V default)
// and Vickrey opportunity costs (Theorem 1's "very simple
// computation" given winner determination — one counterfactual solve
// per winner, run in reused workspaces on the serving path).
const (
	PricingGSP = engine.PricingGSP
	PricingVCG = engine.PricingVCG
)

// NewSimWorld builds a simulation world over inst with generalized
// second pricing. clickSeed drives the simulated user clicks; two
// worlds with equal instances and seeds see identical users.
func NewSimWorld(inst *SimInstance, m SimMethod, clickSeed int64) *SimWorld {
	return engine.NewMarketOpts(inst, SimWorldOpts{Method: m, ClickSeed: clickSeed})
}

// SimWorldOpts bundles every world-construction knob (method, payment
// rule, click seed, budget lane, reserve, and the MethodHeavy
// enumeration worker count HeavyParallelism); zero values are the
// defaults. For budget enforcement give the world the one lane of a
// single-lane ledger over inst.Budget (NewBudgetLedger(inst, 1, cfg)
// .Lane(0)): a sequential world serves every keyword from one market,
// so cross-keyword budgets are exact there, with no snapshot staleness.
type SimWorldOpts = engine.MarketOpts

// NewSimWorldOpts builds a simulation world from an options bundle.
func NewSimWorldOpts(inst *SimInstance, o SimWorldOpts) *SimWorld {
	return engine.NewMarketOpts(inst, o)
}

// Concurrent serving (the keyword-sharded engine).
type (
	// Engine is the concurrent keyword-sharded serving engine: one
	// independent market per keyword, one persistent worker goroutine
	// per shard (started by NewEngine, stopped by Close), bounded
	// queues with backpressure, and per-keyword sequential equivalence
	// to SimWorld as its correctness contract.
	Engine = engine.Engine
	// EngineConfig tunes shard count, queue depth, winner-determination
	// method, payment rule (GSP or VCG), click seed, and the keyword
	// catalog for text routing.
	EngineConfig = engine.Config
	// EngineStats aggregates one Engine.Serve call: revenue, clicks,
	// fill rate, throughput, and latency percentiles.
	EngineStats = engine.Stats
)

// NewEngine builds a serving engine over a Section V instance and
// starts its shard workers; Close it when done.
func NewEngine(inst *SimInstance, cfg EngineConfig) *Engine {
	return engine.New(inst, cfg)
}

// KeywordClickSeed derives the click seed of one keyword's market
// from an engine's base seed — the seed to give a sequential SimWorld
// that replays a single keyword's auctions.
func KeywordClickSeed(base int64, q int) int64 { return engine.KeywordSeed(base, q) }

// Open-world streaming (the long-running serving layer).
type (
	// StreamServer is the long-running open-world front end over the
	// sharded engine: Submit and SubmitText feed the engine's shard
	// workers through bounded queues with a block-or-shed admission policy,
	// live advertiser churn applied at auction boundaries through
	// per-shard epoch fences, and a graceful Close that drains every
	// queue and flushes the final statistics. Its contract is the
	// engine's, extended across churn: post-churn outcomes are
	// byte-identical to a freshly built engine over the post-churn
	// population.
	StreamServer = stream.Server
	// StreamConfig tunes a streaming server: the wrapped EngineConfig,
	// the overload policy, the rolling stats window, and an optional
	// per-auction outcome sink.
	StreamConfig = stream.Config
	// StreamStats is one streaming snapshot: admission accounting
	// (Submitted == Served + Shed after a drain), rolling-window
	// latency percentiles and throughput, churn epoch, and the
	// per-shard breakdown.
	StreamStats = stream.Stats
	// StreamPolicy selects what a saturated shard queue means to
	// Submit: OverloadBlock (backpressure) or OverloadShed (wait-free
	// rejection, counted per shard).
	StreamPolicy = stream.Policy
	// SimAdvertiser is one bidder row detached from an instance — the
	// unit of live churn.
	SimAdvertiser = workload.Advertiser
	// SimStream is a deterministic open-world arrival generator:
	// Poisson or bursty interarrivals, optional Zipf keyword skew,
	// scripted churn events.
	SimStream = workload.Stream
	// SimStreamConfig shapes a SimStream.
	SimStreamConfig = workload.StreamConfig
	// SimStreamEvent is one arrival: a keyword query or a churn event.
	SimStreamEvent = workload.Event
	// SimChurnEvent is one scripted population change.
	SimChurnEvent = workload.ChurnEvent
)

// Overload policies for StreamConfig.
const (
	OverloadBlock = stream.Block
	OverloadShed  = stream.Shed
)

// NewStreamServer starts a streaming server over a Section V instance;
// its shard workers are live immediately.
func NewStreamServer(inst *SimInstance, cfg StreamConfig) *StreamServer {
	return stream.NewServer(inst, cfg)
}

// NewSimStream builds a deterministic open-world arrival stream over
// inst's keyword catalog.
func NewSimStream(inst *SimInstance, seed int64, cfg SimStreamConfig) *SimStream {
	return workload.NewStream(inst, rand.New(rand.NewSource(seed)), cfg)
}

// RandomAdvertiser draws one advertiser from the Section V population
// distribution — the newcomer source for live churn.
func RandomAdvertiser(seed int64, inst *SimInstance) SimAdvertiser {
	return workload.RandomAdvertiser(rand.New(rand.NewSource(seed)), inst.Slots, inst.Keywords)
}

// ScriptChurn draws a valid churn timeline of n events spread evenly
// over a stream of totalQueries, alternating admissions and evictions.
func ScriptChurn(seed int64, inst *SimInstance, n, totalQueries int) []SimChurnEvent {
	return workload.ScriptChurn(rand.New(rand.NewSource(seed)), inst, n, totalQueries)
}

// Probabilistic broad match (internal/broadmatch): multi-token
// queries fan out to every keyword market whose name scores at least
// a relevance threshold under kwmatch subset scoring, with seeded,
// replayable per-(query,keyword) match draws; the highest-relevance
// admitted market serves the impression with its bids squashed by
// relevance^Squash and reserve-filtered, and the losers are counted
// as overmatched. Enable it by setting EngineConfig.Broadmatch (and
// optionally EngineConfig.Reserve); neutral knobs (threshold 1,
// squash 1, reserve 0) are byte-identical to exact routing.
type (
	// BroadmatchConfig tunes the router: Enabled, Threshold, Squash,
	// and the match-draw Seed.
	BroadmatchConfig = broadmatch.Config
	// BroadmatchRouter scores and probabilistically admits candidate
	// markets for free-text queries.
	BroadmatchRouter = broadmatch.Router
	// BroadmatchCandidate is one admitted (keyword, relevance, weight)
	// candidate.
	BroadmatchCandidate = broadmatch.Candidate
)

// NewBroadmatchRouter builds a standalone broad-match router over a
// keyword catalog; engines build their own from
// EngineConfig.Broadmatch and EngineConfig.KeywordNames.
func NewBroadmatchRouter(names []string, cfg BroadmatchConfig) *BroadmatchRouter {
	return broadmatch.New(names, cfg)
}

// BigramKeywordNames names a catalog so adjacent keywords share one
// token (keyword q is "t<q> t<q+1>") — the fractional-relevance
// catalog that makes broad match reachable from generated workloads.
func BigramKeywordNames(keywords int) []string {
	return workload.BigramKeywordNames(keywords)
}

// TextQueries draws t deterministic multi-token free-text queries of
// 1…maxTokens tokens over the bigram catalog's vocabulary, with Zipf
// token skew zipfS when > 1 — the batch twin of the SimStream's
// TextTokens mode.
func TextQueries(seed int64, keywords, t, maxTokens int, zipfS float64) []string {
	return workload.TextQueries(rand.New(rand.NewSource(seed)), keywords, t, maxTokens, zipfS)
}

// Cross-keyword budgets (the internal/budget subsystem): per-advertiser
// daily caps enforced across every keyword market through an
// eventually-consistent sharded spend ledger — wait-free snapshot
// reads on the auction hot path, per-market deltas published on a
// refresh cadence, documented overspend bound of
// lanes × refresh × max-per-auction-price, and exact totals after a
// drain.
type (
	// BudgetConfig tunes enforcement: the policy, the snapshot refresh
	// cadence, the pacing horizon, and the pacing seed. Budgets
	// themselves live on the instance (SimInstance.Budget,
	// SimAdvertiser.Budget).
	BudgetConfig = budget.Config
	// BudgetPolicy selects the enforcement rule.
	BudgetPolicy = budget.Policy
	// BudgetLedger is one population's cross-keyword spend state;
	// Engine.Ledger and StreamServer expose it for inspection.
	BudgetLedger = budget.Ledger
	// BudgetLane is one market's slice of the ledger.
	BudgetLane = budget.Lane
)

// Budget enforcement policies.
const (
	// PolicyOff disables the subsystem (the default): outcomes are
	// byte-identical to an engine without budget support.
	PolicyOff = budget.PolicyOff
	// PolicyHard excludes an advertiser once its spend estimate
	// reaches the cap — the serving-side analogue of the bidding
	// language's budget-guard program.
	PolicyHard = budget.PolicyHard
	// PolicyPaced throttles participation deterministically to smooth
	// spend across the configured horizon, hard-stopping at the cap.
	PolicyPaced = budget.PolicyPaced
)

// AttachBudgets overlays per-advertiser daily budgets on a generated
// instance, scaled so an on-target advertiser exhausts its cap after
// roughly meanAuctions auctions (uniform in [0.5, 1.5)×). The base
// population draws are untouched.
func AttachBudgets(seed int64, inst *SimInstance, meanAuctions float64) {
	workload.AttachBudgets(rand.New(rand.NewSource(seed)), inst, meanAuctions)
}

// NewBudgetLedger builds a fresh spend ledger over inst.Budget with
// the given number of lanes (one per market that will charge it).
func NewBudgetLedger(inst *SimInstance, lanes int, cfg BudgetConfig) *BudgetLedger {
	return budget.NewLedger(inst.N, lanes, inst.Budget, cfg)
}

// Durable budgets (the internal/journal subsystem): budget spend is
// the one piece of engine state that must legally survive a restart,
// and the spend journal makes it do so — an append-only checksummed
// record log with periodic snapshot compaction, crash recovery that
// reconstructs ledger totals bit-exactly from snapshot + tail, and
// journaled epochs for churn rebuilds and budget resets. Attach via
// EngineConfig.Journal (the engine owns and closes the writer) or
// BudgetLedger.AttachJournal directly; resume a crashed process with
// RecoverSpendJournal + EngineConfig.Restore.
type (
	// SpendJournal is the durable journal writer (journal.Writer).
	SpendJournal = journal.Writer
	// SpendJournalOptions tunes fsync policy, snapshot-compaction
	// interval, and batch sizing.
	SpendJournalOptions = journal.Options
	// SpendJournalStats is a point-in-time writer summary.
	SpendJournalStats = journal.Stats
	// SpendJournalRecovery is the result of replaying a journal
	// directory: the recovered state plus replay/corruption
	// diagnostics.
	SpendJournalRecovery = journal.Recovery
	// SpendLedgerState is the journal's view of a budget ledger — what
	// recovery returns and EngineConfig.Restore consumes.
	SpendLedgerState = journal.LedgerState
)

// Journal fsync policies: FsyncNever survives process crashes (records
// reach the kernel before AppendSpend returns), FsyncAlways also
// survives power loss at a large throughput cost.
const (
	FsyncNever  = journal.FsyncNever
	FsyncAlways = journal.FsyncAlways
)

// OpenSpendJournal opens (creating if needed) the spend journal in
// dir. Attach it to a ledger via EngineConfig.Journal or
// BudgetLedger.AttachJournal before serving.
func OpenSpendJournal(dir string, opts SpendJournalOptions) (*SpendJournal, error) {
	return journal.Open(dir, opts)
}

// RecoverSpendJournal replays the journal directory and returns the
// recovered ledger state (bitwise equal to the last flushed spend)
// plus diagnostics. Corruption is reported, never fatal: the longest
// valid prefix is recovered.
func RecoverSpendJournal(dir string) (*SpendJournalRecovery, error) {
	return journal.Recover(dir)
}

// RestoreBudgetLedger rebuilds a budget ledger from a recovered
// journal state: every advertiser resumes with exactly the journaled
// spend. budgets come from the instance (population state is not
// journaled); pass inst.Budget.
func RestoreBudgetLedger(st *SpendLedgerState, budgets []float64, cfg BudgetConfig) *BudgetLedger {
	return budget.NewLedgerState(st, budgets, cfg)
}

// Networked serving tier (internal/wire + internal/server +
// internal/client): a StreamServer behind TCP speaking a
// length-prefixed, CRC-checked binary frame protocol, with
// per-connection windowed admission control layered over the stream
// policy, and a pipelined client driver on the other end.
type (
	// NetServer is a listening networked serving tier (server.Server):
	// a StreamServer wrapped in the wire protocol with a connection
	// cap, per-connection in-flight windows, and the exact four-way
	// accounting identity submitted == served + shed + rejected.
	NetServer = server.Server
	// NetServerConfig tunes the networked tier — the wrapped
	// StreamConfig plus connection cap, window size, frame limit, and
	// handshake/drain timeouts.
	NetServerConfig = server.Config
	// NetClient is one client connection (client.Conn): synchronous
	// typed calls, safe for concurrent use — concurrent callers
	// pipeline onto the single connection up to its window.
	NetClient = client.Conn
	// NetClientOptions tunes a client connection (window, timeouts).
	NetClientOptions = client.Options
	// NetOutcome is an auction outcome as decoded from the wire,
	// bit-exact with the serving engine's outcome.
	NetOutcome = wire.Outcome
	// NetServerStats is the server-side stats snapshot a client can
	// request over the wire (also returned by a graceful drain): the
	// counter block plus the server's lifetime auction-latency
	// histogram, so a remote client can compute any percentile without
	// a metrics endpoint (NetServerStats.Latency).
	NetServerStats = wire.ServerStats
)

// ListenNetServer builds the stream server over inst, binds addr
// (e.g. "127.0.0.1:0"), and starts accepting wire-protocol clients.
func ListenNetServer(addr string, inst *SimInstance, cfg NetServerConfig) (*NetServer, error) {
	return server.Listen(addr, inst, cfg)
}

// DialNetClient connects to a NetServer (or auctionsim -serve) and
// performs the protocol handshake.
func DialNetClient(addr string, opts NetClientOptions) (*NetClient, error) {
	return client.Dial(addr, opts)
}

// Observability (internal/obs): every serving layer above records
// into a preregistered metrics registry — padded per-shard atomic
// counters, single-writer float cells, render-time gauges, and
// fixed-bucket log-scale latency histograms — with wait-free,
// zero-allocation writes on the hot path. Engine.Metrics() exposes a
// serving stack's registry (the stream and networked tiers share
// their engine's); ServeMetrics puts it behind HTTP as Prometheus
// text plus pprof, and a TraceRing holds sampled per-auction
// lifecycle traces.
type (
	// MetricsRegistry is a fixed set of named metrics rendered in
	// Prometheus text exposition format (obs.Registry).
	MetricsRegistry = obs.Registry
	// MetricsCounter is a monotone counter striped into per-lane
	// padded cells — wait-free Add/Inc, aggregated at read.
	MetricsCounter = obs.Counter
	// MetricsFloatCounter accumulates float64 sums in single-writer
	// lanes, bit-for-bit equal to sequential accumulation per lane.
	MetricsFloatCounter = obs.FloatCounter
	// LatencyHistogram is a fixed-bucket log-scale histogram:
	// lock-free recording, quantiles within 3.2% relative error.
	LatencyHistogram = obs.Histogram
	// LatencySnapshot is a point-in-time histogram copy with
	// Quantile and Merge.
	LatencySnapshot = obs.HistSnapshot
	// EngineMetrics is the serving stack's instrument set
	// (engine.Metrics), reachable from Engine.Metrics().
	EngineMetrics = engine.Metrics
	// TraceRing is a fixed-capacity ring of sampled per-auction
	// lifecycle traces (obs.TraceRing), JSON-dumpable.
	TraceRing = obs.TraceRing
	// TraceEvent is one sampled auction's lifecycle timestamps.
	TraceEvent = obs.TraceEvent
	// MetricsServer is a live HTTP exposition endpoint
	// (obs.HTTPServer): /metrics, /debug/pprof, /trace.
	MetricsServer = obs.HTTPServer
)

// NewMetricsRegistry builds an empty registry for callers composing
// their own instruments (the serving stack builds its own — see
// Engine.Metrics).
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// ServeMetrics exposes reg (and, when ring is non-nil, the trace
// dump) over HTTP on addr ("127.0.0.1:0" binds an ephemeral port).
func ServeMetrics(addr string, reg *MetricsRegistry, ring *TraceRing) (*MetricsServer, error) {
	return obs.Serve(addr, reg, ring)
}

// GenerateInstance draws a Section V workload: n advertisers, k
// slots, the given keyword count, click values uniform on {0,…,50},
// slot-interval click probabilities.
func GenerateInstance(seed int64, n, k, keywords int) *SimInstance {
	return workload.Generate(rand.New(rand.NewSource(seed)), n, k, keywords)
}

// GenerateHeavyInstance is GenerateInstance plus the Section III-F
// population overlay: each advertiser is independently a heavyweight
// with probability heavyFrac, and shadow sets the click-shadowing
// strength heavyweights exert on slots below them (SimHeavy markets
// condition click probabilities on the realized heavyweight pattern
// through it).
func GenerateHeavyInstance(seed int64, n, k, keywords int, heavyFrac, shadow float64) *SimInstance {
	return workload.GenerateHeavy(rand.New(rand.NewSource(seed)), n, k, keywords, heavyFrac, shadow)
}

// QueryStream draws t queries, one uniform keyword each.
func QueryStream(inst *SimInstance, seed int64, t int) []int {
	return inst.Queries(rand.New(rand.NewSource(seed)), t)
}

// Section V workload defaults. MaxClickValue is the P in the budget
// subsystem's K·R·P overspend bound — the largest per-auction charge
// the workload generator can draw.
const (
	DefaultSlots    = workload.DefaultSlots
	DefaultKeywords = workload.DefaultKeywords
	MaxClickValue   = workload.MaxClickValue
)
