// Command auctionsim runs the Section V auction market and reports
// market-level statistics: provider revenue, fill rate, click-through
// volume, and a distribution summary of advertiser spending against
// targets. It is the "operator's view" of the simulation — useful for
// sanity-checking workloads and for exploring how the ROI-equalizing
// population behaves over time.
//
// With -engine it becomes a load generator for the concurrent
// keyword-sharded serving engine: queries are fanned out across
// -shards worker goroutines over bounded queues, and every report
// window prints end-to-end throughput plus p50/p99 per-auction
// service latency. The -method flag selects the winner-determination
// pipeline in both modes — rh (reduced Hungarian, explicit program
// evaluation), rh-talu (the Section IV threshold algorithm + logical
// updates, the allocation-free fast path), h (full Hungarian), lp
// (assignment LP), or heavy (the Section III-F heavyweight 2^k
// pattern enumeration; per-auction cost grows as 2^slots, so pair it
// with a small -slots) — so the load generator can drive and compare
// every engine method. Method names are case-insensitive; RHTALU and
// rh-talu are synonyms. The -pricing flag selects the payment rule:
// gsp (generalized second pricing, the default) or vcg (Vickrey
// opportunity costs via per-winner counterfactual solves). Unknown
// -method or -pricing values are rejected with the list of valid
// names.
//
// With -stream it becomes an open-world load generator against the
// streaming server: arrivals are paced to -qps for -duration (Poisson
// by default; -burst > 1 adds on/off bursts and -zipf > 1 skews
// keyword popularity), -churn scripted advertiser add/remove events
// are applied live at auction boundaries, and -overload picks the
// admission policy when a shard queue saturates — block (backpressure)
// or shed (never block the submitter; dropped queries are counted,
// never silently lost). A rolling status line prints every -report
// auctions' worth of window, and the final drain flushes cumulative
// accounting plus the per-shard breakdown.
//
// With -broadmatch t (engine or stream mode) queries become free text
// over the bigram keyword catalog and the probabilistic broad-match
// router fans each query out to every keyword whose name scores at
// least t under subset relevance scoring; per-(query,keyword) match
// draws are seeded and replayable, the highest-relevance admitted
// market serves the impression, and the matched-but-unserved rest are
// counted as overmatched. -squash e weights eligible bids by
// relevance^e before GSP/VCG pricing, and -reserve r (also available
// without -broadmatch) excludes effective bids below the reserve and
// floors charged prices at it. The drained accounting identity
// becomes submitted == served + shed + unrouted + overmatched.
// Invalid knob values, -broadmatch outside -engine/-stream, and
// -broadmatch with -serve/-connect (the wire protocol carries keyword
// ids, not text) are rejected.
//
// With -budget N (in every mode but -connect) each advertiser gets a daily budget
// scaled so an on-target spender exhausts it after roughly N
// auctions, and the cross-keyword budget subsystem enforces the caps:
// -budget-policy picks hard (excluded at the cap, like the bidding
// language's budget-guard program) or paced (deterministic throttling
// that smooths spend across the run), and -budget-refresh sets the
// spend-ledger snapshot cadence in per-keyword auctions (the
// eventual-consistency knob: smaller is tighter, larger is cheaper).
// A budget summary line — total enforced spend, advertisers at their
// caps, gate denials — is printed after the run.
//
// With -journal <dir> (requires -budget) every charge is batched into
// an append-only, checksummed spend journal with periodic snapshot
// compaction, and the drain summary compares the journaled total
// against the in-memory ledger. -fsync picks the durability point:
// never (default) keeps records in the kernel page cache — they
// survive a SIGKILL but not power loss — while always fsyncs every
// append. A later run with the same population flags plus -recover
// replays the journal first, prints a recovery summary (recovered
// advertisers, replayed records, snapshot age, any corruption), and
// resumes serving from the recovered spend state; -recover without
// -journal is rejected.
//
// With -serve <addr> it becomes the networked serving tier: the
// streaming server is put behind TCP speaking the internal/wire frame
// protocol, and the process blocks until a client requests a graceful
// drain over the wire, then prints the connection-layer accounting
// identity (submitted == served + shed + rejected), the stream
// drain summary, and — with budgets — a bitwise spend fingerprint.
// With -connect <addr> it is the matching load generator: -conns
// connections times -pipeline concurrent workers drive -auctions
// auctions through a serving process (typically a separate OS
// process) and print client-side dispositions with end-to-end
// latency percentiles; -resets fences the run with mid-traffic budget
// resets, and -drain finishes by draining the server. The CI network
// soak runs one -serve and several -connect processes over loopback
// and checks the two sides' counters agree exactly.
//
// The five modes — world (the default), -engine, -stream, -serve and
// -connect — are the rows of one mode table, which also names every
// flag each mode reads. The command exits 2 with the usage when more
// than one mode is selected, when a flag is set that the chosen mode
// does not read, or when a value is out of range.
//
// Usage:
//
//	auctionsim -n 2000 -auctions 5000 -method rh-talu -report 1000
//	auctionsim -engine -method rh-talu -shards 8 -queue 256 -n 2000 -auctions 200000
//	auctionsim -method heavy -pricing vcg -slots 6 -n 500 -heavy-frac 0.2 -shadow 0.3
//	auctionsim -stream -qps 3000 -duration 10s -churn 6 -overload shed -zipf 1.2
//	auctionsim -engine -broadmatch 0.4 -squash 0.5 -reserve 3 -zipf 1.2 -auctions 50000
//	auctionsim -stream -broadmatch 0.4 -reserve 3 -qps 3000 -duration 10s
//	auctionsim -engine -budget 300 -budget-policy paced -budget-refresh 32 -auctions 20000
//	auctionsim -stream -budget 200 -journal /var/tmp/ssa-journal -duration 10s
//	auctionsim -stream -budget 200 -journal /var/tmp/ssa-journal -recover -duration 10s
//	auctionsim -serve 127.0.0.1:7071 -method rh-talu -budget 200 -journal /var/tmp/ssa-journal
//	auctionsim -connect 127.0.0.1:7071 -conns 4 -pipeline 8 -auctions 100000 -drain
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/broadmatch"
	"repro/internal/budget"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/workload"
)

// options holds every flag's parsed value. The random streams derive
// from seed: +1 queries, +2 clicks, +3 stream arrivals and churn, +4
// budget pacing, +5 broad-match draws, +6 broad-match query texts.
type options struct {
	n, slots, keywords, auctions int
	method                       engine.Method
	pricing                      engine.Pricing
	heavyFrac, shadow            float64
	heavyPar, report             int
	seed                         int64

	shards, queue int

	qps         float64
	duration    time.Duration
	churn       int
	overload    stream.Policy
	zipf, burst float64

	broadmatch, reserve, squash float64

	budgetAt      float64
	budgetPolicy  budget.Policy
	budgetRefresh int
	journalDir    string
	recover       bool
	fsync         journal.Fsync

	serve, connect  string
	conns, pipeline int
	drain           bool
	resets          int

	metricsAddr string
	traceSample int
}

// mode is one row of the mode table: the selector flag that picks it
// ("" for the default), the other flags it reads, and its run
// function. The table is the one place that says which modes accept a
// flag: parseArgs rejects every set flag the chosen mode does not read.
type mode struct {
	name, selector string
	flags          string // space-separated flag names
	run            func(*options)
}

// Flag groups shared by several rows of the mode table.
const (
	population = "n slots keywords method pricing heavy-frac shadow heavy-parallel seed"
	budgets    = " budget budget-policy budget-refresh journal recover fsync"
	sharded    = " shards queue metrics-addr trace-sample"
	broad      = " broadmatch squash reserve zipf"
)

var modes = []mode{
	{"world", "", population + budgets + " auctions report", runWorld},
	{"engine", "engine", population + budgets + sharded + broad + " auctions report", runEngine},
	{"stream", "stream", population + budgets + sharded + broad + " report qps duration churn overload burst", runStream},
	{"serve", "serve", population + budgets + sharded + " auctions overload", runServe},
	{"connect", "connect", "keywords auctions seed conns pipeline resets drain metrics-addr", runConnect},
}

// enum is a flag whose value is one of a fixed set of names: Set looks
// the name up case-insensitively and stores the value it selects. It
// is the one parser behind -method, -pricing, -overload,
// -budget-policy and -fsync.
type enum[T any] struct {
	dst   *T
	names map[string]T
}

// choice sets *dst to its default and returns the flag value that
// parses one of names into it.
func choice[T any](dst *T, def T, names map[string]T) enum[T] {
	*dst = def
	return enum[T]{dst, names}
}

func (e enum[T]) String() string {
	if e.dst == nil {
		return ""
	}
	return fmt.Sprint(*e.dst)
}

func (e enum[T]) Set(s string) error {
	v, ok := e.names[strings.ToLower(s)]
	if !ok {
		return fmt.Errorf("want one of %s", strings.Join(slices.Sorted(maps.Keys(e.names)), ", "))
	}
	*e.dst = v
	return nil
}

// newFlags declares every flag, parsing into o. The boolean selectors
// -engine and -stream only pick the mode, which parseArgs reads off the
// flag set.
func newFlags(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("auctionsim", flag.ContinueOnError)
	fs.IntVar(&o.n, "n", 2000, "number of advertisers")
	fs.IntVar(&o.slots, "slots", workload.DefaultSlots, "number of slots (k)")
	fs.IntVar(&o.keywords, "keywords", workload.DefaultKeywords, "number of keywords")
	fs.IntVar(&o.auctions, "auctions", 5000, "number of auctions to run")
	fs.Var(choice(&o.method, engine.MethodRHTALU, map[string]engine.Method{
		"lp": engine.MethodLP, "h": engine.MethodH, "rh": engine.MethodRH,
		"rh-talu": engine.MethodRHTALU, "rhtalu": engine.MethodRHTALU, "talu": engine.MethodRHTALU,
		"rh-parallel": engine.MethodRHParallel, "rhparallel": engine.MethodRHParallel, "heavy": engine.MethodHeavy,
	}), "method", "winner determination: lp, h, rh, rh-talu (alias RHTALU), rh-parallel, heavy")
	fs.Var(choice(&o.pricing, engine.PricingGSP, map[string]engine.Pricing{
		"gsp": engine.PricingGSP, "vcg": engine.PricingVCG,
	}), "pricing", "payment rule: gsp, vcg")
	fs.Float64Var(&o.heavyFrac, "heavy-frac", 0.2, "heavyweight advertiser fraction (method heavy)")
	fs.Float64Var(&o.shadow, "shadow", 0.3, "heavyweight click-shadowing strength (method heavy)")
	fs.IntVar(&o.heavyPar, "heavy-parallel", 0, "method heavy: pattern-enumeration workers per market (0 = GOMAXPROCS, 1 = sequential)")
	fs.IntVar(&o.report, "report", 1000, "print a summary every this many auctions")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.Bool("engine", false, "serve through the concurrent sharded engine (load-generator mode)")
	fs.IntVar(&o.shards, "shards", 0, "engine worker shards (0 = GOMAXPROCS, capped at keywords)")
	fs.IntVar(&o.queue, "queue", 0, "engine per-shard queue depth (0 = default)")
	fs.Bool("stream", false, "serve an open-world stream through the long-running streaming server")
	fs.Float64Var(&o.qps, "qps", 2000, "mean arrival rate")
	fs.DurationVar(&o.duration, "duration", 5*time.Second, "stream length")
	fs.IntVar(&o.churn, "churn", 0, "scripted advertiser add/remove events over the run")
	fs.Var(choice(&o.overload, stream.Block, map[string]stream.Policy{
		"block": stream.Block, "shed": stream.Shed,
	}), "overload", "admission policy at queue saturation: block, shed")
	fs.Float64Var(&o.zipf, "zipf", 0, "Zipf keyword- or token-popularity exponent (> 1; 0 = uniform)")
	fs.Float64Var(&o.broadmatch, "broadmatch", 0, "broad-match relevance threshold in (0, 1]: route free-text queries to every keyword scoring at least this (0 = exact routing)")
	fs.Float64Var(&o.reserve, "reserve", 0, "per-click reserve price: bids below reserve/weight are excluded and prices floored at the reserve")
	fs.Float64Var(&o.squash, "squash", 1, "broad-match squashing exponent: eligible bids are weighted by relevance^squash before pricing (needs -broadmatch)")
	fs.Float64Var(&o.burst, "burst", 1, "burst rate factor (> 1 enables on/off bursts)")
	fs.Float64Var(&o.budgetAt, "budget", 0, "attach daily budgets scaled to this many on-target auctions and enforce them (0 = budgets off)")
	fs.Var(choice(&o.budgetPolicy, budget.PolicyHard, map[string]budget.Policy{
		"hard": budget.PolicyHard, "paced": budget.PolicyPaced,
	}), "budget-policy", "budget enforcement: hard (exclude at cap), paced (smooth spend over the run)")
	fs.IntVar(&o.budgetRefresh, "budget-refresh", 0, "budget ledger snapshot refresh, in per-keyword auctions (0 = default)")
	fs.StringVar(&o.journalDir, "journal", "", "durable spend-journal directory (requires -budget); spend is batched, checksummed, and compacted there")
	fs.BoolVar(&o.recover, "recover", false, "replay the -journal directory before serving and resume from the recovered spend state")
	fs.Var(choice(&o.fsync, journal.FsyncNever, map[string]journal.Fsync{
		"never": journal.FsyncNever, "always": journal.FsyncAlways,
	}), "fsync", "journal durability: never (kernel page cache — survives SIGKILL), always (fsync every append — survives power loss)")
	fs.StringVar(&o.serve, "serve", "", "serve mode: listen for networked wire-protocol clients on this address and block until a client drains the server")
	fs.StringVar(&o.connect, "connect", "", "connect mode: drive auctions against a -serve process at this address")
	fs.IntVar(&o.conns, "conns", 2, "client connections to open")
	fs.IntVar(&o.pipeline, "pipeline", 4, "concurrent in-flight workers per connection")
	fs.BoolVar(&o.drain, "drain", false, "request a graceful server drain after the load finishes")
	fs.IntVar(&o.resets, "resets", 0, "budget resets fenced into the run at even intervals")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "expose live /metrics (Prometheus text), /debug/pprof, and /trace on this HTTP address")
	fs.IntVar(&o.traceSample, "trace-sample", 0, "record every Nth auction into the in-memory trace ring, dumpable at /trace (0 = off)")
	return fs
}

// parseArgs parses args, picks the mode and validates the options: at
// most one mode selector, only flags the mode reads, then the value
// checks. It prints nothing and never exits; main reports the error.
func parseArgs(args []string) (*options, mode, error) {
	o := new(options)
	fs := newFlags(o)
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		return nil, mode{}, err
	}
	if fs.NArg() > 0 {
		return nil, mode{}, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	m := modes[0]
	for _, c := range modes[1:] {
		if v := fs.Lookup(c.selector).Value.String(); v == "" || v == "false" {
			continue
		}
		if m.selector != "" {
			return nil, mode{}, fmt.Errorf("-%s and -%s each select a mode; pick one", m.selector, c.selector)
		}
		m = c
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && f.Name != m.selector && !slices.Contains(strings.Fields(m.flags), f.Name) {
			err = fmt.Errorf("-%s is not read in %s mode", f.Name, m.name)
		}
	})
	if err != nil {
		return nil, mode{}, err
	}
	return o, m, o.check()
}

// check rejects out-of-range values and flags missing the flag they
// need.
func (o *options) check() error {
	switch {
	case o.n <= 0:
		return fmt.Errorf("-n wants a positive advertiser count, got %d", o.n)
	case o.keywords <= 0:
		return fmt.Errorf("-keywords wants a positive keyword count, got %d", o.keywords)
	case o.auctions <= 0:
		return fmt.Errorf("-auctions wants a positive auction count, got %d", o.auctions)
	case o.report <= 0:
		return fmt.Errorf("-report wants a positive window in auctions, got %d", o.report)
	case o.qps <= 0:
		return fmt.Errorf("-qps wants a positive arrival rate, got %v", o.qps)
	case o.duration <= 0:
		return fmt.Errorf("-duration wants a positive stream length, got %v", o.duration)
	case o.method == engine.MethodHeavy && o.slots > 20:
		return fmt.Errorf("-method heavy enumerates 2^slots patterns and needs -slots <= 20, got %d", o.slots)
	case o.heavyPar < 0:
		return fmt.Errorf("-heavy-parallel wants a non-negative worker count (0 = GOMAXPROCS), got %d", o.heavyPar)
	case o.broadmatch < 0 || o.broadmatch > 1:
		return fmt.Errorf("-broadmatch wants a relevance threshold in (0, 1] (0 = exact routing), got %v", o.broadmatch)
	case o.reserve < 0:
		return fmt.Errorf("-reserve wants a non-negative per-click price, got %v", o.reserve)
	case o.squash <= 0:
		return fmt.Errorf("-squash wants a positive exponent (1 = rank by raw relevance), got %v", o.squash)
	case o.traceSample < 0:
		return fmt.Errorf("-trace-sample wants a non-negative sampling period (0 = off), got %d", o.traceSample)
	case o.squash != 1 && o.broadmatch == 0:
		return errors.New("-squash weights broad-match candidates and needs -broadmatch > 0")
	case o.journalDir != "" && o.budgetAt <= 0:
		return errors.New("-journal records budget spend and needs -budget > 0")
	case o.recover && o.journalDir == "":
		return errors.New("-recover replays a journal and needs -journal <dir> to say which one")
	}
	return nil
}

// usage prints the mode table and every flag's default to stderr.
func usage() {
	fmt.Fprintln(os.Stderr, "usage: auctionsim [mode selector] [flags]; each mode accepts only the flags listed:")
	for _, m := range modes {
		sel := "(default)"
		if m.selector != "" {
			sel = "-" + m.selector
		}
		fmt.Fprintf(os.Stderr, "  %-8s %-9s %s\n", m.name, sel, m.flags)
	}
	newFlags(new(options)).PrintDefaults()
}

func main() {
	o, m, err := parseArgs(os.Args[1:])
	switch {
	case errors.Is(err, flag.ErrHelp):
		usage()
	case err != nil:
		fmt.Fprintln(os.Stderr, "auctionsim:", err)
		usage()
		os.Exit(2)
	default:
		m.run(o)
	}
}

// fatal reports a failure at run time (not a usage error) and exits 1.
func fatal(what string, err error) {
	fmt.Fprintln(os.Stderr, "auctionsim:", what, err)
	os.Exit(1)
}

// startMetrics exposes reg (plus /debug/pprof and, when ring is
// non-nil, the /trace dump) over HTTP and prints the bound address in
// the same machine-parseable shape the serve-mode listener uses, so
// the network soak can scrape a child's endpoint mid-traffic.
func startMetrics(addr string, reg *obs.Registry, ring *obs.TraceRing) *obs.HTTPServer {
	hs, err := obs.Serve(addr, reg, ring)
	if err != nil {
		fatal("metrics:", err)
	}
	fmt.Printf("metrics: listening addr=%s\n", hs.Addr())
	return hs
}

// engineConfig regenerates the population from -seed and builds the
// one engine configuration the modes serve it with; the sequential
// world's single market reads only its method, pricing, click, budget,
// journal and restore fields. With -budget it attaches budgets paced
// over traffic auctions spread across lanes budget lanes (one per
// keyword market; one in all for the sequential world), then opens the
// journal, replaying it first with -recover. The reserve applies with
// or without broad match; the router and the bigram catalog names only
// when -broadmatch is on.
func engineConfig(o *options, lanes, traffic int) (*workload.Instance, engine.Config) {
	rng := rand.New(rand.NewSource(o.seed))
	var inst *workload.Instance
	if o.method == engine.MethodHeavy {
		inst = workload.GenerateHeavy(rng, o.n, o.slots, o.keywords, o.heavyFrac, o.shadow)
	} else {
		inst = workload.Generate(rng, o.n, o.slots, o.keywords)
	}
	cfg := engine.Config{
		Shards:           o.shards,
		QueueDepth:       o.queue,
		Method:           o.method,
		Pricing:          o.pricing,
		ClickSeed:        o.seed + 2,
		HeavyParallelism: o.heavyPar,
		TraceSample:      o.traceSample,
		Reserve:          o.reserve,
	}
	if o.broadmatch > 0 {
		cfg.KeywordNames = workload.BigramKeywordNames(o.keywords)
		cfg.Broadmatch = broadmatch.Config{Enabled: true, Threshold: o.broadmatch, Squash: o.squash, Seed: o.seed + 5}
	}
	if o.budgetAt <= 0 {
		return inst, cfg
	}
	workload.AttachBudgets(rng, inst, o.budgetAt)
	// The pacing horizon is per lane. The per-keyword split assumes
	// uniform traffic: under -zipf skew a hot lane reaches its horizon
	// early and paces greedily from there, while cold lanes never
	// finish theirs — adaptive per-keyword forecasts are a ROADMAP
	// follow-up.
	cfg.Budget = budget.Config{Policy: o.budgetPolicy, RefreshEvery: o.budgetRefresh, Horizon: traffic / lanes, Seed: o.seed + 4}
	if o.journalDir == "" {
		return inst, cfg
	}
	if o.recover {
		r, err := journal.Recover(o.journalDir)
		if err != nil {
			fatal("recover:", err)
		}
		printRecoverySummary(r)
		if r.State != nil {
			// Resuming assumes the same population: identical -seed,
			// -n, and -keywords regenerate it deterministically.
			if int(r.State.N) != inst.N || int(r.State.Lanes) != lanes {
				fatal("recover:", fmt.Errorf("journal covers %d advertisers x %d lanes, this run has %d x %d — rerun with the flags that wrote it",
					r.State.N, r.State.Lanes, inst.N, lanes))
			}
			cfg.Restore = r.State
		}
	}
	var err error
	if cfg.Journal, err = journal.Open(o.journalDir, journal.Options{Fsync: o.fsync}); err != nil {
		fatal("journal:", err)
	}
	return inst, cfg
}

// runWorld is the sequential operator's view: one market serves every
// keyword, and every report window prints revenue, clicks, fill and
// per-auction time.
func runWorld(o *options) {
	inst, cfg := engineConfig(o, 1, o.auctions)
	queries := inst.Queries(rand.New(rand.NewSource(o.seed+1)), o.auctions)
	wo := engine.MarketOpts{Method: cfg.Method, Pricing: cfg.Pricing, ClickSeed: cfg.ClickSeed, HeavyParallelism: cfg.HeavyParallelism}
	if cfg.Budget.Policy != budget.PolicyOff {
		// A sequential world owns a single-lane ledger: cross-keyword
		// budgets are exact here (one market sees all keywords).
		led := budget.NewLedger(inst.N, 1, inst.Budget, cfg.Budget)
		if cfg.Restore != nil {
			led = budget.NewLedgerState(cfg.Restore, inst.Budget, cfg.Budget)
		}
		if cfg.Journal != nil {
			if err := led.AttachJournal(cfg.Journal); err != nil {
				fatal("journal:", err)
			}
		}
		wo.Lane = led.Lane(0)
	}
	w := engine.NewMarketOpts(inst, wo)

	fmt.Printf("auctionsim: n=%d k=%d keywords=%d method=%v pricing=%v auctions=%d\n",
		o.n, o.slots, o.keywords, o.method, o.pricing, o.auctions)
	fmt.Println("auction\trevenue\tclicks\tfill%\tms/auction")

	var tot engine.Totals
	windowStart := time.Now()
	for a, q := range queries {
		tot.Add(w.RunAuction(q))
		if (a+1)%o.report == 0 {
			elapsed := time.Since(windowStart)
			fmt.Printf("%d\t%.0f\t%d\t%.1f\t%.3f\n",
				a+1, tot.Revenue, tot.Clicks,
				100*float64(tot.Filled)/float64(tot.Slots),
				float64(elapsed.Microseconds())/1000/float64(o.report))
			windowStart = time.Now()
		}
	}

	printSpendSummary(inst, w.Accounting().SpentTotal, float64(w.Auctions()))
	if lane := w.BudgetLane(); lane != nil {
		lane.Publish() // also flushes the lane's journal batch
		printLedger(lane.Ledger(), cfg.Journal)
	}
}

// broadMaxTokens caps free-text query length in broad-match mode:
// 1…3 tokens over the bigram catalog's vocabulary, enough to reach
// every relevance class (1/2, 2/3, 1) the scorer can produce.
const broadMaxTokens = 3

// runEngine is load-generator mode: the stream is served in
// report-sized batches through the sharded engine, each batch printing
// throughput and per-auction latency percentiles. With broad match on
// the batches are free-text queries routed by relevance instead of
// pre-resolved keyword indices.
func runEngine(o *options) {
	inst, cfg := engineConfig(o, o.keywords, o.auctions)
	queries := inst.Queries(rand.New(rand.NewSource(o.seed+1)), o.auctions)
	e := engine.New(inst, cfg)
	if o.metricsAddr != "" {
		defer startMetrics(o.metricsAddr, e.Metrics().Registry, e.TraceRing()).Close()
	}
	broad := o.broadmatch > 0
	var texts []string
	if broad {
		texts = workload.TextQueries(rand.New(rand.NewSource(o.seed+6)), o.keywords, len(queries), broadMaxTokens, o.zipf)
		fmt.Printf("auctionsim: engine mode (broad match: threshold=%v squash=%v reserve=%v), n=%d k=%d keywords=%d method=%v pricing=%v queries=%d shards=%d\n",
			o.broadmatch, o.squash, o.reserve, o.n, o.slots, o.keywords, o.method, o.pricing, len(texts), e.Shards())
	} else {
		fmt.Printf("auctionsim: engine mode, n=%d k=%d keywords=%d method=%v pricing=%v auctions=%d shards=%d\n",
			o.n, o.slots, o.keywords, o.method, o.pricing, len(queries), e.Shards())
	}
	fmt.Println("auction\trevenue\tclicks\tfill%\tqps\tp50µs\tp99µs")

	var total engine.Stats
	for off := 0; off < len(queries); off += o.report {
		end := min(off+o.report, len(queries))
		var st *engine.Stats
		if broad {
			st = e.ServeText(texts[off:end])
		} else {
			st = e.Serve(queries[off:end])
		}
		total.Auctions += st.Auctions
		total.Revenue += st.Revenue
		total.Clicks += st.Clicks
		total.Filled += st.Filled
		total.TotalSlots += st.TotalSlots
		total.Elapsed += st.Elapsed
		total.Unrouted += st.Unrouted
		total.Overmatched += st.Overmatched
		fmt.Printf("%d\t%.0f\t%d\t%.1f\t%.0f\t%.1f\t%.1f\n",
			total.Auctions, total.Revenue, total.Clicks,
			100*float64(total.Filled)/float64(total.TotalSlots),
			st.Throughput,
			float64(st.P50.Nanoseconds())/1000,
			float64(st.P99.Nanoseconds())/1000)
	}
	fmt.Printf("total: %d auctions in %v (%.0f qps overall)\n",
		total.Auctions, total.Elapsed.Round(time.Millisecond),
		float64(total.Auctions)/total.Elapsed.Seconds())
	if broad {
		fmt.Printf("broad match: unrouted=%d overmatched=%d (served+unrouted = %d submitted queries)\n",
			total.Unrouted, total.Overmatched, total.Auctions+total.Unrouted)
	}

	// Aggregate per-keyword market accounting into the advertiser view.
	spent := make([]float64, inst.N)
	for q := 0; q < inst.Keywords; q++ {
		acct := e.KeywordMarket(q).Accounting()
		for i := 0; i < inst.N; i++ {
			spent[i] += acct.SpentTotal[i]
		}
	}
	printSpendSummary(inst, spent, float64(total.Auctions))
	e.Close() // publishes the lanes, flushes the last journal batches and closes the writer
	printLedger(e.Ledger(), e.Journal())
}

// runStream is open-world mode: a deterministic workload.Stream paces
// submissions (and live churn events) into the long-running streaming
// server; every report window prints the rolling view, and Close
// flushes the drain summary.
func runStream(o *options) {
	total := max(int(o.qps*o.duration.Seconds()), 1)
	inst, cfg := engineConfig(o, o.keywords, total)
	rng := rand.New(rand.NewSource(o.seed + 3))
	scfg := workload.StreamConfig{
		Queries: total, QPS: o.qps, ZipfS: o.zipf, BurstFactor: o.burst,
		Churn: workload.ScriptChurn(rng, inst, o.churn, total),
	}
	if o.broadmatch > 0 {
		scfg.TextTokens = broadMaxTokens
	}
	events := workload.NewStream(inst, rng, scfg)
	srv := stream.NewServer(inst, stream.Config{Engine: cfg, Overload: o.overload})
	if o.metricsAddr != "" {
		eng := srv.Engine()
		defer startMetrics(o.metricsAddr, eng.Metrics().Registry, eng.TraceRing()).Close()
	}
	if o.broadmatch > 0 {
		fmt.Printf("auctionsim: stream mode (broad match: threshold=%v squash=%v reserve=%v), n=%d k=%d keywords=%d method=%v pricing=%v qps=%.0f duration=%v overload=%v churn=%d shards=%d\n",
			o.broadmatch, o.squash, o.reserve,
			o.n, o.slots, o.keywords, o.method, o.pricing, o.qps, o.duration, o.overload, o.churn, srv.Shards())
	} else {
		fmt.Printf("auctionsim: stream mode, n=%d k=%d keywords=%d method=%v pricing=%v qps=%.0f duration=%v overload=%v churn=%d shards=%d\n",
			o.n, o.slots, o.keywords, o.method, o.pricing, o.qps, o.duration, o.overload, o.churn, srv.Shards())
	}
	fmt.Println("t\tsubmitted\tserved\tshed\tadv\tepoch\tqps(win)\tp50µs\tp95µs\tp99µs")

	start := time.Now()
	submitted, nextReport := 0, o.report
	for {
		ev, ok := events.Next()
		if !ok {
			break
		}
		if ev.Churn != nil {
			if ev.Churn.Add != nil {
				if _, err := srv.AddAdvertiser(*ev.Churn.Add); err != nil {
					fatal("churn add:", err)
				}
			} else if err := srv.RemoveAdvertiser(ev.Churn.Remove); err != nil {
				fatal("churn remove:", err)
			}
			continue
		}
		// Pace to the scripted arrival offset; sleeping only for gaps
		// the OS timer can resolve keeps high-qps streams accurate.
		if ahead := ev.At - time.Since(start); ahead > 200*time.Microsecond {
			time.Sleep(ahead)
		}
		if ev.Text != "" {
			srv.SubmitText(ev.Text)
		} else {
			srv.Submit(ev.Keyword)
		}
		submitted++
		if submitted >= nextReport {
			nextReport += o.report
			st := srv.Stats()
			fmt.Printf("%.1fs\t%d\t%d\t%d\t%d\t%d\t%.0f\t%.1f\t%.1f\t%.1f\n",
				time.Since(start).Seconds(), st.Submitted, st.Served, st.Shed,
				st.Advertisers, st.Epoch, st.WindowThroughput,
				float64(st.P50.Nanoseconds())/1000,
				float64(st.P95.Nanoseconds())/1000,
				float64(st.P99.Nanoseconds())/1000)
		}
	}
	printDrained(srv.Close(), srv.Engine())
}

// printDrained prints a drained stream's accounting — the identity
// line, lifetime totals and the per-shard breakdown — then the budget
// and journal lines. Under broad match every text query is an
// admission unit, so the identity gains the unrouted and overmatched
// legs.
func printDrained(st *stream.Stats, e *engine.Engine) {
	identity := st.Served+st.Shed == st.Submitted
	if e.Broadmatch() != nil {
		identity = st.Served+st.Shed+st.Unrouted+st.Overmatched == st.Submitted
	}
	fmt.Printf("drained: submitted=%d served=%d shed=%d (identity %v) unrouted=%d overmatched=%d epochs=%d advertisers=%d\n",
		st.Submitted, st.Served, st.Shed, identity,
		st.Unrouted, st.Overmatched, st.Epoch, st.Advertisers)
	fmt.Printf("totals: revenue=%.0f clicks=%d fill=%.1f%% in %v (%.0f qps lifetime)\n",
		st.Revenue, st.Clicks, 100*float64(st.Filled)/float64(st.TotalSlots),
		st.Elapsed.Round(time.Millisecond), st.Throughput)
	for i, ps := range st.PerShard {
		fmt.Printf("  shard %d: served=%d shed=%d epoch=%d\n", i, ps.Served, ps.Shed, ps.Epoch)
	}
	printLedger(e.Ledger(), e.Journal())
}

// printLedger reports a finished run's budgets: the ledger's published
// view (total spend under enforcement, advertisers at their caps, gate
// denials) and, with a journal, what the journal durably holds against
// the in-memory ledger — equal totals mean a crash right now would
// lose nothing. It closes the writer first; an engine that owns it has
// already closed it, and Close is idempotent. led is nil with budgets
// off, and jw nil without -journal.
func printLedger(led *budget.Ledger, jw *journal.Writer) {
	if led == nil {
		return
	}
	spent, exhausted, denied := led.Totals()
	fmt.Printf("budget[%v]: spent=%.0f exhausted=%d/%d denied=%d (refresh=%d)\n",
		led.Config().Policy, spent, exhausted, led.N(), denied, led.Config().RefreshEvery)
	if jw == nil {
		return
	}
	if err := jw.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "auctionsim: journal degraded:", err)
	}
	st := jw.Stats()
	var exact float64
	for i := 0; i < led.N(); i++ {
		exact += led.ExactSpent(i)
	}
	fmt.Printf("journal: spent(journal)=%.0f spent(memory)=%.0f epoch=%d records=%d snapshots=%d tail=%dB staleDropped=%d\n",
		st.TotalSpend, exact, st.Epoch, st.Records, st.Snapshots, st.JournalBytes, st.StaleDropped)
}

// printRecoverySummary reports what -recover reconstructed before the
// run resumes: how much spend came back, how it was pieced together
// (snapshot + replayed tail), and any damage that truncated the
// replay.
func printRecoverySummary(r *journal.Recovery) {
	if r.State == nil {
		fmt.Println("recovery: journal empty — starting fresh")
	} else {
		recovered := 0
		for i := 0; i < int(r.State.N); i++ {
			if r.State.Spent(i) > 0 {
				recovered++
			}
		}
		fmt.Printf("recovery: advertisers=%d/%d with spend=%.0f epoch=%d (replayed=%d records, covered=%d, stale=%d)\n",
			recovered, r.State.N, r.State.TotalSpend(), r.State.Epoch,
			r.Replayed, r.Covered, r.Stale)
		if r.SnapshotLoaded {
			fmt.Printf("recovery: snapshot seq=%d age=%v\n", r.SnapshotSeq, r.SnapshotAge.Round(time.Millisecond))
		}
	}
	if r.SnapshotErr != "" {
		fmt.Printf("recovery: snapshot unusable (%s) — rebuilt from the journal alone\n", r.SnapshotErr)
	}
	if r.CorruptOffset >= 0 {
		fmt.Printf("recovery: journal damaged at byte %d (%s) — recovered the prefix before it\n",
			r.CorruptOffset, r.CorruptReason)
	}
}

// printSpendSummary shows how well the ROI-equalizing population
// tracked its target spending rates — the quantity the Figure 5
// heuristic steers.
func printSpendSummary(inst *workload.Instance, spent []float64, t float64) {
	ratios := make([]float64, 0, inst.N)
	for i := 0; i < inst.N; i++ {
		ratios = append(ratios, spent[i]/t/float64(inst.Target[i]))
	}
	sort.Float64s(ratios)
	pct := func(p float64) float64 {
		idx := int(math.Ceil(p*float64(len(ratios)))) - 1
		if idx < 0 {
			idx = 0
		}
		return ratios[idx]
	}
	fmt.Println()
	fmt.Println("spend-rate / target-rate distribution (1.0 = exactly on target):")
	fmt.Printf("  p10=%.3f  p50=%.3f  p90=%.3f  max=%.3f\n",
		pct(0.10), pct(0.50), pct(0.90), ratios[len(ratios)-1])
	over := 0
	for _, r := range ratios {
		if r > 1 {
			over++
		}
	}
	fmt.Printf("  advertisers over target: %d / %d\n", over, inst.N)
}
