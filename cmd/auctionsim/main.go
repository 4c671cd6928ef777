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
// With -budget N (in every mode) each advertiser gets a daily budget
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
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
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

// startMetrics exposes reg (plus /debug/pprof and, when ring is
// non-nil, the /trace dump) over HTTP and prints the bound address in
// the same machine-parseable shape the serve-mode listener uses, so
// the network soak can scrape a child's endpoint mid-traffic.
func startMetrics(addr string, reg *obs.Registry, ring *obs.TraceRing) *obs.HTTPServer {
	hs, err := obs.Serve(addr, reg, ring)
	if err != nil {
		fmt.Fprintln(os.Stderr, "auctionsim: metrics:", err)
		os.Exit(1)
	}
	fmt.Printf("metrics: listening addr=%s\n", hs.Addr())
	return hs
}

func main() {
	var (
		n         = flag.Int("n", 2000, "number of advertisers")
		slots     = flag.Int("slots", workload.DefaultSlots, "number of slots (k)")
		keywords  = flag.Int("keywords", workload.DefaultKeywords, "number of keywords")
		auctions  = flag.Int("auctions", 5000, "number of auctions to run")
		method    = flag.String("method", "rh-talu", "winner determination: lp, h, rh, rh-talu (alias RHTALU), rh-parallel, heavy")
		pricing   = flag.String("pricing", "gsp", "payment rule: gsp, vcg")
		heavyFrac = flag.Float64("heavy-frac", 0.2, "heavyweight advertiser fraction (method heavy)")
		shadow    = flag.Float64("shadow", 0.3, "heavyweight click-shadowing strength (method heavy)")
		heavyPar  = flag.Int("heavy-parallel", 0, "method heavy: pattern-enumeration workers per market (0 = GOMAXPROCS, 1 = sequential)")
		report    = flag.Int("report", 1000, "print a summary every this many auctions")
		seed      = flag.Int64("seed", 1, "random seed")
		useEng    = flag.Bool("engine", false, "serve through the concurrent sharded engine (load-generator mode)")
		shards    = flag.Int("shards", 0, "engine worker shards (0 = GOMAXPROCS, capped at keywords)")
		queue     = flag.Int("queue", 0, "engine per-shard queue depth (0 = default)")
		useStream = flag.Bool("stream", false, "serve an open-world stream through the long-running streaming server")
		qps       = flag.Float64("qps", 2000, "stream mode: mean arrival rate")
		duration  = flag.Duration("duration", 5*time.Second, "stream mode: stream length")
		churn     = flag.Int("churn", 0, "stream mode: scripted advertiser add/remove events over the run")
		overload  = flag.String("overload", "block", "stream mode: admission policy at queue saturation: block, shed")
		zipf      = flag.Float64("zipf", 0, "stream/broad-match mode: Zipf keyword- or token-popularity exponent (> 1; 0 = uniform)")
		broadTh   = flag.Float64("broadmatch", 0, "broad-match relevance threshold in (0, 1]: route free-text queries to every keyword scoring at least this (0 = exact routing; needs -engine or -stream)")
		reserve   = flag.Float64("reserve", 0, "per-click reserve price: bids below reserve/weight are excluded and prices floored at the reserve (needs -engine or -stream)")
		squash    = flag.Float64("squash", 1, "broad-match squashing exponent: eligible bids are weighted by relevance^squash before pricing (needs -broadmatch)")
		burst     = flag.Float64("burst", 1, "stream mode: burst rate factor (> 1 enables on/off bursts)")
		budgetAt  = flag.Float64("budget", 0, "attach daily budgets scaled to this many on-target auctions and enforce them (0 = budgets off)")
		budgetPol = flag.String("budget-policy", "hard", "budget enforcement: hard (exclude at cap), paced (smooth spend over the run)")
		budgetRef = flag.Int("budget-refresh", 0, "budget ledger snapshot refresh, in per-keyword auctions (0 = default)")
		jdir      = flag.String("journal", "", "durable spend-journal directory (requires -budget); spend is batched, checksummed, and compacted there")
		doRecover = flag.Bool("recover", false, "replay the -journal directory before serving and resume from the recovered spend state")
		fsyncMode = flag.String("fsync", "never", "journal durability: never (kernel page cache — survives SIGKILL), always (fsync every append — survives power loss)")
		serveAddr = flag.String("serve", "", "serve mode: listen for networked wire-protocol clients on this address and block until a client drains the server")
		connAddr  = flag.String("connect", "", "connect mode: drive auctions against a -serve process at this address")
		conns     = flag.Int("conns", 2, "connect mode: client connections to open")
		pipeline  = flag.Int("pipeline", 4, "connect mode: concurrent in-flight workers per connection")
		doDrain   = flag.Bool("drain", false, "connect mode: request a graceful server drain after the load finishes")
		resets    = flag.Int("resets", 0, "connect mode: budget resets fenced into the run at even intervals")
		metrics   = flag.String("metrics-addr", "", "expose live /metrics (Prometheus text), /debug/pprof, and /trace on this HTTP address (engine, stream, serve, connect modes)")
		traceN    = flag.Int("trace-sample", 0, "record every Nth auction into the in-memory trace ring, dumpable at /trace (0 = off; needs -engine, -stream, or -serve)")
	)
	flag.Parse()

	m, err := parseMethod(*method)
	if err != nil {
		fmt.Fprintln(os.Stderr, "auctionsim:", err)
		flag.Usage()
		os.Exit(2)
	}
	pr, err := parsePricing(*pricing)
	if err != nil {
		fmt.Fprintln(os.Stderr, "auctionsim:", err)
		flag.Usage()
		os.Exit(2)
	}
	if m == engine.MethodHeavy && *slots > 20 {
		fmt.Fprintf(os.Stderr, "auctionsim: -method heavy enumerates 2^slots patterns and needs -slots <= 20, got %d\n", *slots)
		os.Exit(2)
	}
	if *heavyPar < 0 {
		fmt.Fprintf(os.Stderr, "auctionsim: -heavy-parallel wants a non-negative worker count (0 = GOMAXPROCS), got %d\n", *heavyPar)
		flag.Usage()
		os.Exit(2)
	}
	if *broadTh < 0 || *broadTh > 1 {
		fmt.Fprintf(os.Stderr, "auctionsim: -broadmatch wants a relevance threshold in (0, 1] (0 = exact routing), got %v\n", *broadTh)
		flag.Usage()
		os.Exit(2)
	}
	if *reserve < 0 {
		fmt.Fprintf(os.Stderr, "auctionsim: -reserve wants a non-negative per-click price, got %v\n", *reserve)
		flag.Usage()
		os.Exit(2)
	}
	if *squash <= 0 {
		fmt.Fprintf(os.Stderr, "auctionsim: -squash wants a positive exponent (1 = rank by raw relevance), got %v\n", *squash)
		flag.Usage()
		os.Exit(2)
	}
	if *broadTh > 0 && !*useEng && !*useStream {
		fmt.Fprintln(os.Stderr, "auctionsim: -broadmatch routes free text through the sharded engine and needs -engine or -stream")
		flag.Usage()
		os.Exit(2)
	}
	if *broadTh > 0 && (*serveAddr != "" || *connAddr != "") {
		fmt.Fprintln(os.Stderr, "auctionsim: -broadmatch is not available over the wire protocol (it carries keyword ids, not text) — drop -serve/-connect")
		flag.Usage()
		os.Exit(2)
	}
	if *reserve > 0 && !*useEng && !*useStream {
		fmt.Fprintln(os.Stderr, "auctionsim: -reserve is enforced by the sharded engine's markets and needs -engine or -stream")
		flag.Usage()
		os.Exit(2)
	}
	if *squash != 1 && *broadTh == 0 {
		fmt.Fprintln(os.Stderr, "auctionsim: -squash weights broad-match candidates and needs -broadmatch > 0")
		flag.Usage()
		os.Exit(2)
	}
	if *traceN < 0 {
		fmt.Fprintf(os.Stderr, "auctionsim: -trace-sample wants a non-negative sampling period (0 = off), got %d\n", *traceN)
		flag.Usage()
		os.Exit(2)
	}
	if *traceN > 0 && !*useEng && !*useStream && *serveAddr == "" {
		fmt.Fprintln(os.Stderr, "auctionsim: -trace-sample records engine-side auction traces and needs -engine, -stream, or -serve")
		flag.Usage()
		os.Exit(2)
	}
	if *metrics != "" && !*useEng && !*useStream && *serveAddr == "" && *connAddr == "" {
		fmt.Fprintln(os.Stderr, "auctionsim: -metrics-addr exposes the serving-tier registry and needs -engine, -stream, -serve, or -connect")
		flag.Usage()
		os.Exit(2)
	}
	bm := broadOpts{threshold: *broadTh, squash: *squash, reserve: *reserve, zipf: *zipf, seed: *seed + 5}

	if *connAddr != "" {
		// Connect mode needs no local instance — the serving process
		// owns the population; only the keyword range matters here.
		runConnect(connectOpts{
			addr: *connAddr, conns: *conns, pipeline: *pipeline,
			auctions: *auctions, keywords: *keywords,
			resets: *resets, drain: *doDrain, seed: *seed,
			metricsAddr: *metrics,
		})
		return
	}

	rng := rand.New(rand.NewSource(*seed))
	var inst *workload.Instance
	if m == engine.MethodHeavy {
		inst = workload.GenerateHeavy(rng, *n, *slots, *keywords, *heavyFrac, *shadow)
	} else {
		inst = workload.Generate(rng, *n, *slots, *keywords)
	}

	var bcfg budget.Config // PolicyOff unless -budget is set
	if *budgetAt > 0 {
		pol, err := parseBudgetPolicy(*budgetPol)
		if err != nil {
			fmt.Fprintln(os.Stderr, "auctionsim:", err)
			flag.Usage()
			os.Exit(2)
		}
		workload.AttachBudgets(rng, inst, *budgetAt)
		// The pacing horizon is per lane (per keyword in engine/stream
		// mode; the whole run for the single-market sequential mode).
		// The per-keyword split assumes uniform traffic: under -zipf
		// skew a hot lane reaches its horizon early and paces greedily
		// from there, while cold lanes never finish theirs — adaptive
		// per-keyword forecasts are a ROADMAP follow-up.
		horizon := *auctions / *keywords
		if *useStream {
			horizon = int(*qps * duration.Seconds() / float64(*keywords))
		} else if !*useEng && *serveAddr == "" {
			horizon = *auctions
		}
		bcfg = budget.Config{Policy: pol, RefreshEvery: *budgetRef, Horizon: horizon, Seed: *seed + 4}
	}

	if *doRecover && *jdir == "" {
		fmt.Fprintln(os.Stderr, "auctionsim: -recover replays a journal and needs -journal <dir> to say which one")
		flag.Usage()
		os.Exit(2)
	}
	var (
		jw      *journal.Writer
		restore *journal.LedgerState
	)
	if *jdir != "" {
		if bcfg.Policy == budget.PolicyOff {
			fmt.Fprintln(os.Stderr, "auctionsim: -journal records budget spend and needs -budget > 0")
			flag.Usage()
			os.Exit(2)
		}
		fs, err := journal.ParseFsync(*fsyncMode)
		if err != nil {
			fmt.Fprintln(os.Stderr, "auctionsim:", err)
			flag.Usage()
			os.Exit(2)
		}
		// Lanes are per keyword in engine/stream mode; the sequential
		// world runs one cross-keyword lane.
		lanes := *keywords
		if !*useEng && !*useStream && *serveAddr == "" {
			lanes = 1
		}
		if *doRecover {
			r, err := journal.Recover(*jdir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "auctionsim: recover:", err)
				os.Exit(1)
			}
			printRecoverySummary(r)
			if r.State != nil {
				// Resuming assumes the same population: identical -seed,
				// -n, and -keywords regenerate it deterministically.
				if int(r.State.N) != inst.N || int(r.State.Lanes) != lanes {
					fmt.Fprintf(os.Stderr, "auctionsim: journal covers %d advertisers x %d lanes, this run has %d x %d — rerun with the flags that wrote it\n",
						r.State.N, r.State.Lanes, inst.N, lanes)
					os.Exit(1)
				}
				restore = r.State
			}
		}
		if jw, err = journal.Open(*jdir, journal.Options{Fsync: fs}); err != nil {
			fmt.Fprintln(os.Stderr, "auctionsim: journal:", err)
			os.Exit(1)
		}
	}

	if *serveAddr != "" {
		pol, err := parsePolicy(*overload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "auctionsim:", err)
			flag.Usage()
			os.Exit(2)
		}
		runServe(inst, serveOpts{
			addr: *serveAddr, method: m, pricing: pr,
			shards: *shards, queue: *queue, clickSeed: *seed + 2,
			policy: pol, budget: bcfg, journal: jw, restore: restore,
			metricsAddr: *metrics, traceSample: *traceN,
		})
		return
	}

	if *useStream {
		pol, err := parsePolicy(*overload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "auctionsim:", err)
			flag.Usage()
			os.Exit(2)
		}
		runStream(inst, streamOpts{
			method: m, pricing: pr, shards: *shards, queue: *queue,
			clickSeed: *seed + 2, report: *report, qps: *qps,
			duration: *duration, churn: *churn, policy: pol,
			zipf: *zipf, burst: *burst, seed: *seed + 3, budget: bcfg,
			heavyPar: *heavyPar, journal: jw, restore: restore, broad: bm,
			metricsAddr: *metrics, traceSample: *traceN,
		})
		return
	}

	queries := inst.Queries(rand.New(rand.NewSource(*seed+1)), *auctions)

	if *useEng {
		runEngine(inst, queries, m, pr, *shards, *queue, *seed+2, *report, bcfg, *heavyPar, jw, restore, bm, *metrics, *traceN)
		return
	}

	wo := engine.MarketOpts{Method: m, Pricing: pr, ClickSeed: *seed + 2, HeavyParallelism: *heavyPar}
	if bcfg.Policy != budget.PolicyOff {
		// A sequential world owns a single-lane ledger: cross-keyword
		// budgets are exact here (one market sees all keywords).
		led := budget.NewLedger(inst.N, 1, inst.Budget, bcfg)
		if restore != nil {
			led = budget.NewLedgerState(restore, inst.Budget, bcfg)
		}
		if jw != nil {
			if err := led.AttachJournal(jw); err != nil {
				fmt.Fprintln(os.Stderr, "auctionsim: journal:", err)
				os.Exit(1)
			}
		}
		wo.Lane = led.Lane(0)
	}
	w := engine.NewMarketOpts(inst, wo)

	fmt.Printf("auctionsim: n=%d k=%d keywords=%d method=%v pricing=%v auctions=%d\n",
		*n, *slots, *keywords, m, pr, *auctions)
	fmt.Println("auction\trevenue\tclicks\tfill%\tms/auction")

	var (
		revenue   float64
		clicks    int
		filled    int
		slotTotal int
	)
	windowStart := time.Now()
	for a, q := range queries {
		o := w.RunAuction(q)
		revenue += o.Revenue
		for j := range o.AdvOf {
			slotTotal++
			if o.AdvOf[j] >= 0 {
				filled++
			}
			if o.Clicked[j] {
				clicks++
			}
		}
		if (a+1)%*report == 0 {
			elapsed := time.Since(windowStart)
			fmt.Printf("%d\t%.0f\t%d\t%.1f\t%.3f\n",
				a+1, revenue, clicks,
				100*float64(filled)/float64(slotTotal),
				float64(elapsed.Microseconds())/1000/float64(*report))
			windowStart = time.Now()
		}
	}

	printSpendSummary(inst, spendTotals(inst, w), float64(w.Auctions()))
	if lane := w.BudgetLane(); lane != nil {
		lane.Publish() // also flushes the lane's journal batch
		printBudgetSummary(lane.Ledger())
		if jw != nil {
			if err := jw.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "auctionsim: journal degraded:", err)
			}
			printJournalSummary(jw, lane.Ledger())
		}
	}
}

// broadMaxTokens caps free-text query length in broad-match mode:
// 1…3 tokens over the bigram catalog's vocabulary, enough to reach
// every relevance class (1/2, 2/3, 1) the scorer can produce.
const broadMaxTokens = 3

// broadOpts bundles the broad-match serving knobs shared by engine
// and stream mode.
type broadOpts struct {
	threshold, squash, reserve float64
	zipf                       float64 // token-popularity skew for generated text
	seed                       int64
}

func (o broadOpts) on() bool { return o.threshold > 0 }

// apply merges the knobs into an engine config: the reserve applies
// in every mode, the router and bigram catalog names only when broad
// match is on.
func (o broadOpts) apply(cfg *engine.Config, keywords int) {
	cfg.Reserve = o.reserve
	if o.on() {
		cfg.KeywordNames = workload.BigramKeywordNames(keywords)
		cfg.Broadmatch = broadmatch.Config{Enabled: true, Threshold: o.threshold, Squash: o.squash, Seed: o.seed}
	}
}

// runEngine is load-generator mode: the stream is served in
// report-sized batches through the sharded engine, each batch printing
// throughput and per-auction latency percentiles. With broad match on
// the batches are free-text queries routed by relevance instead of
// pre-resolved keyword indices.
func runEngine(inst *workload.Instance, queries []int, m engine.Method, pr engine.Pricing, shards, queue int, clickSeed int64, report int, bcfg budget.Config, heavyPar int, jw *journal.Writer, restore *journal.LedgerState, bm broadOpts, metricsAddr string, traceSample int) {
	cfg := engine.Config{
		Shards:           shards,
		QueueDepth:       queue,
		Method:           m,
		Pricing:          pr,
		ClickSeed:        clickSeed,
		Budget:           bcfg,
		HeavyParallelism: heavyPar,
		Journal:          jw,
		Restore:          restore,
		TraceSample:      traceSample,
	}
	bm.apply(&cfg, inst.Keywords)
	e := engine.New(inst, cfg)
	if metricsAddr != "" {
		defer startMetrics(metricsAddr, e.Metrics().Registry, e.TraceRing()).Close()
	}
	var texts []string
	if bm.on() {
		texts = workload.TextQueries(rand.New(rand.NewSource(bm.seed+1)), inst.Keywords, len(queries), broadMaxTokens, bm.zipf)
		fmt.Printf("auctionsim: engine mode (broad match: threshold=%v squash=%v reserve=%v), n=%d k=%d keywords=%d method=%v pricing=%v queries=%d shards=%d\n",
			bm.threshold, bm.squash, bm.reserve, inst.N, inst.Slots, inst.Keywords, m, pr, len(texts), e.Shards())
	} else {
		fmt.Printf("auctionsim: engine mode, n=%d k=%d keywords=%d method=%v pricing=%v auctions=%d shards=%d\n",
			inst.N, inst.Slots, inst.Keywords, m, pr, len(queries), e.Shards())
	}
	fmt.Println("auction\trevenue\tclicks\tfill%\tqps\tp50µs\tp99µs")

	var total engine.Stats
	for off := 0; off < len(queries); off += report {
		end := off + report
		if end > len(queries) {
			end = len(queries)
		}
		var st *engine.Stats
		if bm.on() {
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
	if bm.on() {
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
	led := e.Ledger()
	if led != nil {
		printBudgetSummary(led) // Serve flushed the lanes: the snapshot is current
	}
	e.Close() // flushes the last journal batches and closes the writer
	if jw != nil {
		if err := jw.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "auctionsim: journal degraded:", err)
		}
		printJournalSummary(jw, led)
	}
}

// printBudgetSummary reports the ledger's published view — total
// spend under enforcement, advertisers at their caps, and gate
// denials.
func printBudgetSummary(led *budget.Ledger) {
	spent, exhausted, denied := led.Totals()
	fmt.Printf("budget[%v]: spent=%.0f exhausted=%d/%d denied=%d (refresh=%d)\n",
		led.Config().Policy, spent, exhausted, led.N(), denied, led.Config().RefreshEvery)
}

// streamOpts bundles stream-mode configuration.
type streamOpts struct {
	method    engine.Method
	pricing   engine.Pricing
	shards    int
	queue     int
	clickSeed int64
	report    int
	qps       float64
	duration  time.Duration
	churn     int
	policy    stream.Policy
	zipf      float64
	burst     float64
	seed      int64
	budget    budget.Config
	heavyPar  int
	journal   *journal.Writer
	restore   *journal.LedgerState
	broad     broadOpts

	metricsAddr string // "" = no HTTP exposition
	traceSample int    // 0 = tracing off
}

// runStream is open-world mode: a deterministic workload.Stream paces
// submissions (and live churn events) into the long-running streaming
// server; every report window prints the rolling view, and Close
// flushes the drain summary.
func runStream(inst *workload.Instance, o streamOpts) {
	total := int(o.qps * o.duration.Seconds())
	if total < 1 {
		total = 1
	}
	rng := rand.New(rand.NewSource(o.seed))
	scfg := workload.StreamConfig{
		Queries: total, QPS: o.qps, ZipfS: o.zipf, BurstFactor: o.burst,
		Churn: workload.ScriptChurn(rng, inst, o.churn, total),
	}
	if o.broad.on() {
		scfg.TextTokens = broadMaxTokens
	}
	events := workload.NewStream(inst, rng, scfg)
	ecfg := engine.Config{
		Shards: o.shards, QueueDepth: o.queue,
		Method: o.method, Pricing: o.pricing, ClickSeed: o.clickSeed,
		Budget: o.budget, HeavyParallelism: o.heavyPar,
		Journal: o.journal, Restore: o.restore,
		TraceSample: o.traceSample,
	}
	o.broad.apply(&ecfg, inst.Keywords)
	srv := stream.NewServer(inst, stream.Config{
		Engine:   ecfg,
		Overload: o.policy,
	})
	if o.metricsAddr != "" {
		eng := srv.Engine()
		defer startMetrics(o.metricsAddr, eng.Metrics().Registry, eng.TraceRing()).Close()
	}
	if o.broad.on() {
		fmt.Printf("auctionsim: stream mode (broad match: threshold=%v squash=%v reserve=%v), n=%d k=%d keywords=%d method=%v pricing=%v qps=%.0f duration=%v overload=%v churn=%d shards=%d\n",
			o.broad.threshold, o.broad.squash, o.broad.reserve,
			inst.N, inst.Slots, inst.Keywords, o.method, o.pricing, o.qps, o.duration, o.policy, o.churn, srv.Shards())
	} else {
		fmt.Printf("auctionsim: stream mode, n=%d k=%d keywords=%d method=%v pricing=%v qps=%.0f duration=%v overload=%v churn=%d shards=%d\n",
			inst.N, inst.Slots, inst.Keywords, o.method, o.pricing, o.qps, o.duration, o.policy, o.churn, srv.Shards())
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
					fmt.Fprintln(os.Stderr, "auctionsim: churn add:", err)
					os.Exit(1)
				}
			} else if err := srv.RemoveAdvertiser(ev.Churn.Remove); err != nil {
				fmt.Fprintln(os.Stderr, "auctionsim: churn remove:", err)
				os.Exit(1)
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
	st := srv.Close()
	// Under broad match every text query is an admission unit, so the
	// drained identity gains the unrouted and overmatched legs.
	identity := st.Served+st.Shed == st.Submitted
	if o.broad.on() {
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
	if o.budget.Policy != budget.PolicyOff {
		fmt.Printf("budget[%v]: spent=%.0f exhausted=%d denied=%d\n",
			o.budget.Policy, st.BudgetSpent, st.BudgetExhausted, st.BudgetDenied)
	}
	if o.journal != nil { // the drain closed the engine, and with it the writer
		if err := o.journal.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "auctionsim: journal degraded:", err)
		}
		printJournalSummary(o.journal, srv.Engine().Ledger())
	}
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

// printJournalSummary compares what the (now flushed and closed)
// journal durably holds against the in-memory ledger — equal totals
// mean a crash right now would lose nothing.
func printJournalSummary(w *journal.Writer, led *budget.Ledger) {
	st := w.Stats()
	var exact float64
	if led != nil {
		for i := 0; i < led.N(); i++ {
			exact += led.ExactSpent(i)
		}
	}
	fmt.Printf("journal: spent(journal)=%.0f spent(memory)=%.0f epoch=%d records=%d snapshots=%d tail=%dB staleDropped=%d\n",
		st.TotalSpend, exact, st.Epoch, st.Records, st.Snapshots, st.JournalBytes, st.StaleDropped)
}

func parseBudgetPolicy(s string) (budget.Policy, error) {
	switch strings.ToLower(s) {
	case "hard":
		return budget.PolicyHard, nil
	case "paced":
		return budget.PolicyPaced, nil
	}
	return 0, fmt.Errorf("unknown budget policy %q (want hard, paced)", s)
}

func parsePolicy(s string) (stream.Policy, error) {
	switch strings.ToLower(s) {
	case "block":
		return stream.Block, nil
	case "shed":
		return stream.Shed, nil
	}
	return 0, fmt.Errorf("unknown overload policy %q (want block, shed)", s)
}

func parseMethod(s string) (engine.Method, error) {
	switch strings.ToUpper(s) {
	case "LP":
		return engine.MethodLP, nil
	case "H":
		return engine.MethodH, nil
	case "RH":
		return engine.MethodRH, nil
	case "RHTALU", "RH-TALU", "TALU":
		return engine.MethodRHTALU, nil
	case "RH-PARALLEL", "RHPARALLEL":
		return engine.MethodRHParallel, nil
	case "HEAVY":
		return engine.MethodHeavy, nil
	}
	return 0, fmt.Errorf("unknown method %q (want lp, h, rh, rh-talu, rh-parallel, heavy)", s)
}

func parsePricing(s string) (engine.Pricing, error) {
	switch strings.ToUpper(s) {
	case "GSP":
		return engine.PricingGSP, nil
	case "VCG":
		return engine.PricingVCG, nil
	}
	return 0, fmt.Errorf("unknown pricing %q (want gsp, vcg)", s)
}

// spendTotals extracts per-advertiser total spend from a sequential
// world.
func spendTotals(inst *workload.Instance, w *engine.Market) []float64 {
	spent := make([]float64, inst.N)
	copy(spent, w.Accounting().SpentTotal)
	return spent
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
