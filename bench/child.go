package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// runCfg is one child's assignment: a workload, the seed its inputs
// derive from, the nominal run length that fixes its operation counts,
// and whether it is the timed run (--trace 0: end-to-end metrics) or
// the traced run (--trace 1: per-layer metrics).
type runCfg struct {
	sp        *spec
	seed      int64
	seconds   float64
	scale     float64 // 1 except in tests, which shrink every count
	trace     bool
	setupOnly bool      // build, warm up, report setup_s, stop
	outDir    string    // trace files and journal directories
	t0        time.Time // when the parent started this child
	log       io.Writer
}

// result is what a child hands back to its parent, as one JSON line.
type result struct {
	Workload  string     `json:"workload"`
	Attempted int        `json:"attempted"`
	Failed    int        `json:"failed"`
	Metrics   metricSet  `json:"metrics"`
	Checks    checkList  `json:"checks"`
	Table     []tableRow `json:"self_time,omitempty"`
}

// ledgerTotals accumulates Ledger.Totals over the ledgers a run goes
// through (every churn and reset retires one).
type ledgerTotals struct {
	epochs    int
	denied    int64
	exhausted int // summed over epochs, each at its end
	n         int
}

func (lt *ledgerTotals) sample(led *Ledger) {
	if led == nil {
		return
	}
	_, exhausted, denied := led.Totals()
	lt.epochs++
	lt.denied += denied
	lt.exhausted += exhausted
	lt.n += led.N()
}

// pass is one set-up, warm-up, measured loop and drain of a workload.
type pass struct {
	in      *inputs
	st      *stack
	warmup  int
	setup   time.Duration // t0 to the first timed operation
	load    loadResult
	proc    procSnap // resource use over the measured loop
	final   *StreamStats
	net     [4]int64 // server counters: submitted, served, shed, rejected
	rssMB   float64
	warm    []outcomeRec
	heapMB  float64 // live heap once the stack is built
	perAdv  float64 // live-heap growth across the constructor, per advertiser
	ring    []ringEvent
	sl      *spanLog
	ledgers ledgerTotals
	jstats  JournalStats

	cfg       EngineConfig
	buildWall time.Duration
}

func (rc *runCfg) logf(format string, args ...any) {
	if rc.log != nil {
		fmt.Fprintf(rc.log, format+"\n", args...)
	}
}

// runPass builds the workload's stack, warms it up, runs its loop over
// ops operations and drains it. sample > 0 turns the engine's trace
// ring on; spans records a harness span around every outermost call;
// heap measures the live heap around the constructor (two forced
// collections, so only the traced run pays for it).
func runPass(rc *runCfg, ops int, sample int, spans, heap bool, t0 time.Time) (*pass, error) {
	sp := rc.sp
	p := &pass{warmup: sp.scaled(sp.warmup, rc.scale)}
	p.in = makeInputs(sp, rc.seed, p.warmup, ops, churnEvery*rc.scale)
	in := p.in

	var heap0 uint64
	if heap {
		heap0 = liveHeap()
	}
	st, err := buildStack(sp, in, sp.top(), sample, rc.outDir)
	if err != nil {
		return nil, err
	}
	p.st, p.cfg, p.buildWall = st, st.cfg, st.buildWall
	if heap {
		heap1 := liveHeap()
		p.heapMB = float64(heap1) / (1 << 20)
		p.perAdv = float64(heap1-min(heap0, heap1)) / float64(sp.n)
	}

	var ol *openLoop
	switch {
	case sp.conns > 0:
		p.warm, err = warmNet(st, in.queries[:p.warmup])
	case sp.batch > 0:
		p.warm = warmBatch(st, in.queries[:p.warmup])
	default:
		p.warm, err = warmText(st, in.texts[:p.warmup])
	}
	if err != nil {
		st.close()
		st.removeJournal()
		return nil, err
	}
	if spans {
		switch {
		case sp.conns > 0:
			p.sl = newSpanLog("client.AuctionInto", ops)
		case sp.batch > 0:
			p.sl = newSpanLog("engine.Serve", ops/sp.batch)
		default:
			p.sl = newSpanLog("stream.SubmitTextFunc", ops)
		}
	}
	if sp.text {
		ol = newOpenLoop(st, in.texts[p.warmup:], in.due, in.control, p.sl)
		ol.ledgers = &p.ledgers
	}

	before := snapProc()
	p.setup = time.Since(t0)
	if rc.setupOnly {
		st.close()
		st.removeJournal()
		return p, nil
	}
	switch {
	case sp.conns > 0:
		p.load = runClosedNet(st, in.queries[p.warmup:], p.sl)
	case sp.batch > 0:
		p.load = runBatch(st, in.queries[p.warmup:], p.sl)
	default:
		p.load = ol.run()
	}
	p.proc = snapProc().sub(before)

	p.final = st.close()
	if ol != nil {
		ol.finish(&p.load)
		p.ledgers.sample(st.eng.Ledger())
	}
	if st.net != nil {
		p.net[0], p.net[1], p.net[2], p.net[3], _ = st.net.Counters()
	}
	if st.jw != nil {
		p.jstats = st.jw.Stats()
	}
	// Read before the checks below build their oracle markets, so the
	// high-water mark is the workload's own.
	p.rssMB = peakRSSMB()
	if p.ring, err = dumpRing(st.eng); err != nil {
		st.removeJournal()
		return nil, err
	}
	return p, nil
}

// check runs the output checks on a drained pass, then removes its
// journal directory and lets go of the stack.
func (p *pass) check(rc *runCfg, cl *checkList) {
	sp, st := rc.sp, p.st
	defer func() {
		st.removeJournal()
		p.st = nil
	}()

	warm := p.warm
	if sp.text {
		var err error
		if warm, err = fenceFreeWarmup(sp, p.in, p.warmup); err != nil {
			cl.add("warmup.twin", false, "%v", err)
		}
	}
	mism := replayWarmup(sp, p.in, st.cfg, warm)
	cl.add("warmup.replay", mism == 0,
		"%d of %d warm-up outcomes differ from per-keyword sequential markets seeded with KeywordSeed (fingerprint %016x)",
		mism, len(warm), fingerprint(warm))

	l := &p.load
	cl.add("loop.accounting", l.served+l.failed()-l.bad+l.unrouted == l.attempted,
		"attempted %d = served %d + shed %d + rejected %d + errors %d + unrouted %d",
		l.attempted, l.served, l.shed, l.rejected, l.errs, l.unrouted)

	warmServed, warmRevenue := 0, 0.0
	for _, r := range p.warm {
		if r.q >= 0 {
			warmServed++
			warmRevenue += r.revenue
		}
	}
	if st.net != nil {
		sub, served, shed, rej := p.net[0], p.net[1], p.net[2], p.net[3]
		cl.add("server.identity", sub == served+shed+rej && served == int64(warmServed+l.served),
			"submitted %d == served %d + shed %d + rejected %d; clients saw %d outcomes", sub, served, shed, rej, warmServed+l.served)
	}
	if f := p.final; f != nil {
		cl.add("stream.identity", f.Submitted == f.Served+f.Shed+f.Unrouted+f.Overmatched && f.Served == int64(warmServed+l.served),
			"submitted %d == served %d + shed %d + unrouted %d + overmatched %d; callers saw %d outcomes",
			f.Submitted, f.Served, f.Shed, f.Unrouted, f.Overmatched, warmServed+l.served)
		d := relDiff(warmRevenue+l.revenue, f.Revenue)
		cl.add("revenue", d <= 1e-9, "caller-summed %.6f vs drained Stats.Revenue %.6f (relative difference %.2e)", warmRevenue+l.revenue, f.Revenue, d)
	} else {
		charged := marketRevenue(st.eng, sp.keywords)
		d := relDiff(warmRevenue+l.revenue, charged)
		cl.add("revenue", d <= 1e-9, "batch-summed %.6f vs the markets' accounting %.6f (relative difference %.2e)", warmRevenue+l.revenue, charged, d)
	}
	if sp.text {
		recoverCheck(cl, st)
		cl.add("journal.healthy", st.jw.Err() == nil && p.jstats.Records > 0, "%d records, sticky error %v", p.jstats.Records, st.jw.Err())
	}
}

func perAuction(total float64, auctions int) float64 {
	if auctions == 0 {
		return 0
	}
	return total / float64(auctions)
}

// runChild executes one child assignment in this process.
func runChild(rc *runCfg) (*result, error) {
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return nil, err
	}
	res := &result{Workload: rc.sp.name, Metrics: metricSet{}}
	if rc.setupOnly {
		p, err := runPass(rc, rc.sp.ops(rc.seconds, rc.scale), 0, false, false, rc.t0)
		if err != nil {
			return nil, err
		}
		res.Metrics.put(endToEnd, "setup_s", p.setup.Seconds(), 0)
		return res, nil
	}
	if rc.trace {
		return res, runTraced(rc, res)
	}
	return res, runTimed(rc, res)
}

// runTimed is the --trace 0 run: the full-length loop with tracing
// off, reported as the end-to-end metrics.
func runTimed(rc *runCfg, res *result) error {
	p, err := runPass(rc, rc.sp.ops(rc.seconds, rc.scale), 0, false, false, rc.t0)
	if err != nil {
		return err
	}
	p.check(rc, &res.Checks)
	l := &p.load
	res.Attempted = l.attempted
	res.Failed = l.failed() + res.Checks.failedOutput()

	m := res.Metrics
	m.put(endToEnd, "setup_s", p.setup.Seconds(), 0)
	m.put(endToEnd, "auctions_per_s", float64(l.served)/l.window.Seconds(), l.served)
	m.put(endToEnd, "latency_p50_us", l.lat.us(0.50), int(l.lat.n))
	m.put(endToEnd, "cpu_us_per_auction", perAuction(float64(p.proc.cpu().Microseconds()), l.served), l.served)
	m.put(endToEnd, "rss_mb", p.rssMB, 0)
	m.put(endToEnd, "ok_share", 1-float64(res.Failed)/float64(max(1, res.Attempted)), res.Attempted)
	rc.logf("%s: timed window %.2fs over %d operations (loopback TCP and load generator in one process, not a real link)",
		rc.sp.name, l.window.Seconds(), l.attempted)
	return nil
}

// runTraced is the --trace 1 run: a quarter-length timed pass, the
// same pass again with the engine's trace ring and harness spans on,
// the peel pass and the kernel probes, reported as the per-layer
// metrics and written to <outDir>/<workload>.trace.json.
func runTraced(rc *runCfg, res *result) error {
	sp := rc.sp
	ops := sp.ops(rc.seconds/4, rc.scale)
	m := res.Metrics

	plain, err := runPass(rc, ops, 0, false, true, time.Now())
	if err != nil {
		return err
	}
	plain.check(rc, &res.Checks)
	runtime.GC()
	traced, err := runPass(rc, ops, traceSample, true, false, time.Now())
	if err != nil {
		return err
	}
	traced.check(rc, &res.Checks)
	res.Attempted = plain.load.attempted + traced.load.attempted
	res.Failed = plain.load.failed() + traced.load.failed() + res.Checks.failedOutput()
	passMetrics(m, sp, plain)

	// The traced pass: what tracing costs, and the wait before the
	// market, from the engine's ring matched to the harness spans.
	rate := func(p *pass) float64 { return float64(p.load.served) / p.load.window.Seconds() }
	m.put(perLayer, "obs.trace_overhead_share", 1-rate(traced)/rate(plain), 0)
	rc.logf("%s: quarter-length passes served %.0f/s untraced, %.0f/s traced (loopback TCP and load generator in one process, not a real link)",
		sp.name, rate(plain), rate(traced))
	wait, stageSpans := matchRing(traced.ring, traced.sl, sp.keywords)
	m.put(perLayer, "stream.queue_wait_us_p50", wait.us(0.50), int(wait.n))
	m.put(perLayer, "stream.queue_wait_us_p99", wait.us(0.99), int(wait.n))
	runtime.GC()

	n := min(sp.scaled(sp.peel, rc.scale), len(plain.in.queries)+len(plain.in.texts))
	pl, err := peel(rc, plain.in, n)
	if err != nil {
		return err
	}
	lv := peelMetrics(m, pl)

	const probeQ = 0 // the keyword whose market the kernel probes snapshot
	iters := max(20, int(probeIters*min(1, rc.scale*50)))
	probeKernels(m, plain.in, pl.markets[probeQ], probeQ, iters)
	if sp.conns > 0 {
		if err := probeWire(m, pl.markets[probeQ].Run(probeQ), iters); err != nil {
			return err
		}
	}
	if sp.text {
		probeText(m, plain.cfg, plain.in.texts[:n])
		if err := probeJournal(m, plain.in, plain.cfg, rc.outDir, iters); err != nil {
			return err
		}
	}
	if sp.method == MethodRH {
		m.put(perLayer, "engine.market_rest_us", lv.market-m["matching.select_us_p50"].Value-m["matching.assign_us_p50"].Value, 0)
	}
	m.complete(perLayer)

	res.Table = selfTimeTable(sp, m, lv)
	designChecks(rc, res, plain, stagesOf(pl.ring), lv)
	if err := writeTrace(rc.outDir, sp, rc.seed, traced.sl, stageSpans, traced.ring, res.Table); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// passMetrics reports what the untraced quarter pass counted and used:
// the layers' own counters after the drain, and the process's resource
// use over the loop.
func passMetrics(m metricSet, sp *spec, p *pass) {
	l := &p.load
	m.put(perLayer, "server.submitted", float64(p.net[0]), 0)
	m.put(perLayer, "server.served", float64(p.net[1]), 0)
	m.put(perLayer, "server.shed", float64(p.net[2]), 0)
	m.put(perLayer, "server.rejected", float64(p.net[3]), 0)
	if f := p.final; f != nil {
		m.put(perLayer, "stream.submitted", float64(f.Submitted), 0)
		m.put(perLayer, "stream.served", float64(f.Served), 0)
		m.put(perLayer, "stream.shed", float64(f.Shed), 0)
		m.put(perLayer, "stream.unrouted", float64(f.Unrouted), 0)
		m.put(perLayer, "stream.overmatched", float64(f.Overmatched), 0)
		m.put(perLayer, "stream.fences", float64(f.Epoch), 0)
	}
	pr := p.proc
	m.put(perLayer, "process.ctx_switches_per_auction", perAuction(float64(pr.ctxSwitches), l.served), l.served)
	if cpu := pr.cpu(); cpu > 0 {
		m.put(perLayer, "process.sys_cpu_share", float64(pr.stime)/float64(cpu), 0)
	}
	m.put(perLayer, "process.allocs_per_auction", perAuction(float64(pr.mallocs), l.served), l.served)
	m.put(perLayer, "process.alloc_bytes_per_auction", perAuction(float64(pr.allocBytes), l.served), l.served)
	m.put(perLayer, "process.gc_cycles", float64(pr.gcCycles), 0)
	m.put(perLayer, "process.gc_pause_ms", float64(pr.gcPause.Microseconds())/1e3, 0)
	m.put(perLayer, "loadgen.latency_p99_us", l.lat.us(0.99), int(l.lat.n))
	m.put(perLayer, "engine.build_ms", float64(p.buildWall.Microseconds())/1e3, 0)
	m.put(perLayer, "engine.bytes_per_advertiser", p.perAdv, 0)
	m.put(perLayer, "process.heap_mb_after_setup", p.heapMB, 0)
	if !sp.text {
		return
	}
	f := p.final
	queries := float64(p.warmup + l.attempted)
	m.put(perLayer, "broadmatch.unrouted_share", float64(f.Unrouted)/queries, 0)
	m.put(perLayer, "broadmatch.overmatched_per_query", float64(f.Overmatched)/queries, 0)
	if routed := queries - float64(f.Unrouted); routed > 0 {
		m.put(perLayer, "broadmatch.matched_per_query", float64(f.Submitted-f.Unrouted)/routed, 0)
	}
	m.put(perLayer, "budget.denied_per_auction", perAuction(float64(p.ledgers.denied), int(f.Served)), int(f.Served))
	m.put(perLayer, "budget.exhausted_share", perAuction(float64(p.ledgers.exhausted), p.ledgers.n), p.ledgers.epochs)
	m.put(perLayer, "journal.records", float64(p.jstats.Records), 0)
	m.put(perLayer, "journal.stale_dropped", float64(p.jstats.StaleDropped), 0)
	m.put(perLayer, "journal.bytes_per_auction", perAuction(float64(p.jstats.JournalBytes), int(f.Served)), int(f.Served))
	m.put(perLayer, "stream.churn_stall_ms_p50", l.stall.us(0.5)/1e3, int(l.stall.n))
	m.put(perLayer, "loadgen.offered_per_s", l.offered, l.attempted)
	m.put(perLayer, "loadgen.served_per_s", float64(l.served)/l.window.Seconds(), l.served)
	m.put(perLayer, "loadgen.late_p99_us", l.late.us(0.99), int(l.late.n))
}

// levelTimes are the peel's median call latencies in microseconds,
// outermost first; 0 where the workload has no such level.
type levelTimes struct{ client, stream, engine, market float64 }

// peelMetrics reports the peel pass: each level's median, each layer's
// self time (its level minus its child's), and the in-market stages of
// the sequentially driven traced engine.
func peelMetrics(m metricSet, pl *peelResult) levelTimes {
	level := func(name string, h *hist) float64 {
		if h == nil {
			return 0
		}
		m.put(perLayer, name, h.us(0.5), int(h.n))
		return h.us(0.5)
	}
	lv := levelTimes{
		client: level("client.call_us_p50", pl.client),
		stream: level("stream.call_us_p50", pl.stream),
		engine: level("engine.call_us_p50", pl.engine),
		market: level("engine.market_call_us_p50", pl.market),
	}
	m.put(perLayer, "engine.self_us", lv.engine-lv.market, 0)
	if pl.stream != nil {
		m.put(perLayer, "stream.self_us", lv.stream-lv.engine, 0)
	}
	if pl.client != nil {
		m.put(perLayer, "server.transport_self_us", lv.client-lv.stream, 0)
	}
	if pl.batch != nil {
		m.put(perLayer, "engine.batch_ms_p50", pl.batch.us(0.5)/1e3, int(pl.batch.n))
	}
	if pl.marketNoBudget != nil {
		m.put(perLayer, "budget.market_delta_us", lv.market-pl.marketNoBudget.us(0.5), int(pl.marketNoBudget.n))
	}
	m.put(perLayer, "engine.program_evals_per_auction", pl.evalsPerAuction, pl.routed)
	stages := stagesOf(pl.ring)
	ringN := int(stages.total.n)
	m.put(perLayer, "engine.market_solve_us_p50", stages.solve.us(0.5), ringN)
	m.put(perLayer, "engine.market_price_us_p50", stages.price.us(0.5), ringN)
	m.put(perLayer, "engine.market_charge_us_p50", stages.charge.us(0.5), ringN)
	m.put(perLayer, "engine.market_after_us_p50", stages.after.us(0.5), ringN)
	return lv
}

// selfTimeTable lays the layers' self times out as shares of the
// workload's outermost sequential call.
func selfTimeTable(sp *spec, m metricSet, lv levelTimes) []tableRow {
	outer := map[int]float64{levelClient: lv.client, levelStream: lv.stream, levelEngine: lv.engine}[sp.top()]
	var table []tableRow
	row := func(layer string, us float64) { table = append(table, tableRow{layer, us, us / outer}) }
	if lv.client > 0 {
		row("server.transport (client+wire+server+loopback)", lv.client-lv.stream)
	}
	if lv.stream > 0 {
		row("stream (queue hand-off, wake-up, stats)", lv.stream-lv.engine)
	}
	row("engine (routing, totals, metrics)", lv.engine-lv.market)
	row("engine.market", lv.market)
	if sp.method == MethodRH {
		row("  of which matching.select", m["matching.select_us_p50"].Value)
		row("  of which matching.assign", m["matching.assign_us_p50"].Value)
		row("  of which rest (programs, pricing, clicks, accounting)", m["engine.market_rest_us"].Value)
	}
	if sp.text {
		row("  of which budget+journal", m["budget.market_delta_us"].Value)
	}
	return table
}

// designChecks asserts that the workload still stresses the layers it
// was chosen to stress on this host, with the issue's own thresholds.
// They are about the benchmark's validity, not the program's outputs,
// so they do not count as failed operations; the all-workloads command
// exits non-zero on them.
func designChecks(rc *runCfg, res *result, plain *pass, stages *stageHists, lv levelTimes) {
	cl, m, sp := &res.Checks, res.Metrics, rc.sp
	l0, l1, l2, l3 := lv.client, lv.stream, lv.engine, lv.market
	share := func(us, of float64) float64 {
		if of == 0 {
			return 0
		}
		return us / of
	}
	match := m["matching.select_us_p50"].Value + m["matching.assign_us_p50"].Value
	transport := l0 - l1
	switch sp.name {
	case "rh_net":
		cl.design("rh_net.market_share", share(l3, l0) >= 0.55, "engine.market_call is %.0f%% of client.call (want >= 55%%)", 100*share(l3, l0))
		cl.design("rh_net.transport_share", share(transport, l0) < 0.40, "server.transport_self is %.0f%% of client.call (want < 40%%)", 100*share(transport, l0))
		cl.design("rh_net.matching_share", share(match, l0) >= 0.30, "matching select+assign is %.0f%% of client.call (want >= 30%%)", 100*share(match, l0))
	case "thin_net":
		cl.design("thin_net.market_share", share(l3, l0) <= 0.30, "engine.market_call is %.0f%% of client.call (want <= 30%%)", 100*share(l3, l0))
		cl.design("thin_net.transport_share", share(transport+l1-l2, l0) >= 0.65, "server.transport_self + stream.self is %.0f%% of client.call (want >= 65%%)", 100*share(transport+l1-l2, l0))
		cl.design("thin_net.matching_share", share(match, l0) < 0.10, "matching select+assign is %.0f%% of client.call (want < 10%%)", 100*share(match, l0))
		cl.design("thin_net.transport_largest", transport > l1-l2 && transport > l2-l3 && transport > l3, "server.transport_self %.1fus vs stream %.1f, engine %.1f, market %.1f", transport, l1-l2, l2-l3, l3)
	}
	if stages.total.n > 0 {
		ring := stages.solve.us(0.5) + stages.price.us(0.5) + stages.charge.us(0.5) + stages.after.us(0.5)
		cl.design("ring.reconciles", math.Abs(ring-l3) <= 0.10*l3, "ring solve+price+charge+after %.1fus vs engine.market_call %.1fus", ring, l3)
	}
	writes := m["stream.unrouted"].Value + m["stream.overmatched"].Value + m["budget.denied_per_auction"].Value + m["journal.records"].Value
	if sp.text {
		routed := m["stream.overmatched"].Value > 0 && m["budget.denied_per_auction"].Value > 0 && m["journal.records"].Value > 0
		cl.design("text.layers_work", routed, "overmatched %.0f, denied/auction %.4f, journal records %.0f (want all > 0)",
			m["stream.overmatched"].Value, m["budget.denied_per_auction"].Value, m["journal.records"].Value)
		late, lat := plain.load.late, plain.load.lat
		cl.design("text.generator_on_time", late.us(0.99) < lat.us(0.5),
			"generator lateness p99 %.0fus vs latency p50 %.0fus (want below)", late.us(0.99), lat.us(0.5))
	} else {
		cl.design("text.layers_idle", writes == 0, "routing, budget and journal counters sum to %.0f (want 0)", writes)
	}
	cl.design("process.no_allocs", m["process.allocs_per_auction"].Value < 0.01, "%.4f allocations per auction over the timed pass (want < 0.01)", m["process.allocs_per_auction"].Value)
}
