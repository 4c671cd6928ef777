package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// traceSample is the engine's existing 1-in-N trace-ring sampling rate
// used by the traced pass. Nothing in the program changes: the ring
// and its Start/Solve/Price/Charge/Done stamps already exist.
const traceSample = 8

// ringEvent mirrors the JSON the engine's trace ring dumps (DumpJSON is
// the ring's only public reader).
type ringEvent struct {
	Seq     int64 `json:"seq"`
	Keyword int32 `json:"keyword"`
	Shard   int32 `json:"shard"`
	Auction int64 `json:"auction"`
	Start   int64 `json:"start_ns"`
	Solve   int64 `json:"solve_ns"`
	Price   int64 `json:"price_ns"`
	Charge  int64 `json:"charge_ns"`
	Done    int64 `json:"done_ns"`
}

func dumpRing(eng *Engine) ([]ringEvent, error) {
	ring := eng.TraceRing()
	if ring == nil {
		return nil, nil
	}
	var buf bytes.Buffer
	if err := ring.DumpJSON(&buf); err != nil {
		return nil, fmt.Errorf("dump trace ring: %w", err)
	}
	var evs []ringEvent
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		return nil, fmt.Errorf("parse trace ring: %w", err)
	}
	return evs, nil
}

// span is one record of the trace file: a harness span around an
// outermost call, or a stage of a sampled auction (from the ring)
// nested under the call that caused it.
type span struct {
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// stageHists are the in-market stage durations of the sampled auctions.
type stageHists struct {
	solve, price, charge, after, total hist
}

func stagesOf(evs []ringEvent) *stageHists {
	sh := &stageHists{}
	for _, ev := range evs {
		sh.solve.record(ev.Solve - ev.Start)
		sh.price.record(ev.Price - ev.Solve)
		sh.charge.record(ev.Charge - ev.Price)
		sh.after.record(ev.Done - ev.Charge)
		sh.total.record(ev.Done - ev.Start)
	}
	return sh
}

// matchRing pairs each sampled auction with the harness span of the
// request that caused it, and returns the distribution of "call start
// to market pipeline entered" plus the stage spans for the trace file.
// The pairing is by keyword and time: a keyword's auctions run one at
// a time, so the request is the one on that keyword that was already
// issued when the market started and is the first to complete after it
// finished. Batch spans (keyword -1) carry many auctions and are left
// unmatched.
func matchRing(evs []ringEvent, sl *spanLog, keywords int) (*hist, []span) {
	wait := &hist{}
	byKw := make([][]int, keywords)
	for i, kw := range sl.kw {
		if kw >= 0 && sl.end[i] != 0 {
			byKw[kw] = append(byKw[kw], i)
		}
	}
	for _, ids := range byKw {
		sort.Slice(ids, func(a, b int) bool { return sl.end[ids[a]] < sl.end[ids[b]] })
	}
	var stages []span
	for _, ev := range evs {
		if int(ev.Keyword) >= keywords {
			continue
		}
		ids := byKw[ev.Keyword]
		at := sort.Search(len(ids), func(k int) bool { return sl.end[ids[k]] >= ev.Done })
		for ; at < len(ids) && sl.start[ids[at]] > ev.Start; at++ {
		}
		if at == len(ids) {
			continue // a warm-up auction, or one whose request never completed
		}
		req := ids[at]
		wait.record(ev.Start - sl.start[req])
		stages = append(stages,
			span{req, "engine.market", sl.name, ev.Start, ev.Done},
			span{req, "engine.market.solve", "engine.market", ev.Start, ev.Solve},
			span{req, "engine.market.price", "engine.market", ev.Solve, ev.Price},
			span{req, "engine.market.charge", "engine.market", ev.Price, ev.Charge},
			span{req, "engine.market.after", "engine.market", ev.Charge, ev.Done})
	}
	return wait, stages
}

// maxTraceSpans caps the harness spans written per trace file; the
// in-memory log (and every statistic) still covers all of them.
const maxTraceSpans = 20000

// writeTrace writes the traced pass's spans, the ring events and the
// self-time table to <outDir>/<workload>.trace.json.
func writeTrace(outDir string, sp *spec, seed int64, sl *spanLog, stages []span, evs []ringEvent, table []tableRow) error {
	spans := make([]span, 0, min(len(sl.start), maxTraceSpans)+len(stages))
	for i := range sl.start {
		if len(spans) == maxTraceSpans {
			break
		}
		if sl.end[i] != 0 {
			spans = append(spans, span{Req: i, Name: sl.name, Start: sl.start[i], End: sl.end[i]})
		}
	}
	spans = append(spans, stages...)
	doc := map[string]any{
		"workload":       sp.name,
		"seed":           seed,
		"trace_sample":   traceSample,
		"spans_recorded": len(sl.start),
		"spans_written":  len(spans) - len(stages),
		"spans":          spans,
		"ring_events":    evs,
		"self_time":      table,
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, sp.name+".trace.json"), append(b, '\n'), 0o644)
}

// peelResult holds the per-call latency distribution at each serving
// level (nil = the workload has no such level).
type peelResult struct {
	client, stream, engine, market *hist
	batch                          *hist // one Engine.Serve of sp.batch queries
	marketNoBudget                 *hist // text only: the same markets without ledger lanes and journal
	routed                         int   // queries that reached an auction at every level
	evalsPerAuction                float64
	ring                           []ringEvent // sampled auctions of a sequentially driven, traced engine
	markets                        []*Market   // the budget-free standalone markets, mid-run, for the kernel probes
}

// routedQuery is one peel query resolved to the market call it causes;
// q < 0 marks text that routed nowhere.
type routedQuery struct {
	q      int
	rel, w float64
}

// peelLevel is one entry point the peel drives: run replays queries
// [lo, hi) through it, close tears its stack down.
type peelLevel struct {
	run   func(lo, hi int)
	close func()
}

// peelBlock is how many queries one level replays before the next
// level takes its turn.
const peelBlock = 512

// peel replays the same queries, one sequential caller, through each
// successively deeper public entry point — Conn.AuctionInto,
// stream SubmitFunc → callback, Engine.ServeOneWeighted, Market.
// RunWeighted — each on its own fresh program built from the same
// seed, so every level does identical auction work and a level's self
// time is its median minus its child's. The levels take turns in
// blocks of peelBlock queries rather than running one after another:
// the differences between levels are small next to a drift in machine
// speed over the seconds a level takes, and alternating exposes every
// level to the same drift.
func peel(rc *runCfg, in *inputs, n int) (*peelResult, error) {
	sp := rc.sp
	pr := &peelResult{}
	cfg := engineConfig(sp, in, 0, nil)
	var levels []peelLevel
	closeAll := func() {
		for _, lv := range levels {
			lv.close()
		}
	}
	var failure error

	// Resolve the routing once, outside every timed loop.
	routed := make([]routedQuery, n)
	var texts []string
	if sp.text {
		texts = in.texts[:n]
		router := newRouter(cfg.KeywordNames, cfg.Broadmatch)
		for i, t := range texts {
			routed[i] = routedQuery{q: -1}
			if best, _, ok := router.RouteBest(t); ok {
				routed[i] = routedQuery{best.Keyword, best.Relevance, best.Weight}
				pr.routed++
			}
		}
	} else {
		for i, q := range in.queries[:n] {
			routed[i] = routedQuery{q, 1, 1}
		}
		pr.routed = n
	}

	if sp.top() <= levelClient {
		st, err := buildStack(sp, in, levelClient, 0, rc.outDir)
		if err != nil {
			return nil, err
		}
		pr.client = &hist{}
		var out WireOutcome
		levels = append(levels, peelLevel{close: func() { st.close() }, run: func(lo, hi int) {
			for _, rq := range routed[lo:hi] {
				t0 := time.Now()
				err := st.conns[0].AuctionInto(rq.q, &out)
				pr.client.record(int64(time.Since(t0)))
				if err != nil {
					failure = fmt.Errorf("peel client level: %w", err)
				}
			}
		}})
	}

	if sp.top() <= levelStream {
		st, err := buildStack(sp, in, levelStream, 0, rc.outDir)
		if err != nil {
			closeAll()
			return nil, err
		}
		pr.stream = &hist{}
		var doneAt time.Time
		done := make(chan struct{}, 1)
		fn := func(*Outcome) { doneAt = time.Now(); done <- struct{}{} }
		submit := func(i int) bool { return st.str.SubmitFunc(in.queries[i], fn) == SubmitQueued }
		if sp.text {
			submit = func(i int) bool { return st.str.SubmitTextFunc(texts[i], fn) == SubmitQueued }
		}
		levels = append(levels, peelLevel{close: func() { st.close(); st.removeJournal() }, run: func(lo, hi int) {
			for i := lo; i < hi; i++ {
				t0 := time.Now()
				if submit(i) {
					<-done
					pr.stream.record(int64(doneAt.Sub(t0)))
				}
			}
		}})
	}

	// The engine level twice: untraced for the level's latency, and
	// with the trace ring on for the in-market stage stamps under the
	// same sequential conditions the market level is timed in.
	for _, sample := range []int{0, traceSample} {
		st, err := buildStack(sp, in, levelEngine, sample, rc.outDir)
		if err != nil {
			closeAll()
			return nil, err
		}
		h := &hist{}
		if sample == 0 {
			pr.engine = h
		}
		var tot Totals
		levels = append(levels, peelLevel{
			run: func(lo, hi int) {
				for i := lo; i < hi; i++ {
					t0 := time.Now()
					if sp.text {
						best, _, ok := st.eng.RouteBroad(texts[i])
						if !ok {
							continue
						}
						st.eng.ServeOneWeighted(best.Keyword, best.Relevance, best.Weight, &tot)
					} else {
						st.eng.ServeOneWeighted(in.queries[i], 1, 1, &tot)
					}
					h.record(int64(time.Since(t0)))
				}
			},
			close: func() {
				if sample == 0 {
					pr.evalsPerAuction = perAuction(float64(st.eng.ProgramEvaluations()), tot.Auctions)
				} else if ring, err := dumpRing(st.eng); err != nil {
					failure = err
				} else {
					pr.ring = ring
				}
				st.close()
				st.removeJournal()
			},
		})
	}

	if sp.batch > 0 {
		st, err := buildStack(sp, in, levelEngine, 0, rc.outDir)
		if err != nil {
			closeAll()
			return nil, err
		}
		pr.batch = &hist{}
		levels = append(levels, peelLevel{close: func() { st.close() }, run: func(lo, hi int) {
			for i := lo; i+sp.batch <= hi; i += sp.batch {
				t0 := time.Now()
				st.eng.Serve(in.queries[i : i+sp.batch])
				pr.batch.record(int64(time.Since(t0)))
			}
		}})
	}

	marketLevel := func(ms []*Market, h *hist) peelLevel {
		return peelLevel{close: func() {}, run: func(lo, hi int) {
			for _, rq := range routed[lo:hi] {
				if rq.q < 0 {
					continue
				}
				t0 := time.Now()
				ms[rq.q].RunWeighted(rq.q, rq.rel, rq.w)
				h.record(int64(time.Since(t0)))
			}
		}}
	}
	pr.market = &hist{}
	pr.markets = buildMarkets(sp, in, cfg, nil)
	if sp.text {
		// The workload's markets charge ledger lanes that flush to a
		// journal; the same markets without either give the budget
		// and journal layers' share of a market call.
		jw, jdir, err := tempJournal(rc.outDir)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("peel market level: %w", err)
		}
		led := newLedger(in.inst.N, in.inst.Keywords, in.inst.Budget, cfg.Budget)
		if err := led.AttachJournal(jw); err != nil {
			closeAll()
			return nil, fmt.Errorf("peel market level: %w", err)
		}
		lv := marketLevel(buildMarkets(sp, in, cfg, led), pr.market)
		lv.close = func() {
			if err := jw.Close(); err != nil {
				failure = fmt.Errorf("peel market level: %w", err)
			}
			os.RemoveAll(jdir)
		}
		pr.marketNoBudget = &hist{}
		levels = append(levels, lv, marketLevel(pr.markets, pr.marketNoBudget))
	} else {
		levels = append(levels, marketLevel(pr.markets, pr.market))
	}

	block := peelBlock
	if sp.batch > 0 {
		block = sp.batch
	}
	for lo := 0; lo < n; lo += block {
		for _, lv := range levels {
			lv.run(lo, min(lo+block, n))
		}
	}
	closeAll()
	runtime.GC()
	return pr, failure
}

// probeIters is how many times each kernel probe runs; every call is
// timed on its own and the median reported.
const probeIters = 1000

func timeCalls(iters int, f func(i int)) *hist {
	h := &hist{}
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		f(i)
		h.record(int64(time.Since(t0)))
	}
	return h
}

// probeKernels times the winner-determination kernels in isolation on
// a mid-run bid snapshot of one market (Market.Bid × ClickProb): the
// section III-E per-slot top-(k+1) selection and reduced assignment
// the RH path runs, and the section IV threshold algorithm the TALU
// path runs instead.
func probeKernels(m metricSet, in *inputs, mk *Market, q, iters int) {
	inst := in.inst
	n, k := inst.N, inst.Slots
	bid := make([]float64, n)
	for i := range bid {
		bid[i] = float64(mk.Bid(i, q))
	}
	weight := func(i, j int) float64 { return inst.ClickProb[i][j] * bid[i] }

	ws := newWorkspace()
	var lists [][]TopkItem
	sel := timeCalls(iters, func(int) { lists = ws.SelectCandidates(n, k, k+1, weight) })
	m.put(perLayer, "matching.select_us_p50", sel.us(0.5), iters)

	heap := newTopkHeap(k + 1)
	var dst []TopkItem
	score0 := func(i int) float64 { return weight(i, 0) }
	one := timeCalls(iters, func(int) { dst = topkSelectInto(heap, dst[:0], n, score0) })
	m.put(perLayer, "topk.select_into_us_p50", one.us(0.5), iters)

	advOf := make([]int, k)
	asg := timeCalls(iters, func(int) { ws.AssignCandidatesInto(weight, lists, advOf) })
	m.put(perLayer, "matching.assign_us_p50", asg.us(0.5), iters)

	union := map[int]bool{}
	for _, l := range lists {
		for _, it := range l {
			union[it.ID] = true
		}
	}
	m.put(perLayer, "matching.candidate_union", float64(len(union)), 0)

	// Threshold algorithm: per slot, one list sorted by click
	// probability and one by bid; the score is their product.
	byBid := sortedItems(n, func(i int) float64 { return bid[i] })
	bidSrc := &SliceSource{Items: byBid, Get: func(i int) float64 { return bid[i] }}
	cpSrc := make([]*SliceSource, k)
	sources := make([][]TASource, k)
	for j := 0; j < k; j++ {
		cpSrc[j] = &SliceSource{
			Items: sortedItems(n, func(i int) float64 { return inst.ClickProb[i][j] }),
			Get:   func(i int) float64 { return inst.ClickProb[i][j] },
		}
		sources[j] = []TASource{cpSrc[j], bidSrc}
	}
	product := func(v []float64) float64 { return v[0] * v[1] }
	runner := newTARunner(n)
	var sorted, random, seen float64
	taH := timeCalls(iters, func(i int) {
		j := i % k
		cpSrc[j].Reset()
		bidSrc.Reset()
		var st TAStats
		dst, st = runner.TopKInto(k+1, sources[j], product, dst[:0])
		sorted += float64(st.SortedAccesses)
		random += float64(st.RandomAccesses)
		seen += float64(st.Seen)
	})
	m.put(perLayer, "ta.topk_us_p50", taH.us(0.5), iters)
	m.put(perLayer, "ta.sorted_accesses", sorted/float64(iters), 0)
	m.put(perLayer, "ta.random_accesses", random/float64(iters), 0)
	m.put(perLayer, "ta.seen_share", seen/float64(iters)/float64(n), 0)
}

func sortedItems(n int, score func(i int) float64) []TopkItem {
	items := make([]TopkItem, n)
	for i := range items {
		items[i] = TopkItem{ID: i, Score: score(i)}
	}
	sort.Slice(items, func(a, b int) bool {
		if items[a].Score != items[b].Score {
			return items[a].Score > items[b].Score
		}
		return items[a].ID < items[b].ID
	})
	return items
}

// probeWire times one auction's share of the codec in isolation —
// request encode and decode, outcome encode and decode on a real
// outcome — and reports the two frames' length.
func probeWire(m metricSet, out *Outcome, iters int) error {
	var req, resp []byte
	var rd bytes.Reader
	fr := newFrameReader(&rd, 0)
	var wreq WireRequest
	var wresp WireResponse
	var failure error
	h := timeCalls(iters, func(i int) {
		req = appendAuctionReq(req[:0], uint64(i), out.Query)
		rd.Reset(req)
		p, err := fr.Next()
		if err == nil {
			err = wreq.Decode(p)
		}
		if err == nil {
			resp = appendOutcomeResp(resp[:0], wreq.ID, out)
			rd.Reset(resp)
			if p, err = fr.Next(); err == nil {
				err = wresp.Decode(p)
			}
		}
		if err != nil {
			failure = err
		}
	})
	if failure != nil {
		return fmt.Errorf("wire probe: %w", failure)
	}
	if wresp.Out.Revenue != out.Revenue || len(wresp.Out.AdvOf) != len(out.AdvOf) {
		return fmt.Errorf("wire probe: outcome did not survive the round trip")
	}
	m.put(perLayer, "wire.codec_us", h.us(0.5), iters)
	m.put(perLayer, "wire.bytes_per_auction", float64(len(req)+len(resp)), 0)
	return nil
}

// probeText times the routing layers over the workload's own texts.
func probeText(m metricSet, cfg EngineConfig, texts []string) {
	router := newRouter(cfg.KeywordNames, cfg.Broadmatch)
	route := timeCalls(len(texts), func(i int) { router.RouteBest(texts[i]) })
	m.put(perLayer, "broadmatch.route_us_p50", route.us(0.5), len(texts))

	idx := newKwIndex()
	for q, name := range cfg.KeywordNames {
		idx.Register(q, name)
	}
	var sc KwScratch
	var hits []KwMatch
	score := timeCalls(len(texts), func(i int) { hits = idx.ScoreInto(texts[i], &sc, hits[:0]) })
	m.put(perLayer, "kwmatch.score_us_p50", score.us(0.5), len(texts))
}

// probeJournal times the append of one 64-record spend batch, the
// size a lane flushes on its RefreshEvery=64 cadence.
func probeJournal(m metricSet, in *inputs, cfg EngineConfig, outDir string, iters int) error {
	jw, jdir, err := tempJournal(outDir)
	if err != nil {
		return fmt.Errorf("journal probe: %w", err)
	}
	defer os.RemoveAll(jdir)
	led := newLedger(in.inst.N, in.inst.Keywords, in.inst.Budget, cfg.Budget)
	if err := led.AttachJournal(jw); err != nil {
		return fmt.Errorf("journal probe: %w", err)
	}
	epoch := jw.Stats().Epoch
	recs := make([]JournalSpend, 64)
	for i := range recs {
		recs[i] = JournalSpend{Adv: uint32(i % in.inst.N), Bits: math.Float64bits(1.5)}
	}
	var failure error
	h := timeCalls(iters, func(i int) {
		if err := jw.AppendSpend(epoch, 0, uint64(i+1), 0, recs); err != nil {
			failure = err
		}
	})
	if err := jw.Close(); err != nil && failure == nil {
		failure = err
	}
	if failure != nil {
		return fmt.Errorf("journal probe: %w", failure)
	}
	m.put(perLayer, "journal.append_us_p50", h.us(0.5), iters)
	return nil
}

// tableRow is one line of the self-time table: a layer, its self time
// per call, and that as a share of the outermost call.
type tableRow struct {
	Layer string  `json:"layer"`
	US    float64 `json:"self_us"`
	Share float64 `json:"share"`
}
