package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// outcomeRec is a retained copy of one auction outcome, taken from
// either side of the wire; q < 0 marks a text query that routed to no
// keyword (no auction ran).
type outcomeRec struct {
	q       int
	adv     []int
	price   []float64
	clicked []bool
	revenue float64
}

func recOf(q int, adv []int, price []float64, clicked []bool, revenue float64) outcomeRec {
	return outcomeRec{
		q:       q,
		adv:     append([]int(nil), adv...),
		price:   append([]float64(nil), price...),
		clicked: append([]bool(nil), clicked...),
		revenue: revenue,
	}
}

func recOfEngine(o *Outcome) outcomeRec {
	return recOf(o.Query, o.AdvOf, o.PricePerClick, o.Clicked, o.Revenue)
}

func (a outcomeRec) equal(b outcomeRec) bool {
	if a.q != b.q || a.revenue != b.revenue || len(a.adv) != len(b.adv) {
		return false
	}
	for j := range a.adv {
		if a.adv[j] != b.adv[j] || a.price[j] != b.price[j] || a.clicked[j] != b.clicked[j] {
			return false
		}
	}
	return true
}

// spanLog holds the harness spans of one traced pass: one span around
// every outermost call, indexed by request number, kept in memory
// until the run ends. kw is the keyword the request was served on.
type spanLog struct {
	name       string
	kw         []int32
	start, end []int64 // unix nanoseconds; end 0 = never completed
}

func newSpanLog(name string, n int) *spanLog {
	return &spanLog{name: name, kw: make([]int32, n), start: make([]int64, n), end: make([]int64, n)}
}

// loadResult is what one pass of a workload's loop observed.
type loadResult struct {
	attempted int // operations issued
	served    int // auctions that returned an outcome
	shed      int
	rejected  int
	errs      int // call errors other than shed/rejected
	bad       int // outcomes that failed the per-outcome check
	unrouted  int // text that matched no keyword: not an auction, not a failure
	window    time.Duration
	lat       *hist // every latency of the window
	revenue   float64

	// Open loop only.
	late    *hist   // actual send time minus due time
	stall   *hist   // latency of the first query behind each churn fence, per shard
	offered float64 // arrivals per second the schedule asked for
}

func (r *loadResult) failed() int { return r.shed + r.rejected + r.errs + r.bad }

// pad keeps per-goroutine accumulators on separate cache lines.
type pad [64]byte

// warmNet issues the warm-up sequentially, alternating connections, so
// the server sees one total order and the outcomes are deterministic.
func warmNet(st *stack, queries []int) ([]outcomeRec, error) {
	recs := make([]outcomeRec, 0, len(queries))
	var out WireOutcome
	for i, q := range queries {
		if err := st.conns[i%len(st.conns)].AuctionInto(q, &out); err != nil {
			return nil, fmt.Errorf("warm-up auction %d: %w", i, err)
		}
		recs = append(recs, recOf(out.Query, out.AdvOf, out.PricePerClick, out.Clicked, out.Revenue))
	}
	return recs, nil
}

func warmBatch(st *stack, queries []int) []outcomeRec {
	outs, _ := st.eng.ServeOutcomes(queries)
	recs := make([]outcomeRec, len(outs))
	for i, o := range outs {
		recs[i] = recOfEngine(o)
	}
	return recs
}

// warmText submits the warm-up one query at a time, waiting for each
// outcome, for the same reason warmNet is sequential.
func warmText(st *stack, texts []string) ([]outcomeRec, error) {
	recs := make([]outcomeRec, 0, len(texts))
	done := make(chan outcomeRec, 1)
	fn := func(o *Outcome) { done <- recOfEngine(o) }
	for i, t := range texts {
		switch res := st.str.SubmitTextFunc(t, fn); res {
		case SubmitQueued:
			recs = append(recs, <-done)
		case SubmitUnrouted:
			recs = append(recs, outcomeRec{q: -1})
		default:
			return nil, fmt.Errorf("warm-up text %d: submit result %d", i, res)
		}
	}
	return recs, nil
}

// runClosedNet is the closed loop of the networked workloads: every
// caller issues its next auction when the previous one returns. Caller
// g of G takes queries g, g+G, g+2G, … so the operation count is fixed.
func runClosedNet(st *stack, queries []int, sl *spanLog) loadResult {
	G := len(st.conns) * st.sp.callers
	type part struct {
		lat    hist
		res    loadResult
		finish time.Time
		_      pad
	}
	parts := make([]part, G)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := &parts[g]
			conn := st.conns[g/st.sp.callers]
			var out WireOutcome
			<-start
			for i := g; i < len(queries); i += G {
				q := queries[i]
				t0 := time.Now()
				err := conn.AuctionInto(q, &out)
				t1 := time.Now()
				p.res.attempted++
				if sl != nil {
					sl.kw[i], sl.start[i], sl.end[i] = int32(q), t0.UnixNano(), t1.UnixNano()
				}
				switch {
				case err == nil:
					p.lat.record(int64(t1.Sub(t0)))
					p.res.served++
					p.res.revenue += out.Revenue
					if out.Query != q || len(out.AdvOf) != st.sp.slots {
						p.res.bad++
					}
				case errors.Is(err, errShed):
					p.res.shed++
				case errors.Is(err, errRejected):
					p.res.rejected++
				default:
					p.res.errs++
				}
			}
			p.finish = time.Now()
		}(g)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()

	res := loadResult{lat: &hist{}}
	for g := range parts {
		p := &parts[g]
		res.lat.merge(&p.lat)
		res.attempted += p.res.attempted
		res.served += p.res.served
		res.shed += p.res.shed
		res.rejected += p.res.rejected
		res.errs += p.res.errs
		res.bad += p.res.bad
		res.revenue += p.res.revenue
		res.window = max(res.window, p.finish.Sub(t0))
	}
	return res
}

// runBatch is talu_batch's closed loop: one caller, one Engine.Serve
// per batch. An auction's latency is its batch's call-to-return time —
// a batch caller gets no outcome before the whole batch returns.
func runBatch(st *stack, queries []int, sl *spanLog) loadResult {
	res := loadResult{lat: &hist{}}
	b := st.sp.batch
	t0 := time.Now()
	for i := 0; i+b <= len(queries); i += b {
		c0 := time.Now()
		stats := st.eng.Serve(queries[i : i+b])
		c1 := time.Now()
		res.lat.record(int64(c1.Sub(c0)))
		if sl != nil {
			sl.kw[i/b], sl.start[i/b], sl.end[i/b] = -1, c0.UnixNano(), c1.UnixNano()
		}
		res.attempted += b
		res.served += stats.Auctions
		res.revenue += stats.Revenue
		if stats.Auctions != b {
			res.bad += b - stats.Auctions
		}
	}
	res.window = time.Since(t0)
	return res
}

// openShard is what the completion callbacks of one serving shard
// accumulate; only that shard's goroutine writes it (stallFrom is the
// one field the control goroutine also touches).
type openShard struct {
	lat      hist
	stall    hist
	revenue  float64
	served   int
	lastDone time.Time
	// stallFrom, when non-zero, is 1 + the index of the first query
	// sent after the latest churn call returned: that query, or the
	// first later one this shard serves, sat behind the churn fence.
	stallFrom atomic.Int64
	_         pad
}

// openLoop is text_budget_churn's loop: one generator sends each query
// at its scheduled time whether or not earlier ones have completed,
// and latency runs from the due time to the completion callback, so a
// stall is charged to every query it delays. The callbacks are built
// before the window opens (newOpenLoop is part of set-up) so that the
// timed window allocates nothing.
type openLoop struct {
	st      *stack
	texts   []string
	due     []time.Duration
	control []controlEvent
	sl      *spanLog

	start  time.Time
	shard  []openShard
	fns    []func(*Outcome)
	cursor atomic.Int64 // queries sent so far

	// ledgers, when set, samples the outgoing ledger's totals before
	// every scripted write retires it.
	ledgers *ledgerTotals
	// beforeSend, when set, runs in the generator before query i is
	// sent; the tests use it to delay the generator itself.
	beforeSend func(i int)
}

func newOpenLoop(st *stack, texts []string, due []time.Duration, control []controlEvent, sl *spanLog) *openLoop {
	ol := &openLoop{st: st, texts: texts, due: due, control: control, sl: sl,
		shard: make([]openShard, shards), fns: make([]func(*Outcome), len(texts))}
	for i := range ol.fns {
		ol.fns[i] = func(o *Outcome) { ol.complete(i, o) }
	}
	return ol
}

// complete runs on the serving shard's goroutine.
func (ol *openLoop) complete(i int, o *Outcome) {
	now := time.Now()
	s := ol.st.eng.ShardOf(o.Query)
	sh := &ol.shard[s]
	lat := int64(now.Sub(ol.start) - ol.due[i])
	sh.lat.record(lat)
	sh.served++
	sh.revenue += o.Revenue
	sh.lastDone = now
	if from := sh.stallFrom.Load(); from != 0 && int64(i)+1 >= from && sh.stallFrom.CompareAndSwap(from, 0) {
		sh.stall.record(lat)
	}
	if ol.sl != nil {
		ol.sl.kw[i], ol.sl.end[i] = int32(o.Query), now.UnixNano()
	}
}

func (ol *openLoop) run() loadResult {
	res := loadResult{lat: &hist{}, late: &hist{}, stall: &hist{}}
	srv := ol.st.str

	// Scripted writes run on their own goroutine so that a churn call
	// (which clones the population) never delays the generator.
	ctl := make(chan controlEvent, len(ol.control))
	var ctlErrs atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ev := range ctl {
			if ol.ledgers != nil {
				ol.ledgers.sample(ol.st.eng.Ledger())
			}
			var err error
			switch {
			case ev.reset:
				err = srv.ResetBudgets()
			case ev.churn.Add != nil:
				_, err = srv.AddAdvertiser(*ev.churn.Add)
			default:
				err = srv.RemoveAdvertiser(ev.churn.Remove)
			}
			if err != nil {
				ctlErrs.Add(1)
				continue
			}
			if !ev.reset {
				from := ol.cursor.Load() + 1
				for s := range ol.shard {
					ol.shard[s].stallFrom.Store(from)
				}
			}
		}
	}()

	next := 0
	sleeper := newPreciseSleeper()
	defer sleeper.unlock()
	ol.start = time.Now()
	for i, text := range ol.texts {
		target := ol.start.Add(ol.due[i])
		if d := time.Until(target); d > 0 {
			sleeper.sleep(d)
		}
		if ol.beforeSend != nil {
			ol.beforeSend(i)
		}
		now := time.Now()
		res.late.record(int64(max(0, now.Sub(target))))
		if ol.sl != nil {
			ol.sl.kw[i], ol.sl.start[i] = -1, now.UnixNano()
		}
		res.attempted++
		switch srv.SubmitTextFunc(text, ol.fns[i]) {
		case SubmitQueued:
		case SubmitShed:
			res.shed++
		case SubmitUnrouted:
			res.unrouted++
		default:
			res.errs++
		}
		ol.cursor.Store(int64(i) + 1)
		for next < len(ol.control) && i+1 >= ol.control[next].after {
			ctl <- ol.control[next]
			next++
		}
	}
	for ; next < len(ol.control); next++ {
		ctl <- ol.control[next]
	}
	close(ctl)
	wg.Wait()
	res.errs += int(ctlErrs.Load())
	return res
}

// finish folds the shard accumulators in; call it after the stack has
// drained (every queued query's callback has run by then).
func (ol *openLoop) finish(res *loadResult) {
	for s := range ol.shard {
		sh := &ol.shard[s]
		res.lat.merge(&sh.lat)
		res.stall.merge(&sh.stall)
		res.served += sh.served
		res.revenue += sh.revenue
		if !sh.lastDone.IsZero() {
			res.window = max(res.window, sh.lastDone.Sub(ol.start))
		}
	}
	if n := len(ol.due); n > 0 && ol.due[n-1] > 0 {
		res.offered = float64(n) / ol.due[n-1].Seconds()
	}
}
