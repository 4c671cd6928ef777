package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/racetest"
	"repro/internal/workload"
)

// referenceOutcomes runs, for each keyword, a fresh sequential Market
// over just that keyword's subsequence of the query stream — the engine's documented
// equivalence reference.
func referenceOutcomes(inst *workload.Instance, method Method, clickSeed int64, queries []int) [][]*Outcome {
	ref := make([][]*Outcome, inst.Keywords)
	markets := make([]*Market, inst.Keywords)
	for q := 0; q < inst.Keywords; q++ {
		markets[q] = NewMarketOpts(inst, MarketOpts{Method: method, ClickSeed: KeywordSeed(clickSeed, q)})
	}
	for _, q := range queries {
		ref[q] = append(ref[q], markets[q].RunAuction(q))
	}
	return ref
}

// TestEngineMatchesSequentialMarkets: the core serving contract. For
// several shard counts and a shuffled stream, every keyword's outcome
// sequence (and final bid state) must match the sequential reference
// exactly. Run under -race this also proves the shard workers share no
// state.
func TestEngineMatchesSequentialMarkets(t *testing.T) {
	for _, method := range []Method{MethodRH, MethodRHTALU} {
		inst := workload.Generate(rand.New(rand.NewSource(61)), 80, 6, 7)
		queries := inst.Queries(rand.New(rand.NewSource(62)), 900)
		const clickSeed = 17
		ref := referenceOutcomes(inst, method, clickSeed, queries)

		for _, shards := range []int{1, 2, 3, 7} {
			// A different interleaving per shard count: per-keyword
			// subsequences are what the contract pins, not the global
			// order.
			shuffled := append([]int(nil), queries...)
			rand.New(rand.NewSource(int64(100+shards))).Shuffle(len(shuffled), func(a, b int) {
				shuffled[a], shuffled[b] = shuffled[b], shuffled[a]
			})
			e := New(inst, Config{Shards: shards, QueueDepth: 8, Method: method, ClickSeed: clickSeed})
			outs, st := e.ServeOutcomes(shuffled)
			if st.Auctions != len(shuffled) {
				t.Fatalf("method=%v shards=%d: served %d of %d", method, shards, st.Auctions, len(shuffled))
			}

			// Regroup engine outcomes by keyword in arrival order and
			// compare against the per-keyword reference streams. The
			// shuffle permutes arrivals, so compare against a reference
			// for the shuffled stream.
			want := referenceOutcomes(inst, method, clickSeed, shuffled)
			got := make([][]*Outcome, inst.Keywords)
			for idx, o := range outs {
				if o == nil {
					t.Fatalf("method=%v shards=%d: missing outcome %d", method, shards, idx)
				}
				got[o.Query] = append(got[o.Query], o)
			}
			for q := 0; q < inst.Keywords; q++ {
				if len(got[q]) != len(want[q]) {
					t.Fatalf("method=%v shards=%d kw=%d: %d outcomes, want %d",
						method, shards, q, len(got[q]), len(want[q]))
				}
				for a := range want[q] {
					if !got[q][a].Equal(want[q][a]) {
						t.Fatalf("method=%v shards=%d kw=%d auction=%d: engine %+v != sequential %+v",
							method, shards, q, a, got[q][a], want[q][a])
					}
				}
			}
			_ = ref // the unshuffled reference pins determinism below
		}
	}
}

// TestEngineShardCountInvariance: shard count and queue depth are pure
// performance knobs — two engines over the same stream must agree
// outcome for outcome, whatever their configuration.
func TestEngineShardCountInvariance(t *testing.T) {
	inst := workload.Generate(rand.New(rand.NewSource(63)), 60, 5, 9)
	queries := inst.Queries(rand.New(rand.NewSource(64)), 700)
	base, _ := New(inst, Config{Shards: 1, QueueDepth: 1, Method: MethodRH, ClickSeed: 5}).ServeOutcomes(queries)
	for _, cfg := range []Config{
		{Shards: 4, QueueDepth: 2, Method: MethodRH, ClickSeed: 5},
		{Shards: 9, QueueDepth: 512, Method: MethodRH, ClickSeed: 5},
	} {
		outs, _ := New(inst, cfg).ServeOutcomes(queries)
		for i := range base {
			if !outs[i].Equal(base[i]) {
				t.Fatalf("cfg %+v: outcome %d differs: %+v vs %+v", cfg, i, outs[i], base[i])
			}
		}
	}
}

// TestEngineServeAccumulates: repeated Serve calls continue the same
// markets (a long-running server, not a per-batch reset).
func TestEngineServeAccumulates(t *testing.T) {
	inst := workload.Generate(rand.New(rand.NewSource(65)), 40, 4, 5)
	queries := inst.Queries(rand.New(rand.NewSource(66)), 400)
	e := New(inst, Config{Shards: 3, Method: MethodRH, ClickSeed: 9})
	e.Serve(queries[:250])
	e.Serve(queries[250:])
	whole := referenceOutcomes(inst, MethodRH, 9, queries)
	for q := 0; q < inst.Keywords; q++ {
		if got, want := e.KeywordMarket(q).Auctions(), len(whole[q]); got != want {
			t.Fatalf("kw %d: %d auctions, want %d", q, got, want)
		}
	}
	// Bid state must equal the reference's final state.
	for q := 0; q < inst.Keywords; q++ {
		m := NewMarketOpts(inst, MarketOpts{Method: MethodRH, ClickSeed: KeywordSeed(9, q)})
		for range whole[q] {
			m.RunAuction(q)
		}
		for i := 0; i < inst.N; i++ {
			if got, want := e.KeywordMarket(q).Bid(i, q), m.Bid(i, q); got != want {
				t.Fatalf("kw %d advertiser %d: bid %d, want %d", q, i, got, want)
			}
		}
	}
}

// TestEngineTextRouting: free-text queries route through the kwmatch
// inverted index to the catalog keyword with the highest token
// overlap; unmatched text runs no auction.
func TestEngineTextRouting(t *testing.T) {
	inst := workload.Generate(rand.New(rand.NewSource(67)), 30, 3, 3)
	e := New(inst, Config{
		Shards:       2,
		Method:       MethodRH,
		KeywordNames: []string{"leather boot", "running shoe", "boot polish kit"},
	})
	if q, ok := e.RouteText("red leather boot"); !ok || q != 0 {
		t.Fatalf("RouteText(leather boot query) = %d, %v", q, ok)
	}
	if q, ok := e.RouteText("shoe"); !ok || q != 1 {
		t.Fatalf("RouteText(shoe) = %d, %v", q, ok)
	}
	if _, ok := e.RouteText("quantum gravity"); ok {
		t.Fatal("unrelated text should not route")
	}
	st := e.ServeText([]string{"red leather boot", "buy running shoe online", "quantum gravity", ""})
	if st.Auctions != 2 || st.Unrouted != 2 {
		t.Fatalf("ServeText: %d auctions, %d unrouted; want 2 and 2", st.Auctions, st.Unrouted)
	}
}

// TestEngineServeSteadyStateAllocs: the batch path is an
// enqueue-all-then-barrier over the engine's persistent workers, so
// once warm a repeated fixed-size Serve allocates nothing (the Stats
// stays on the caller's stack, the barrier's control item and the
// latency snapshots are preallocated) and spawns no goroutine — and a
// smaller batch followed by a larger one still returns exact totals.
func TestEngineServeSteadyStateAllocs(t *testing.T) {
	inst := workload.Generate(rand.New(rand.NewSource(80)), 40, 4, 6)
	queries := inst.Queries(rand.New(rand.NewSource(81)), 600)
	cfg := Config{Shards: 3, Method: MethodRH, ClickSeed: 4}
	e := New(inst, cfg)
	defer e.Close()
	e.Serve(queries)
	e.Serve(queries)
	if !racetest.Enabled { // allocation accounting is perturbed under -race
		goroutines := runtime.NumGoroutine()
		served := 0
		allocs := testing.AllocsPerRun(20, func() {
			served += e.Serve(queries).Auctions
		})
		if allocs != 0 {
			t.Fatalf("warm Serve allocates %.0f objects per batch, want 0", allocs)
		}
		if served != 21*len(queries) {
			t.Fatalf("served %d auctions over 21 batches of %d", served, len(queries))
		}
		if g := runtime.NumGoroutine(); g != goroutines {
			t.Fatalf("Serve changed the goroutine count: %d -> %d", goroutines, g)
		}
	}

	// Exact totals against the outcomes of a twin engine fed the same
	// batches: a smaller batch, then one larger than any before.
	twin := New(inst, cfg)
	defer twin.Close()
	for e.KeywordMarket(0).Auctions() > twin.KeywordMarket(0).Auctions() {
		twin.Serve(queries)
	}
	for _, batch := range [][]int{queries[:300], append(append([]int(nil), queries...), queries...)} {
		st := e.Serve(batch)
		outs, _ := twin.ServeOutcomes(batch)
		var want Totals
		for _, o := range outs {
			want.Add(o)
		}
		if st.Auctions != want.Auctions || st.Clicks != want.Clicks || st.Filled != want.Filled || st.TotalSlots != want.Slots {
			t.Fatalf("batch of %d: stats %+v, want totals %+v", len(batch), st, want)
		}
		if d := st.Revenue - want.Revenue; d > 1e-6 || d < -1e-6 {
			t.Fatalf("batch of %d: revenue %v, want %v", len(batch), st.Revenue, want.Revenue)
		}
		if st.P50 <= 0 || st.P99 < st.P50 || st.Max < st.P99 {
			t.Fatalf("batch of %d: percentiles not ordered: p50=%v p99=%v max=%v", len(batch), st.P50, st.P99, st.Max)
		}
	}
}

// TestEngineCloseStopsWorkers: Close joins the persistent shard
// workers, so building, using and closing engines leaves the
// goroutine count where it started.
func TestEngineCloseStopsWorkers(t *testing.T) {
	inst := workload.Generate(rand.New(rand.NewSource(83)), 20, 3, 4)
	queries := inst.Queries(rand.New(rand.NewSource(84)), 50)
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		e := New(inst, Config{Shards: 4, Method: MethodRH, ClickSeed: 1})
		if st := e.Serve(queries); st.Auctions != len(queries) {
			t.Fatalf("round %d: served %d of %d", i, st.Auctions, len(queries))
		}
		e.Close()
		e.Close()
	}
	// Close waits for every worker's last statement, not for the
	// runtime to retire the goroutine.
	waitGoroutines(t, before)
}

// TestEngineServeTextMixedAccounting: under a long interleaved stream
// of routed and unrouted free-text queries, every query is accounted
// exactly once — Auctions + Unrouted == submitted — and the unrouted
// ones are pure no-ops: the routed subsequence produces the same
// market evolution as serving it alone.
func TestEngineServeTextMixedAccounting(t *testing.T) {
	inst := workload.Generate(rand.New(rand.NewSource(82)), 40, 4, 3)
	names := []string{"leather boot", "running shoe", "garden hose"}
	mk := func() *Engine {
		return New(inst, Config{Shards: 2, Method: MethodRH, ClickSeed: 13, KeywordNames: names})
	}
	junk := []string{"quantum gravity", "", "zzz unknown tokens", "plasma lattice"}
	rng := rand.New(rand.NewSource(83))
	var text []string
	var routedOnly []string
	wantUnrouted := 0
	for i := 0; i < 800; i++ {
		if rng.Intn(3) == 0 {
			text = append(text, junk[rng.Intn(len(junk))])
			wantUnrouted++
		} else {
			s := names[rng.Intn(len(names))]
			text = append(text, s)
			routedOnly = append(routedOnly, s)
		}
	}
	a := mk()
	st := a.ServeText(text)
	if st.Unrouted != wantUnrouted {
		t.Fatalf("Unrouted = %d, want %d", st.Unrouted, wantUnrouted)
	}
	if st.Auctions+st.Unrouted != len(text) {
		t.Fatalf("accounting leak: %d auctions + %d unrouted != %d submitted",
			st.Auctions, st.Unrouted, len(text))
	}
	b := mk()
	st2 := b.ServeText(routedOnly)
	if st2.Unrouted != 0 || st2.Auctions != len(routedOnly) {
		t.Fatalf("routed-only control: %d auctions, %d unrouted", st2.Auctions, st2.Unrouted)
	}
	if st.Revenue != st2.Revenue || st.Clicks != st2.Clicks || st.Filled != st2.Filled {
		t.Fatalf("unrouted queries perturbed the market: mixed (rev=%g clicks=%d) vs routed-only (rev=%g clicks=%d)",
			st.Revenue, st.Clicks, st2.Revenue, st2.Clicks)
	}
	for q := 0; q < inst.Keywords; q++ {
		for i := 0; i < inst.N; i++ {
			if a.KeywordMarket(q).Bid(i, q) != b.KeywordMarket(q).Bid(i, q) {
				t.Fatalf("bid[%d][%d] differs between mixed and routed-only streams", i, q)
			}
		}
	}
}

// TestMarketRunMatchesRunAuction: the reused-outcome hot path and the
// retainable-outcome facade must report the same auctions.
func TestMarketRunMatchesRunAuction(t *testing.T) {
	inst := workload.Generate(rand.New(rand.NewSource(68)), 50, 5, 6)
	queries := inst.Queries(rand.New(rand.NewSource(69)), 500)
	a := NewMarketOpts(inst, MarketOpts{Method: MethodRH, ClickSeed: 3})
	b := NewMarketOpts(inst, MarketOpts{Method: MethodRH, ClickSeed: 3})
	for _, q := range queries {
		oa := a.Run(q)
		ob := b.RunAuction(q)
		if !oa.Equal(ob) {
			t.Fatalf("Run %+v != RunAuction %+v", oa, ob)
		}
	}
}

// warmAllocs serves the first warm queries on m, then returns the
// allocations per auction over runs more, cycling through queries.
func warmAllocs(m *Market, queries []int, warm, runs int) float64 {
	for _, q := range queries[:warm] {
		m.Run(q)
	}
	next := warm
	return testing.AllocsPerRun(runs, func() {
		m.Run(queries[next%len(queries)])
		next++
	})
}

// marketSizeAllocs checks one method's warm auction on the Section V
// shape (15 slots, 10 keywords) at Figure 12/13 sizes. The n=5000
// market is slow, so it measures fewer auctions, not a smaller n.
func marketSizeAllocs(t *testing.T, method Method) {
	if racetest.Enabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	for _, tc := range []struct{ n, runs int }{{500, 1000}, {1000, 500}, {5000, 100}} {
		t.Run(fmt.Sprintf("n=%d", tc.n), func(t *testing.T) {
			inst := workload.Generate(rand.New(rand.NewSource(70)), tc.n, 15, 10)
			queries := inst.Queries(rand.New(rand.NewSource(71)), 4096)
			m := NewMarketOpts(inst, MarketOpts{Method: method, ClickSeed: 7})
			if allocs := warmAllocs(m, queries, 2048, tc.runs); allocs != 0 {
				t.Fatalf("steady-state %v auction allocates %.2f objects/op, want 0", method, allocs)
			}
		})
	}
}

// TestMarketSteadyStateAllocs is the allocation-free guarantee of the
// serving hot path: after warmup, MethodRH auctions must not allocate
// at all — selection, reduced matching, pricing, click simulation, and
// accounting all run in reused buffers.
func TestMarketSteadyStateAllocs(t *testing.T) { marketSizeAllocs(t, MethodRH) }

// TestRebuiltMarketSteadyStateAllocs: the markets a churn fence
// (RebuildShard) creates share the shard's click data — one slot-major
// matrix, and under TALU one per-slot sorted order — and a warm
// auction on one of them allocates nothing.
func TestRebuiltMarketSteadyStateAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	inst := workload.Generate(rand.New(rand.NewSource(70)), 1000, 15, 10)
	queries := inst.Queries(rand.New(rand.NewSource(71)), 4096)
	for _, method := range []Method{MethodRH, MethodRHTALU} {
		t.Run(method.String(), func(t *testing.T) {
			e := New(inst, Config{Shards: 2, Method: method, ClickSeed: 7})
			defer e.Close()
			done := make(chan struct{})
			e.Control(0, func(s int) { e.RebuildShard(s, inst, nil); close(done) }, true)
			<-done
			var own []int
			for q := 0; q < inst.Keywords; q++ {
				if e.ShardOf(q) == 0 {
					own = append(own, q)
				}
			}
			first := e.KeywordMarket(own[0])
			if (first.click.order != nil) != (method == MethodRHTALU) {
				t.Fatalf("rebuilt market's click order is %v, want it built only under TALU", first.click.order != nil)
			}
			for _, q := range own[1:] {
				c := e.KeywordMarket(q).click
				if &c.cols[0] != &first.click.cols[0] {
					t.Fatalf("keyword %d's rebuilt market holds its own click matrix", q)
				}
				if c.order != nil && &c.order[0][0] != &first.click.order[0][0] {
					t.Fatalf("keyword %d's rebuilt market holds its own click order", q)
				}
			}
			kwQueries := make([]int, 0, len(queries))
			for _, q := range queries {
				if q == own[0] {
					kwQueries = append(kwQueries, q)
				}
			}
			if allocs := warmAllocs(first, kwQueries, len(kwQueries)/2, 200); allocs != 0 {
				t.Fatalf("steady-state rebuilt %v auction allocates %.2f objects/op, want 0", method, allocs)
			}
		})
	}
}

// TestTALUSteadyStateAllocs extends the zero-allocation guarantee to
// the paper's own fast path: after warmup, a MethodRHTALU auction —
// trigger firings, logical updates, per-slot walks of the persistent
// bid-level buckets (and their upkeep), workspace winner determination,
// pricing, clicks, accounting, and the winners' recomputes (including
// treap membership churn, recycled through the per-keyword node
// pools) — must not allocate at all.
func TestTALUSteadyStateAllocs(t *testing.T) { marketSizeAllocs(t, MethodRHTALU) }

// stormInstance hand-builds a workload where every bidder shares the
// same click value, target, and starting bid: all start underspending
// with identical (smoothed) ROI, so every bidder lands in the
// increment list of every keyword and their count triggers all carry
// the same critical count — the maximal simultaneous trigger storm.
func stormInstance(n, slots, keywords int) *workload.Instance {
	inst := &workload.Instance{
		N: n, Slots: slots, Keywords: keywords,
		Value:      make([][]int, n),
		Target:     make([]int, n),
		InitialBid: make([][]int, n),
		ClickProb:  make([][]float64, n),
	}
	for i := 0; i < n; i++ {
		inst.Value[i] = make([]int, keywords)
		inst.InitialBid[i] = make([]int, keywords)
		inst.ClickProb[i] = make([]float64, slots)
		for q := 0; q < keywords; q++ {
			inst.Value[i][q] = 10
			inst.InitialBid[i][q] = 5
		}
		inst.Target[i] = 3
		for j := 0; j < slots; j++ {
			// Distinct per-bidder probabilities (descending in slot)
			// keep winner determination free of mass ties.
			inst.ClickProb[i][j] = 0.8 - 0.1*float64(j) - 0.002*float64(i)
		}
	}
	return inst
}

// TestTALUTriggerStorm drives the regime where many bidders cross the
// same critical count on the same auction — all n count triggers of a
// keyword fire together as the drifting bids hit their caps. Outcomes
// and final bids must stay byte-identical to the explicit engine
// through the storm, the storm auction must charge ~n recomputes at
// once, and total recomputes must stay far below the explicit
// engine's n-per-auction.
func TestTALUTriggerStorm(t *testing.T) {
	const (
		n        = 64
		slots    = 3
		keywords = 2
		auctions = 400
	)
	inst := stormInstance(n, slots, keywords)
	queries := inst.Queries(rand.New(rand.NewSource(73)), auctions)
	ex := NewMarketOpts(inst, MarketOpts{Method: MethodRH, ClickSeed: 11})
	ta := NewMarketOpts(inst, MarketOpts{Method: MethodRHTALU, ClickSeed: 11})

	var stormBatch int64
	prevEvals := ta.ProgramEvaluations()
	for a, q := range queries {
		exO := ex.Run(q)
		taO := ta.Run(q)
		if !taO.Equal(exO) {
			t.Fatalf("auction %d (kw %d): TALU %+v != explicit %+v", a, q, taO, exO)
		}
		evals := ta.ProgramEvaluations()
		if d := evals - prevEvals; d > stormBatch {
			stormBatch = d
		}
		prevEvals = evals
	}
	for q := 0; q < keywords; q++ {
		for i := 0; i < n; i++ {
			if got, want := ta.Bid(i, q), ex.Bid(i, q); got != want {
				t.Fatalf("bid[%d][%d]: TALU %d, explicit %d", i, q, got, want)
			}
		}
	}

	// The storm: with identical values and bids, (nearly) all n count
	// triggers of a keyword share one critical count. Clicks before
	// the storm recompute a few bidders early, so demand most of n
	// rather than all of it.
	if stormBatch < n/2 {
		t.Fatalf("largest single-auction recompute batch = %d, want a storm of >= %d", stormBatch, n/2)
	}
	// And the point of §IV: even including the storm, total recomputes
	// stay far below the explicit engine's n per auction.
	total := ta.ProgramEvaluations()
	explicit := int64(n) * int64(auctions)
	if total*4 > explicit {
		t.Fatalf("TALU recomputes %d vs explicit %d: §IV reduction lost", total, explicit)
	}
}
