package engine

import (
	"math/rand"
	"testing"

	"repro/internal/broadmatch"
	"repro/internal/workload"
)

// TestRunWeightedNeutralIsRun pins the off switch at the market
// level: RunWeighted(q, 1, 1) on a reserve-free market is Run, byte
// for byte, across methods.
func TestRunWeightedNeutralIsRun(t *testing.T) {
	inst := workload.Generate(rand.New(rand.NewSource(42)), 60, 10, 4)
	queries := inst.Queries(rand.New(rand.NewSource(7)), 400)
	for _, method := range []Method{MethodRH, MethodRHTALU} {
		a := NewMarketOpts(inst, MarketOpts{Method: method, ClickSeed: 11})
		b := NewMarketOpts(inst, MarketOpts{Method: method, ClickSeed: 11})
		for i, q := range queries {
			oa := a.Run(q)
			ob := b.RunWeighted(q, 1, 1)
			if !oa.Equal(ob) {
				t.Fatalf("method %v query %d: Run %+v != RunWeighted(1,1) %+v", method, i, oa, ob)
			}
		}
	}
}

// TestReserveRHMatchesTALU pins the methods' equivalence contract
// under reserve pricing and broad-match weights: the explicit RH gate
// and the TALU lazy reserve source must exclude the same advertisers
// and price identically, across plain and weighted auctions.
func TestReserveRHMatchesTALU(t *testing.T) {
	inst := workload.Generate(rand.New(rand.NewSource(43)), 60, 10, 4)
	queries := inst.Queries(rand.New(rand.NewSource(8)), 600)
	wrng := rand.New(rand.NewSource(9))
	rels := make([]float64, len(queries))
	for i := range rels {
		// A mix of exact (1) and broad fractional relevances.
		if wrng.Intn(2) == 0 {
			rels[i] = 1
		} else {
			rels[i] = 0.25 + 0.75*wrng.Float64()
		}
	}
	for _, reserve := range []float64{0, 3, 8} {
		rh := NewMarketOpts(inst, MarketOpts{Method: MethodRH, ClickSeed: 21, Reserve: reserve})
		talu := NewMarketOpts(inst, MarketOpts{Method: MethodRHTALU, ClickSeed: 21, Reserve: reserve})
		for i, q := range queries {
			rel := rels[i]
			w := rel // squash exponent 1
			oa := rh.RunWeighted(q, rel, w)
			ob := talu.RunWeighted(q, rel, w)
			if !oa.Equal(ob) {
				t.Fatalf("reserve %v query %d (rel %v): RH %+v != TALU %+v", reserve, i, rel, oa, ob)
			}
		}
	}
}

// TestReserveFiltersAndFloors pins the reserve semantics directly: no
// winner's raw bid is below reserve/w, and every charged price is at
// least the reserve.
func TestReserveFiltersAndFloors(t *testing.T) {
	// A thin population (barely more bidders than slots) leaves some
	// slots without runner-up pressure, so the reserve floor binds.
	inst := workload.Generate(rand.New(rand.NewSource(44)), 10, 8, 3)
	const reserve = 6.0
	queries := inst.Queries(rand.New(rand.NewSource(10)), 500)
	wrng := rand.New(rand.NewSource(11))
	for _, method := range []Method{MethodRH, MethodRHTALU} {
		m := NewMarketOpts(inst, MarketOpts{Method: method, ClickSeed: 31, Reserve: reserve})
		filtered, floored := 0, 0
		for _, q := range queries {
			rel := 0.5 + 0.5*wrng.Float64()
			out := m.RunWeighted(q, rel, rel)
			cut := reserve / rel
			for j, i := range out.AdvOf {
				if i < 0 {
					continue
				}
				if bid := float64(m.Bid(i, q)); bid < cut {
					t.Fatalf("method %v: winner %d bid %v below cutoff %v", method, i, bid, cut)
				}
				if p := out.PricePerClick[j]; p < reserve {
					t.Fatalf("method %v: price %v below reserve %v", method, p, reserve)
				} else if p == reserve {
					floored++
				}
			}
			for i := 0; i < inst.N; i++ {
				if float64(m.Bid(i, q)) < cut {
					filtered++
				}
			}
		}
		if filtered == 0 {
			t.Fatalf("method %v: reserve %v never excluded anyone — test instance too easy", method, reserve)
		}
		if floored == 0 {
			t.Fatalf("method %v: reserve %v never floored a price", method, reserve)
		}
	}
}

// TestServeTextBroadNeutralMatchesExact pins the batch off switch one
// level up: with neutral knobs (threshold 1, squash 1, reserve 0) and
// exact-keyword queries, the broad ServeText serves identical
// auctions to the exact router — same revenue, clicks, and fill — and
// the accounting columns agree exactly.
func TestServeTextBroadNeutralMatchesExact(t *testing.T) {
	inst := workload.Generate(rand.New(rand.NewSource(45)), 60, 10, 4)
	queries := inst.Queries(rand.New(rand.NewSource(12)), 800)
	texts := make([]string, len(queries))
	for i, q := range queries {
		texts[i] = workload.BigramKeywordNames(inst.Keywords)[q]
	}
	names := workload.BigramKeywordNames(inst.Keywords)
	for _, method := range []Method{MethodRH, MethodRHTALU} {
		exact := New(inst, Config{Shards: 3, Method: method, ClickSeed: 5, KeywordNames: names})
		broad := New(inst, Config{Shards: 3, Method: method, ClickSeed: 5, KeywordNames: names,
			Broadmatch: broadmatch.Config{Enabled: true, Threshold: 1, Squash: 1, Seed: 77}})
		sa := exact.ServeText(texts)
		sb := broad.ServeText(texts)
		if sa.Auctions != sb.Auctions || sa.Revenue != sb.Revenue ||
			sa.Clicks != sb.Clicks || sa.Filled != sb.Filled || sa.Unrouted != sb.Unrouted {
			t.Fatalf("method %v: exact %+v != broad-neutral %+v", method, sa, sb)
		}
		if sb.Overmatched != 0 {
			t.Fatalf("method %v: neutral broad match overmatched %d", method, sb.Overmatched)
		}
		for q := 0; q < inst.Keywords; q++ {
			am, bm := exact.KeywordMarket(q), broad.KeywordMarket(q)
			for i := 0; i < inst.N; i++ {
				if am.Accounting().SpentTotal[i] != bm.Accounting().SpentTotal[i] {
					t.Fatalf("method %v keyword %d: spend diverged for advertiser %d", method, q, i)
				}
			}
		}
		exact.Close()
		broad.Close()
	}
}
