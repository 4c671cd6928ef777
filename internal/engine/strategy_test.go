package engine

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// runWorlds drives one world per method over the same instance,
// query stream, and click seed.
func runWorlds(t *testing.T, inst *workload.Instance, queries []int, methods []Method) map[Method][]*Outcome {
	t.Helper()
	out := make(map[Method][]*Outcome)
	for _, m := range methods {
		w := NewMarketOpts(inst, MarketOpts{Method: m, ClickSeed: 12345})
		var outcomes []*Outcome
		for _, q := range queries {
			outcomes = append(outcomes, w.RunAuction(q))
		}
		out[m] = outcomes
	}
	return out
}

// TestExplicitEnginesAgree: LP, H, and RH share the explicit bid
// engine, so their allocations' expected values — and hence the whole
// simulation trajectory — must coincide auction by auction.
func TestExplicitEnginesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	inst := workload.Generate(rng, 40, 4, 5)
	queries := inst.Queries(rand.New(rand.NewSource(7)), 300)
	res := runWorlds(t, inst, queries, []Method{MethodLP, MethodH, MethodRH, MethodRHParallel})
	for a := 0; a < len(queries); a++ {
		lpO, hO, rhO, rpO := res[MethodLP][a], res[MethodH][a], res[MethodRH][a], res[MethodRHParallel][a]
		for j := range hO.AdvOf {
			if hO.AdvOf[j] != rhO.AdvOf[j] || hO.AdvOf[j] != lpO.AdvOf[j] || hO.AdvOf[j] != rpO.AdvOf[j] {
				t.Fatalf("auction %d slot %d: allocations diverge LP=%d H=%d RH=%d RHpar=%d",
					a, j, lpO.AdvOf[j], hO.AdvOf[j], rhO.AdvOf[j], rpO.AdvOf[j])
			}
		}
		if math.Abs(hO.Revenue-rhO.Revenue) > 1e-9 || math.Abs(hO.Revenue-lpO.Revenue) > 1e-9 {
			t.Fatalf("auction %d: revenue diverges LP=%g H=%g RH=%g", a, lpO.Revenue, hO.Revenue, rhO.Revenue)
		}
	}
}

// TestTALUEquivalence is the central Section IV correctness claim:
// the threshold-algorithm/logical-update engine must reproduce the
// explicit engine exactly — same allocations, same prices, same
// clicks, same revenue, and same bid trajectories — over long mixed
// traces, across several instance shapes.
func TestTALUEquivalence(t *testing.T) {
	shapes := []struct {
		n, k, kws, auctions int
		seed                int64
	}{
		{10, 2, 3, 400, 1},
		{50, 5, 10, 600, 2},
		{120, 15, 10, 400, 3},
		{30, 3, 1, 500, 4}, // single keyword: every auction hits the same lists
	}
	for _, s := range shapes {
		rng := rand.New(rand.NewSource(s.seed))
		inst := workload.Generate(rng, s.n, s.k, s.kws)
		queries := inst.Queries(rand.New(rand.NewSource(s.seed+100)), s.auctions)

		exW := NewMarketOpts(inst, MarketOpts{Method: MethodRH, ClickSeed: 999})
		taW := NewMarketOpts(inst, MarketOpts{Method: MethodRHTALU, ClickSeed: 999})
		for a, q := range queries {
			exO := exW.RunAuction(q)
			taO := taW.RunAuction(q)
			for j := range exO.AdvOf {
				if exO.AdvOf[j] != taO.AdvOf[j] {
					t.Fatalf("shape %+v auction %d slot %d: RH adv %d, RHTALU adv %d",
						s, a, j, exO.AdvOf[j], taO.AdvOf[j])
				}
				if math.Abs(exO.PricePerClick[j]-taO.PricePerClick[j]) > 1e-9 {
					t.Fatalf("shape %+v auction %d slot %d: price %g vs %g",
						s, a, j, exO.PricePerClick[j], taO.PricePerClick[j])
				}
				if exO.Clicked[j] != taO.Clicked[j] {
					t.Fatalf("shape %+v auction %d slot %d: click divergence", s, a, j)
				}
			}
			if math.Abs(exO.Revenue-taO.Revenue) > 1e-9 {
				t.Fatalf("shape %+v auction %d: revenue %g vs %g", s, a, exO.Revenue, taO.Revenue)
			}
			// Full bid-vector equality each auction.
			for i := 0; i < inst.N; i++ {
				for q2 := 0; q2 < inst.Keywords; q2++ {
					if eb, tb := exW.Bid(i, q2), taW.Bid(i, q2); eb != tb {
						t.Fatalf("shape %+v auction %d: bid[%d][%d] explicit %d, talu %d",
							s, a, i, q2, eb, tb)
					}
				}
			}
		}
	}
}

// TestBidsStayInBounds: bids never leave [0, value] under either
// engine (the Figure 5 guards).
func TestBidsStayInBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	inst := workload.Generate(rng, 60, 5, 8)
	queries := inst.Queries(rand.New(rand.NewSource(11)), 800)
	for _, m := range []Method{MethodRH, MethodRHTALU} {
		w := NewMarketOpts(inst, MarketOpts{Method: m, ClickSeed: 5})
		for _, q := range queries {
			w.RunAuction(q)
			for i := 0; i < inst.N; i++ {
				b := w.Bid(i, q)
				if b < 0 || b > inst.Value[i][q] {
					t.Fatalf("%v: bid[%d][%d]=%d outside [0,%d]", m, i, q, b, inst.Value[i][q])
				}
			}
		}
	}
}

// TestPricingProperties: GSP charges never exceed the winner's bid,
// are non-negative, and revenue sums the clicked slots' prices.
func TestPricingProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	inst := workload.Generate(rng, 80, 6, 10)
	queries := inst.Queries(rand.New(rand.NewSource(13)), 400)
	w := NewMarketOpts(inst, MarketOpts{Method: MethodRH, ClickSeed: 77})
	for _, q := range queries {
		o := w.RunAuction(q)
		var sum float64
		for j, i := range o.AdvOf {
			if i < 0 {
				if o.PricePerClick[j] != 0 || o.Clicked[j] {
					t.Fatalf("empty slot %d has price/click", j)
				}
				continue
			}
			if o.PricePerClick[j] < 0 {
				t.Fatalf("negative price %g", o.PricePerClick[j])
			}
			if bid := float64(w.Bid(i, q)); o.PricePerClick[j] > bid+1e-9 {
				t.Fatalf("price %g exceeds bid %g", o.PricePerClick[j], bid)
			}
			if o.Clicked[j] {
				sum += o.PricePerClick[j]
			}
		}
		if math.Abs(sum-o.Revenue) > 1e-9 {
			t.Fatalf("revenue %g != clicked price sum %g", o.Revenue, sum)
		}
	}
}

// TestAccountingInvariants: total spend equals total revenue charged,
// and per-keyword spend sums to the total per advertiser.
func TestAccountingInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	inst := workload.Generate(rng, 50, 4, 6)
	queries := inst.Queries(rand.New(rand.NewSource(17)), 500)
	w := NewMarketOpts(inst, MarketOpts{Method: MethodRHTALU, ClickSeed: 31})
	var revenue float64
	for _, q := range queries {
		revenue += w.RunAuction(q).Revenue
	}
	acct := w.Accounting()
	var spent float64
	for i := 0; i < inst.N; i++ {
		spent += acct.SpentTotal[i]
		var kwSum float64
		for q := 0; q < inst.Keywords; q++ {
			kwSum += acct.SpentKw[i][q]
		}
		if math.Abs(kwSum-acct.SpentTotal[i]) > 1e-6 {
			t.Fatalf("advertiser %d: keyword spend %g != total %g", i, kwSum, acct.SpentTotal[i])
		}
	}
	if math.Abs(spent-revenue) > 1e-6 {
		t.Fatalf("total spend %g != provider revenue %g", spent, revenue)
	}
	if w.Auctions() != len(queries) {
		t.Fatalf("auction count %d", w.Auctions())
	}
}

// TestBidsActuallyMove guards against a degenerate simulation where
// no bid ever changes (which would make the TALU equivalence test
// vacuous).
func TestBidsActuallyMove(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	inst := workload.Generate(rng, 30, 3, 4)
	w := NewMarketOpts(inst, MarketOpts{Method: MethodRH, ClickSeed: 7})
	start := make([][]int, inst.N)
	for i := range start {
		start[i] = make([]int, inst.Keywords)
		for q := range start[i] {
			start[i][q] = w.Bid(i, q)
		}
	}
	queries := inst.Queries(rand.New(rand.NewSource(19)), 300)
	for _, q := range queries {
		w.RunAuction(q)
	}
	changedUp, changedDown := 0, 0
	for i := range start {
		for q := range start[i] {
			d := w.Bid(i, q) - start[i][q]
			if d > 0 {
				changedUp++
			}
			if d < 0 {
				changedDown++
			}
		}
	}
	if changedUp == 0 || changedDown == 0 {
		t.Fatalf("degenerate dynamics: %d increments, %d decrements", changedUp, changedDown)
	}
}

func TestMethodStrings(t *testing.T) {
	for m, want := range map[Method]string{
		MethodLP: "LP", MethodH: "H", MethodRH: "RH",
		MethodRHTALU: "RHTALU", MethodRHParallel: "RH-parallel",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q", int(m), m.String())
		}
	}
}

// TestTALUEquivalenceZipfQueries re-runs the engine-equivalence check
// under a heavily skewed query stream: one keyword dominates, so its
// trigger queue and group lists absorb nearly all the churn while the
// tail keywords go quiet — a regime the uniform stream never enters.
func TestTALUEquivalenceZipfQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(161))
	inst := workload.Generate(rng, 80, 6, 10)
	queries := inst.QueriesZipf(rand.New(rand.NewSource(19)), 700, 1.3)
	exW := NewMarketOpts(inst, MarketOpts{Method: MethodRH, ClickSeed: 555})
	taW := NewMarketOpts(inst, MarketOpts{Method: MethodRHTALU, ClickSeed: 555})
	for a, q := range queries {
		exO := exW.RunAuction(q)
		taO := taW.RunAuction(q)
		if math.Abs(exO.Revenue-taO.Revenue) > 1e-9 {
			t.Fatalf("auction %d (kw %d): revenue %g vs %g", a, q, exO.Revenue, taO.Revenue)
		}
		for j := range exO.AdvOf {
			if exO.AdvOf[j] != taO.AdvOf[j] {
				t.Fatalf("auction %d slot %d: %d vs %d", a, j, exO.AdvOf[j], taO.AdvOf[j])
			}
		}
	}
	for i := 0; i < inst.N; i++ {
		for q := 0; q < inst.Keywords; q++ {
			if exW.Bid(i, q) != taW.Bid(i, q) {
				t.Fatalf("bid[%d][%d]: %d vs %d", i, q, exW.Bid(i, q), taW.Bid(i, q))
			}
		}
	}
}

// TestTALUTouchesFewPrograms quantifies Section IV: over a long run,
// the TALU engine must evaluate orders of magnitude fewer programs
// than the explicit engine, while producing identical auctions (the
// equivalence tests above).
func TestTALUTouchesFewPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	inst := workload.Generate(rng, 2000, 15, 10)
	queries := inst.Queries(rand.New(rand.NewSource(23)), 1000)
	ex := NewMarketOpts(inst, MarketOpts{Method: MethodRH, ClickSeed: 3})
	ta := NewMarketOpts(inst, MarketOpts{Method: MethodRHTALU, ClickSeed: 3})
	for _, q := range queries {
		ex.RunAuction(q)
		ta.RunAuction(q)
	}
	exEvals, taEvals := ex.ProgramEvaluations(), ta.ProgramEvaluations()
	if exEvals != 2000*1000 {
		t.Fatalf("explicit engine evaluations %d, want n·t", exEvals)
	}
	if taEvals*10 > exEvals {
		t.Fatalf("TALU evaluated %d programs vs explicit %d; expected ≥10x reduction",
			taEvals, exEvals)
	}
	t.Logf("program evaluations: explicit %d, TALU %d (%.1fx reduction)",
		exEvals, taEvals, float64(exEvals)/float64(taEvals))
}
