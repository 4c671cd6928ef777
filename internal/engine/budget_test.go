package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/budget"
	"repro/internal/racetest"
	"repro/internal/workload"
)

// budgetTestInstance builds a small hand-written population for the
// adversarial budget tests: advertiser 0 dominates every keyword
// (value 50, high click probabilities, a target rate it never
// reaches, so its bids only climb) while the others provide positive
// runner-up prices. Deterministic by construction.
func budgetTestInstance(keywords int) *workload.Instance {
	const n, k = 3, 2
	inst := &workload.Instance{
		N:          n,
		Slots:      k,
		Keywords:   keywords,
		Value:      make([][]int, n),
		Target:     make([]int, n),
		InitialBid: make([][]int, n),
		ClickProb:  make([][]float64, n),
	}
	for i := 0; i < n; i++ {
		inst.Value[i] = make([]int, keywords)
		inst.InitialBid[i] = make([]int, keywords)
		val := 10
		if i == 0 {
			val = 50
		}
		for q := 0; q < keywords; q++ {
			inst.Value[i][q] = val
			inst.InitialBid[i][q] = val / 2
		}
		inst.Target[i] = val // spend rate per auction never reaches this: always underspending
		inst.ClickProb[i] = []float64{0.9, 0.8}
	}
	return inst
}

// driveRoundRobin serves T auctions round-robin across the keywords
// on a single goroutine — the deterministic reference drive for
// budget-enabled markets.
func driveRoundRobin(e *Engine, T int) {
	queries := make([]int, T)
	for a := range queries {
		queries[a] = a % e.inst.Keywords
	}
	e.Serve(queries)
}

// TestBudgetUnlimitedByteIdentical: enabling the budget subsystem
// with every advertiser unlimited changes nothing — outcomes are
// byte-identical to a budgets-off engine across the RH, TALU, and
// heavyweight serving paths. This is the budgets-disabled equivalence
// contract from the other side: the gating plumbing itself is
// outcome-neutral until a cap actually binds.
func TestBudgetUnlimitedByteIdentical(t *testing.T) {
	for _, method := range []Method{MethodRH, MethodRHTALU, MethodHeavy} {
		var inst *workload.Instance
		if method == MethodHeavy {
			inst = workload.GenerateHeavy(rand.New(rand.NewSource(91)), 40, 4, 5, 0.25, 0.3)
		} else {
			inst = workload.Generate(rand.New(rand.NewSource(91)), 60, 6, 5)
		}
		queries := inst.Queries(rand.New(rand.NewSource(92)), 400)

		off := New(inst, Config{Shards: 2, Method: method, ClickSeed: 7})
		on := New(inst, Config{Shards: 2, Method: method, ClickSeed: 7,
			Budget: budget.Config{Policy: budget.PolicyHard, RefreshEvery: 3}})
		wantOuts, _ := off.ServeOutcomes(queries)
		gotOuts, _ := on.ServeOutcomes(queries)
		for a := range wantOuts {
			if !gotOuts[a].Equal(wantOuts[a]) {
				t.Fatalf("method=%v auction %d: unlimited-budget outcome %+v != budgets-off %+v",
					method, a, gotOuts[a], wantOuts[a])
			}
		}
		if led := on.Ledger(); led == nil {
			t.Fatalf("method=%v: budget-enabled engine has no ledger", method)
		} else {
			// The ledger still counted spend even though it never gated:
			// per advertiser, the lane-order sum equals the per-market
			// accounting summed the same way, bitwise.
			for i := 0; i < inst.N; i++ {
				var want float64
				for q := 0; q < inst.Keywords; q++ {
					want += on.KeywordMarket(q).Accounting().SpentTotal[i]
				}
				if got := led.ExactSpent(i); got != want {
					t.Fatalf("method=%v advertiser %d: ledger %v != accounting %v", method, i, got, want)
				}
			}
		}
	}
}

// TestBudgetRHMatchesTALU: under budget enforcement the explicit and
// TALU engines remain exactly equivalent — the explicit path gates by
// zeroing effective bids, the TALU path gates lazily inside its
// bid-level walks, and both must produce identical outcomes (and
// hence identical ledgers) over the same trace. Hard and paced.
func TestBudgetRHMatchesTALU(t *testing.T) {
	for _, pol := range []budget.Policy{budget.PolicyHard, budget.PolicyPaced} {
		inst := workload.Generate(rand.New(rand.NewSource(93)), 50, 5, 6)
		workload.AttachBudgets(rand.New(rand.NewSource(94)), inst, 40)
		queries := inst.Queries(rand.New(rand.NewSource(95)), 1200)
		cfg := budget.Config{Policy: pol, RefreshEvery: 5, Horizon: 300, Seed: 11}

		rh := New(inst, Config{Shards: 1, Method: MethodRH, ClickSeed: 7, Budget: cfg})
		talu := New(inst, Config{Shards: 1, Method: MethodRHTALU, ClickSeed: 7, Budget: cfg})
		rhOuts, _ := rh.ServeOutcomes(queries)
		taluOuts, _ := talu.ServeOutcomes(queries)
		gated := false
		for a := range rhOuts {
			if !taluOuts[a].Equal(rhOuts[a]) {
				t.Fatalf("policy=%v auction %d: TALU %+v != RH %+v", pol, a, taluOuts[a], rhOuts[a])
			}
		}
		for i := 0; i < inst.N; i++ {
			if rh.Ledger().Exhausted(i) {
				gated = true
			}
			if rh.Ledger().ExactSpent(i) != talu.Ledger().ExactSpent(i) {
				t.Fatalf("policy=%v advertiser %d: RH spend %v != TALU spend %v",
					pol, i, rh.Ledger().ExactSpent(i), talu.Ledger().ExactSpent(i))
			}
		}
		if pol == budget.PolicyHard && !gated {
			t.Fatal("trace never exhausted a budget — the equivalence was not exercised")
		}
	}
}

// TestHardOverspendBound drives the documented eventual-consistency
// bound on an adversarial trace: advertiser 0 bids at the cap on
// every keyword, every keyword market admits it while the local spend
// estimate is below the budget, and the final exact spend must stay
// within budget + K·R·P (K lanes, refresh every R lane auctions,
// per-auction charge at most P = the advertiser's maximum value). A
// tight-refresh run must land within the correspondingly tight
// bound, and the loose-refresh run must actually overspend — the test
// bites on both sides.
func TestHardOverspendBound(t *testing.T) {
	const (
		keywords = 6
		B        = 30.0
		P        = 50.0 // max value = max bid = max per-click, one slot per auction
		T        = 3000
	)
	run := func(refresh int) float64 {
		inst := budgetTestInstance(keywords)
		inst.Budget = []float64{B, 0, 0}
		e := New(inst, Config{Shards: 1, ClickSeed: 3, Method: MethodRH,
			Budget: budget.Config{Policy: budget.PolicyHard, RefreshEvery: refresh}})
		driveRoundRobin(e, T)
		return e.Ledger().ExactSpent(0)
	}

	tight := run(1)
	loose := run(400)
	// R=1: a lane publishes at the top of every auction, so the
	// estimate can miss at most one auction's charge per lane plus the
	// admitting auction itself.
	if bound := B + (keywords+1)*P; tight > bound {
		t.Fatalf("refresh=1 spend %v exceeded staleness bound %v", tight, bound)
	}
	if bound := B + keywords*400*P; loose > bound {
		t.Fatalf("refresh=400 spend %v exceeded staleness bound %v", loose, bound)
	}
	if loose <= B {
		t.Fatalf("adversarial loose-refresh run never overspent (spend %v, budget %v) — the bound test is vacuous", loose, B)
	}
	if tight >= loose {
		t.Logf("note: tight-refresh spend %v >= loose %v (possible, but unexpected)", tight, loose)
	}
	t.Logf("budget=%v spend: refresh=1 %.2f, refresh=400 %.2f", B, tight, loose)
}

// TestBudgetHardStopsSpending: in a single-keyword market the
// estimate is exact, so a hard-policy advertiser's spend never
// exceeds its cap by more than one auction's charge.
func TestBudgetHardStopsSpending(t *testing.T) {
	inst := budgetTestInstance(1)
	inst.Budget = []float64{40, 0, 0}
	e := New(inst, Config{Shards: 1, ClickSeed: 5, Method: MethodRH,
		Budget: budget.Config{Policy: budget.PolicyHard, RefreshEvery: 1}})
	driveRoundRobin(e, 500)
	spent := e.Ledger().ExactSpent(0)
	if spent <= 0 {
		t.Fatal("dominant advertiser never spent")
	}
	if spent > 40+50 {
		t.Fatalf("single-lane spend %v exceeded cap+one-auction bound", spent)
	}
	if !e.Ledger().Exhausted(0) {
		t.Fatalf("advertiser 0 spent %v of 40 but is not marked exhausted", spent)
	}
	// Everyone else keeps serving: the market still fills slots.
	if e.KeywordMarket(0).Accounting().SpentTotal[1]+e.KeywordMarket(0).Accounting().SpentTotal[2] == 0 {
		t.Fatal("competitors never spent after the leader was gated")
	}
}

// TestBudgetPacedSmoothsSpend: over the same trace, a paced
// advertiser reaches its cap later than a hard-policy one (greedy
// spend-until-cap), and still never exceeds it in the single-lane
// exact setting.
func TestBudgetPacedSmoothsSpend(t *testing.T) {
	const B = 60.0
	firstExhausted := func(pol budget.Policy) (int, float64) {
		inst := budgetTestInstance(1)
		inst.Budget = []float64{B, 0, 0}
		e := New(inst, Config{Shards: 1, ClickSeed: 5, Method: MethodRH,
			Budget: budget.Config{Policy: pol, RefreshEvery: 1, Horizon: 2000, Seed: 21}})
		for a := 0; a < 2500; a++ {
			e.Serve([]int{0})
			if e.Ledger().Exhausted(0) {
				return a, e.Ledger().ExactSpent(0)
			}
		}
		return 2500, e.Ledger().ExactSpent(0)
	}
	hardAt, hardSpend := firstExhausted(budget.PolicyHard)
	pacedAt, pacedSpend := firstExhausted(budget.PolicyPaced)
	if pacedAt <= hardAt {
		t.Fatalf("paced exhausted at auction %d, not later than hard at %d", pacedAt, hardAt)
	}
	if hardSpend > B+50 || pacedSpend > B+50 {
		t.Fatalf("cap breached: hard %v, paced %v", hardSpend, pacedSpend)
	}
	t.Logf("exhaustion: hard at auction %d (%.1f), paced at %d (%.1f)", hardAt, hardSpend, pacedAt, pacedSpend)
}

// TestBudgetSteadyStateAllocs: the budget-enabled hot path — gate
// consults, charges, and periodic publishes — adds zero allocations
// per auction on both the explicit RH and the TALU serving paths,
// under both policies, at n=300 and the Section V n=1000.
func TestBudgetSteadyStateAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	for _, n := range []int{300, 1000} {
		for _, method := range []Method{MethodRH, MethodRHTALU} {
			for _, pol := range []budget.Policy{budget.PolicyHard, budget.PolicyPaced} {
				t.Run(fmt.Sprintf("n=%d/%v/%v", n, method, pol), func(t *testing.T) {
					inst := workload.Generate(rand.New(rand.NewSource(96)), n, workload.DefaultSlots, workload.DefaultKeywords)
					workload.AttachBudgets(rand.New(rand.NewSource(97)), inst, 150)
					m := NewMarketOpts(inst, MarketOpts{Method: method, ClickSeed: 7,
						Lane: budget.NewLedger(inst.N, 1, inst.Budget, budget.Config{Policy: pol, RefreshEvery: 16, Horizon: 1000, Seed: 5}).Lane(0)})
					queries := inst.Queries(rand.New(rand.NewSource(98)), 2000)
					if allocs := warmAllocs(m, queries, len(queries), 300); allocs != 0 {
						t.Fatalf("budget-enabled steady state allocates %.2f objects/op, want 0", allocs)
					}
				})
			}
		}
	}
}
