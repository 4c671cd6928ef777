package engine

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/budget"
	"repro/internal/matching"
	"repro/internal/racetest"
	"repro/internal/workload"
)

// rhCase is one instance MethodRH's seeded selection is checked on.
type rhCase struct {
	name string
	inst *workload.Instance
	// budgets attaches a hard budget lane; reserve is the market's
	// reserve price (0 = off).
	budgets bool
	reserve float64
	// alternate serves the keywords in strict rotation instead of a
	// uniform query stream.
	alternate bool
	// stale, when set, is a larger instance whose market's seeds are
	// copied into the checked market before its first auction: seeds
	// from a population larger than n, whose ids ≥ n must void the
	// bound.
	stale *workload.Instance
}

// TestRHSeededSelectionMatchesDense: at every auction of a query
// stream, an RH market's per-slot lists (recorded as the keyword's
// seeds) equal a full SelectDense walk over the same gated bids, and
// the bidders it walked are exactly those the keyword's own previous
// lists admit (rhSurvivorsRef). The instances cover all-zero bids,
// one positive bidder, duplicate click probabilities and bids (ties
// at the floor), n < k+1, seed ids ≥ n, seeds gated out by an
// exhausted hard lane and a reserve, and one market rotating through
// its keywords.
func TestRHSeededSelectionMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	cases := []rhCase{
		{name: "generated", inst: workload.Generate(rng, 400, 8, 4)},
		{name: "ties", inst: tieInstance(rng, 200, 5, 3)},
		{name: "all-zero", inst: onePositiveInstance(rng, 60, 4, 2, -1)},
		{name: "one-positive", inst: onePositiveInstance(rng, 60, 4, 2, 17)},
		{name: "n<k+1", inst: workload.Generate(rng, 3, 5, 2)},
		{name: "k=1", inst: workload.Generate(rng, 100, 1, 3)},
		{name: "stale-seeds", inst: workload.Generate(rng, 40, 5, 2), stale: workload.Generate(rng, 90, 5, 2)},
		{name: "exhausted-reserve", inst: exhaustedTopInstance(rng, 300, 6, 2, 40), budgets: true, reserve: 8},
		{name: "ties-reserve", inst: tieInstance(rng, 150, 4, 2), reserve: 4},
		{name: "alternating", inst: tieInstance(rng, 150, 4, 3), alternate: true},
	}
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkRH(t, c, int64(200+ci)) })
	}
}

func checkRH(t *testing.T, c rhCase, seed int64) {
	const auctions = 300
	inst := c.inst
	n, k := inst.N, inst.Slots
	rng := rand.New(rand.NewSource(seed))
	queries := inst.Queries(rng, auctions)
	if c.alternate {
		for a := range queries {
			queries[a] = a % inst.Keywords
		}
	}
	o := MarketOpts{Method: MethodRH, ClickSeed: seed, Reserve: c.reserve}
	var led *budget.Ledger
	if c.budgets {
		led = budget.NewLedger(n, 1, inst.Budget, budget.Config{Policy: budget.PolicyHard})
		o.Lane = led.Lane(0)
	}
	m := NewMarketOpts(inst, o)
	// last is the reference's own record of each keyword's last lists.
	last := make([][]int32, inst.Keywords)
	if c.stale != nil {
		old := NewMarketOpts(c.stale, MarketOpts{Method: MethodRH, ClickSeed: seed})
		for _, q := range c.stale.Queries(rng, 40) {
			old.Run(q)
		}
		for q := range m.seeds {
			m.seeds[q] = slices.Clone(old.seeds[q])
			last[q] = slices.Clone(old.seeds[q])
		}
		if !slices.ContainsFunc(m.seeds[0], func(i int32) bool { return int(i) >= n }) {
			t.Fatalf("no stale seed id ≥ n: the case checks nothing")
		}
	}
	ref := matching.NewWorkspace()
	gated, seeded := 0, 0
	for a, q := range queries {
		m.Run(q)
		want := ref.SelectDense(n, k, k+1, m.click.cols, m.bidf)
		var ids []int32
		for _, l := range want {
			if len(l) < k+1 {
				ids = nil
				break
			}
			for _, it := range l {
				ids = append(ids, int32(it.ID))
			}
		}
		if !slices.Equal(m.seeds[q], ids) {
			t.Fatalf("auction %d (keyword %d): lists %v, full walk %v", a, q, m.seeds[q], ids)
		}
		if want := rhSurvivorsRef(inst, last[q], m.bidf); m.survivors != want {
			t.Fatalf("auction %d (keyword %d): walked %d bidders, want %d", a, q, m.survivors, want)
		}
		if m.survivors < n {
			seeded++
		}
		for _, i := range last[q] {
			if int(i) < n && m.bidf[i] == 0 && m.Bid(int(i), q) > 0 {
				gated++
				break
			}
		}
		last[q] = ids
	}
	if c.budgets || c.reserve > 0 {
		if gated == 0 {
			t.Fatalf("the gate never excluded a seed")
		}
	}
	if c.budgets {
		if _, exhausted, _ := led.Totals(); exhausted == 0 {
			t.Fatalf("no advertiser exhausted its budget")
		}
	}
	t.Logf("%d of %d auctions seeded", seeded, auctions)
}

// rhSurvivorsRef counts the bidders a seeded selection must walk,
// straight from the definition: with seeds of k+1 ids < n per slot
// whose least current score lo_j is positive, every bidder whose bid
// reaches min_j v_j, v_j the least integer with cmax_j·v_j ≥ lo_j;
// otherwise all n.
func rhSurvivorsRef(inst *workload.Instance, seeds []int32, bid []float64) int {
	n, k := inst.N, inst.Slots
	depth := k + 1
	if len(seeds) != k*depth {
		return n
	}
	vmin := math.Inf(1)
	for j := 0; j < k; j++ {
		lo := math.Inf(1)
		for _, i := range seeds[j*depth : (j+1)*depth] {
			if int(i) >= n {
				return n
			}
			lo = min(lo, inst.ClickProb[i][j]*bid[i])
		}
		if lo <= 0 {
			return n
		}
		cmax := 0.0
		for i := 0; i < n; i++ {
			cmax = max(cmax, inst.ClickProb[i][j])
		}
		v := 0.0
		for cmax*v < lo {
			v++
		}
		vmin = min(vmin, v)
	}
	count := 0
	for _, b := range bid {
		if b >= vmin {
			count++
		}
	}
	return count
}

// TestRHSurvivorCounts pins the bidders the seeded RH selection walks
// on the Section V workload (15 slots, 10 keywords, instance seed 42,
// query seed 9, click seed 7; one market serving every keyword) over
// 300 steady-state auctions after 2 000 warm-up auctions. The counts
// are deterministic, so any change to the floors, the survivor pass or
// the outcomes that feed them shows here: 90.7 bidders per auction at
// n = 1 000 (9.1%), 212.7 at n = 5 000 (4.3%). The survivors' share of
// n must not grow from n = 1 000 to n = 5 000.
func TestRHSurvivorCounts(t *testing.T) {
	const warm, steady = 2000, 300
	share := map[int]float64{}
	for _, tc := range []struct{ n, survivors int }{
		{1000, 27208},
		{5000, 63812},
	} {
		inst := workload.Generate(rand.New(rand.NewSource(42)), tc.n, 15, 10)
		queries := inst.Queries(rand.New(rand.NewSource(9)), warm+steady)
		m := NewMarketOpts(inst, MarketOpts{Method: MethodRH, ClickSeed: 7})
		for _, q := range queries[:warm] {
			m.Run(q)
		}
		survivors := 0
		for _, q := range queries[warm:] {
			m.Run(q)
			survivors += m.survivors
		}
		if survivors != tc.survivors {
			t.Errorf("n=%d: selection walked %d bidders, want %d", tc.n, survivors, tc.survivors)
		}
		share[tc.n] = float64(survivors) / float64(steady*tc.n)
	}
	if share[5000] > share[1000] {
		t.Errorf("survivors' share of n grew with n: %.4f at n=1000, %.4f at n=5000", share[1000], share[5000])
	}
}

// TestRHGatedSeedsSteadyStateAllocs: a warm RH auction allocates
// nothing with a hard budget lane and a reserve price on, while
// budgets run out and bids cross the reserve, so some auctions find a
// seed gated out and take the full walk.
func TestRHGatedSeedsSteadyStateAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	rng := rand.New(rand.NewSource(64))
	inst := workload.Generate(rng, 1000, 15, 10)
	workload.AttachBudgets(rng, inst, 400)
	led := budget.NewLedger(inst.N, 1, inst.Budget, budget.Config{Policy: budget.PolicyHard})
	m := NewMarketOpts(inst, MarketOpts{Method: MethodRH, ClickSeed: 7, Lane: led.Lane(0), Reserve: 8})
	queries := inst.Queries(rand.New(rand.NewSource(65)), 4096)
	for _, q := range queries[:2048] {
		m.Run(q)
	}
	next, full, runs := 2048, 0, 500
	allocs := testing.AllocsPerRun(runs, func() {
		m.Run(queries[next%len(queries)])
		next++
		if m.survivors == inst.N {
			full++
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state RH auction with gated seeds allocates %.2f objects/op, want 0", allocs)
	}
	t.Logf("%d of %d auctions took the full walk", full, runs+1)
	if full == 0 || full > runs/2 {
		t.Fatalf("%d of %d auctions took the full walk: want some, and mostly seeded ones", full, runs+1)
	}
}
