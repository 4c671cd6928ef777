package engine

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/budget"
	"repro/internal/logical"
	"repro/internal/matching"
	"repro/internal/racetest"
	"repro/internal/ta"
	"repro/internal/topk"
	"repro/internal/workload"
)

// gateSource wraps the merged bid source with a market's gate: random
// accesses for excluded advertisers return 0, sorted accesses pass the
// stored bids through. It is the reference form of the TALU engine's
// gated-bid cache.
type gateSource struct {
	inner ta.Source
	gate  *gate
}

func (g *gateSource) Next() (int, float64, bool) { return g.inner.Next() }

func (g *gateSource) Lookup(id int) float64 {
	v := g.inner.Lookup(id)
	if !g.gate.admits(id, v) {
		return 0
	}
	return v
}

// kernelCase is one instance the TALU slot kernel is checked on.
type kernelCase struct {
	name string
	inst *workload.Instance
	// budgets attaches a hard budget lane; cut is the reserve cutoff
	// (0 = off), drawn per auction from [cut/2, cut) when set.
	budgets bool
	cut     float64
	// nearWrap starts the bid-cache stamp just below its wrap-around.
	nearWrap bool
	// tiedTail marks cases whose lists end in scores tied with their
	// minimum (see checkKernel).
	tiedTail bool
}

// tieInstance draws click probabilities and bids from a handful of
// values, so equal scores, equal click probabilities and equal bids
// are common within and across slots.
func tieInstance(rng *rand.Rand, n, slots, keywords int) *workload.Instance {
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
		for q := range inst.Value[i] {
			inst.Value[i][q] = rng.Intn(5)
			inst.InitialBid[i][q] = rng.Intn(inst.Value[i][q] + 1)
		}
		inst.Target[i] = 1 + rng.Intn(2)
		inst.ClickProb[i] = make([]float64, slots)
		for j := range inst.ClickProb[i] {
			inst.ClickProb[i][j] = float64(1+rng.Intn(3)) / 10
		}
	}
	return inst
}

// onePositiveInstance is a tie instance where every advertiser but one
// has value and bid 0, so every other score stays 0 for good.
func onePositiveInstance(rng *rand.Rand, n, slots, keywords, positive int) *workload.Instance {
	inst := tieInstance(rng, n, slots, keywords)
	for i := 0; i < n; i++ {
		for q := 0; q < keywords; q++ {
			inst.Value[i][q], inst.InitialBid[i][q] = 0, 0
			if i == positive {
				inst.Value[i][q], inst.InitialBid[i][q] = 9, 4
			}
		}
	}
	return inst
}

// roundingTieInstance is one slot (so lists are two deep) where, at
// bid 3, click probabilities 0.35 and the next double below it give
// the same score: advertiser 0 outbids everyone, advertisers 2 and 3
// (click 0.35) come before advertiser 1 (click 0.35−ulp) in click order,
// and advertiser 1, tied with them and lower in id, takes rank 1. A
// walk that stopped on the first bidder not preceding the run's
// minimum (advertiser 3) would keep advertiser 2 instead. Every bid
// sits at its value and every target is far above any spend, so the
// bids never move.
func roundingTieInstance() *workload.Instance {
	hi, three := 0.35, 3.0
	below := math.Nextafter(hi, 0)
	if hi*three != below*three {
		panic("0.35·3 and (0.35−ulp)·3 no longer round alike")
	}
	click := []float64{0.5, below, hi, hi}
	bid := []int{10, 3, 3, 3}
	inst := &workload.Instance{N: 4, Slots: 1, Keywords: 1}
	for i := range click {
		inst.Value = append(inst.Value, []int{bid[i]})
		inst.InitialBid = append(inst.InitialBid, []int{bid[i]})
		inst.Target = append(inst.Target, 1000)
		inst.ClickProb = append(inst.ClickProb, []float64{click[i]})
	}
	return inst
}

// exhaustedTopInstance gives the top bid levels to advertisers whose
// budgets the first clicks exhaust: the first top advertisers bid and
// value 50 on every keyword with a budget of 1, and everyone else
// values at most 30 with no budget. Once the top block is exhausted, a
// slot run must pass over all of it to reach an admitted bidder.
func exhaustedTopInstance(rng *rand.Rand, n, slots, keywords, top int) *workload.Instance {
	inst := workload.Generate(rng, n, slots, keywords)
	inst.Budget = make([]float64, n)
	for i := 0; i < n; i++ {
		for q := 0; q < keywords; q++ {
			if i < top {
				inst.Value[i][q], inst.InitialBid[i][q] = 50, 50
			} else {
				inst.Value[i][q] = min(inst.Value[i][q], 30)
				inst.InitialBid[i][q] = min(inst.InitialBid[i][q], inst.Value[i][q])
			}
		}
		if i < top {
			inst.Budget[i] = 1
		}
	}
	return inst
}

// TestTALUKernelMatchesRunner: at every auction of a query stream, the
// TALU engine's level walk returns, per slot, exactly the top-(k+1)
// list of a full sort of all n advertisers by gated score, and the
// list ta.Runner.TopKInto computes over the slot's click list and a
// fresh merged bid source wrapped in the gate. The instances cover
// duplicate scores, all-zero bids with one positive bidder, n < k+1,
// k = 1, a budget lane with exhausted advertisers, a reserve cut, an
// exhausted block on the top levels, a tie produced by float rounding,
// and the bid-cache stamp wrapping around.
func TestTALUKernelMatchesRunner(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	budgeted := workload.Generate(rng, 300, 6, 4)
	workload.AttachBudgets(rng, budgeted, 15)
	cases := []kernelCase{
		{name: "generated", inst: workload.Generate(rng, 400, 8, 4)},
		{name: "ties", inst: tieInstance(rng, 200, 5, 3)},
		{name: "one-positive", inst: onePositiveInstance(rng, 60, 4, 2, 17), tiedTail: true},
		{name: "n<k+1", inst: workload.Generate(rng, 3, 5, 2)},
		{name: "k=1", inst: workload.Generate(rng, 100, 1, 3)},
		{name: "budget-reserve", inst: budgeted, budgets: true, cut: 12},
		{name: "ties-reserve", inst: tieInstance(rng, 150, 4, 2), cut: 5},
		{name: "stamp-wrap", inst: workload.Generate(rng, 120, 6, 3), nearWrap: true},
		{name: "rounding-tie", inst: roundingTieInstance()},
		{name: "exhausted-top", inst: exhaustedTopInstance(rng, 300, 6, 2, 40), budgets: true, cut: 8},
	}
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkKernel(t, c, int64(100+ci)) })
	}
}

// checkKernel serves c's query stream and compares every slot's list
// with two references. A full sort is the exact reference. The
// runner's list may differ only where tiedTail allows it: among
// entries scoring the same as the list's last one, the threshold
// algorithm keeps whichever its access order met first, so there the
// two lists agree on length and scores, and on ids only above that
// score.
func checkKernel(t *testing.T, c kernelCase, seed int64) {
	const auctions = 300
	inst := c.inst
	n, k := inst.N, inst.Slots
	rng := rand.New(rand.NewSource(seed))
	queries := inst.Queries(rng, auctions)

	acct := newAccounting(n, inst.Keywords)
	g := &gate{}
	var led *budget.Ledger
	if c.budgets {
		led = budget.NewLedger(n, 1, inst.Budget, budget.Config{Policy: budget.PolicyHard})
		g.lane = led.Lane(0)
	}
	e := newTALUEngine(inst, acct, g, newClickData(inst, MethodRHTALU))
	if c.nearWrap {
		e.auctionGen = math.MaxUint32 - 2
	}
	ws := matching.NewWorkspace()
	advOf := make([]int, k)

	// The reference: the runner over each slot's click list (sorted
	// here, independently of clickData) and the gated merged source.
	ref := ta.NewRunner(n)
	clickSrc := make([]*ta.SliceSource, k)
	for j := range clickSrc {
		items := make([]topk.Item, n)
		for i := range items {
			items[i] = topk.Item{ID: i, Score: inst.ClickProb[i][j]}
		}
		sort.Slice(items, func(a, b int) bool {
			if items[a].Score != items[b].Score {
				return items[a].Score > items[b].Score
			}
			return items[a].ID < items[b].ID
		})
		j := j
		clickSrc[j] = &ta.SliceSource{Items: items, Get: func(id int) float64 { return inst.ClickProb[id][j] }}
	}
	merged := &logical.MergedSource{}
	bidSrc := &gateSource{inner: merged, gate: g}
	product := func(v []float64) float64 { return v[0] * v[1] }
	all := make([]topk.Item, n)

	var winners []int
	zeroed, tailDiffs := 0, 0
	for a, q := range queries {
		now := float64(a + 1)
		if c.cut > 0 {
			g.cut = c.cut * (0.5 + rng.Float64()/2)
		}
		if g.lane != nil {
			g.lane.BeginAuction()
		}
		lists := e.prepare(q, now, ws, advOf)
		for j := 0; j < k; j++ {
			clickSrc[j].Reset()
			merged.Reset(e.groups[q])
			for i := range all {
				all[i] = topk.Item{ID: i, Score: inst.ClickProb[i][j] * bidSrc.Lookup(i)}
			}
			sort.Slice(all, func(a, b int) bool { return precedes(all[a], all[b]) })
			exact := all[:min(n, k+1)]
			if !slices.Equal(lists[j], exact) {
				t.Fatalf("auction %d slot %d: kernel %+v, full sort %+v", a, j, lists[j], exact)
			}
			want, _ := ref.TopKInto(k+1, []ta.Source{clickSrc[j], bidSrc}, product, nil)
			if len(want) != len(exact) {
				t.Fatalf("auction %d slot %d: runner kept %d, want %d", a, j, len(want), len(exact))
			}
			for r := range want {
				if want[r] == exact[r] {
					continue
				}
				if !c.tiedTail || want[r].Score != exact[r].Score || want[r].Score > exact[len(exact)-1].Score {
					t.Fatalf("auction %d slot %d rank %d: kernel %+v, runner %+v", a, j, r, exact[r], want[r])
				}
				tailDiffs++
			}
		}
		for i, b := range e.bids {
			if b.stamp == e.auctionGen && b.bid == 0 && e.bid(i, q) > 0 {
				zeroed++
			}
		}
		// Every winner clicks with its click probability and pays its
		// bid, so spend, ROI and group membership keep moving.
		winners = winners[:0]
		for j, i := range advOf {
			if i < 0 || rng.Float64() >= inst.ClickProb[i][j] {
				continue
			}
			price := float64(e.bid(i, q))
			acct.SpentTotal[i] += price
			acct.SpentKw[i][q] += price
			acct.GainedKw[i][q] += float64(inst.Value[i][q])
			if g.lane != nil {
				g.lane.Charge(i, price)
			}
			winners = append(winners, i)
		}
		e.afterAuction(now, winners)
	}
	if (c.budgets || c.cut > 0) && zeroed == 0 {
		t.Fatalf("the gate never excluded a positive bidder the kernel met")
	}
	if c.budgets {
		if _, exhausted, _ := led.Totals(); exhausted == 0 {
			t.Fatalf("no advertiser exhausted its budget")
		}
	}
	if c.tiedTail && tailDiffs == 0 {
		t.Fatalf("the runner never kept a different tied tail: the case checks nothing the others do not")
	}
	if c.nearWrap && e.auctionGen > auctions {
		t.Fatalf("stamp did not wrap: auction %d", e.auctionGen)
	}
}

// TestTALULevelWalkCounts pins the level walk's work on the Section V
// workload (15 slots, 10 keywords, instance seed 42, query seed 9,
// click seed 7) over 300 steady-state auctions after 2 000 warm-up
// auctions: the bucket entries the slot runs read and the bid levels
// they read them from, summed over every slot run. The counts are
// deterministic, so any change to the walk or to the outcomes that
// feed it shows here. Items read per slot run must not grow from
// n = 1 000 to n = 5 000: the top bid level fills the run sooner as n
// grows.
func TestTALULevelWalkCounts(t *testing.T) {
	const warm, steady = 2000, 300
	perRun := map[int]float64{}
	for _, tc := range []struct{ n, touched, levels int }{
		{1000, 116929, 14669},
		{5000, 83178, 6162},
	} {
		inst := workload.Generate(rand.New(rand.NewSource(42)), tc.n, 15, 10)
		queries := inst.Queries(rand.New(rand.NewSource(9)), warm+steady)
		m := NewMarketOpts(inst, MarketOpts{Method: MethodRHTALU, ClickSeed: 7})
		for _, q := range queries[:warm] {
			m.Run(q)
		}
		touched, levels := 0, 0
		for _, q := range queries[warm:] {
			m.Run(q)
			for _, w := range m.talu.walks {
				touched += w.Touched
				levels += w.Levels
			}
		}
		if touched != tc.touched || levels != tc.levels {
			t.Errorf("n=%d: walk read %d items over %d levels, want %d over %d", tc.n, touched, levels, tc.touched, tc.levels)
		}
		perRun[tc.n] = float64(touched) / float64(steady*inst.Slots)
	}
	if perRun[5000] > perRun[1000] {
		t.Errorf("items read per slot run grew with n: %.2f at n=1000, %.2f at n=5000", perRun[1000], perRun[5000])
	}
}

// TestTALUExhaustedTopSteadyStateAllocs: a warm TALU auction allocates
// nothing while its slot runs pass over an exhausted block on the top
// bid levels, with a hard budget lane and a reserve price on.
func TestTALUExhaustedTopSteadyStateAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	inst := exhaustedTopInstance(rand.New(rand.NewSource(62)), 1000, 15, 10, 100)
	led := budget.NewLedger(inst.N, 1, inst.Budget, budget.Config{Policy: budget.PolicyHard})
	m := NewMarketOpts(inst, MarketOpts{Method: MethodRHTALU, ClickSeed: 7, Lane: led.Lane(0), Reserve: 8})
	queries := inst.Queries(rand.New(rand.NewSource(63)), 4096)
	if allocs := warmAllocs(m, queries, 2048, 500); allocs != 0 {
		t.Fatalf("steady-state auction over an exhausted top allocates %.2f objects/op, want 0", allocs)
	}
	if _, exhausted, _ := led.Totals(); exhausted == 0 {
		t.Fatalf("no advertiser exhausted its budget")
	}
}
