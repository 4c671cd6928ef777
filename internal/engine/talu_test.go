package engine

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/budget"
	"repro/internal/logical"
	"repro/internal/matching"
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
	// nearWrap starts both stamp counters just below their wrap-around.
	nearWrap bool
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

// TestTALUKernelMatchesRunner: at every auction of a query stream, the
// TALU engine's shared-walk slot kernel returns the k candidate lists
// — and per slot the sorted, random and seen counts — that
// ta.Runner.TopKInto computes over the slot's click list and a fresh
// merged bid source wrapped in the gate. The instances cover
// duplicate scores, all-zero bids with one positive bidder, n < k+1,
// k = 1, a budget lane with exhausted advertisers, a reserve cut, and
// both stamp counters wrapping around.
func TestTALUKernelMatchesRunner(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	budgeted := workload.Generate(rng, 300, 6, 4)
	workload.AttachBudgets(rng, budgeted, 15)
	cases := []kernelCase{
		{name: "generated", inst: workload.Generate(rng, 400, 8, 4)},
		{name: "ties", inst: tieInstance(rng, 200, 5, 3)},
		{name: "one-positive", inst: onePositiveInstance(rng, 60, 4, 2, 17)},
		{name: "n<k+1", inst: workload.Generate(rng, 3, 5, 2)},
		{name: "k=1", inst: workload.Generate(rng, 100, 1, 3)},
		{name: "budget-reserve", inst: budgeted, budgets: true, cut: 12},
		{name: "ties-reserve", inst: tieInstance(rng, 150, 4, 2), cut: 3},
		{name: "stamp-wrap", inst: workload.Generate(rng, 120, 6, 3), nearWrap: true},
	}
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkKernel(t, c, int64(100+ci)) })
	}
}

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
		e.runGen = math.MaxUint32 - uint32(2*k+1)
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

	var winners []int
	zeroed := 0
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
			want, wantStats := ref.TopKInto(k+1, []ta.Source{clickSrc[j], bidSrc}, product, nil)
			if e.stats[j] != wantStats {
				t.Fatalf("auction %d slot %d: kernel stats %+v, runner %+v", a, j, e.stats[j], wantStats)
			}
			if len(lists[j]) != len(want) {
				t.Fatalf("auction %d slot %d: kernel kept %d, runner %d", a, j, len(lists[j]), len(want))
			}
			for r := range want {
				if lists[j][r] != want[r] {
					t.Fatalf("auction %d slot %d rank %d: kernel %+v, runner %+v", a, j, r, lists[j][r], want[r])
				}
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
	if c.nearWrap && (e.auctionGen > auctions || e.runGen > uint32(auctions*k)) {
		t.Fatalf("stamps did not wrap: auction %d, run %d", e.auctionGen, e.runGen)
	}
}
