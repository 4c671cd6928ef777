package engine

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/formula"
	"repro/internal/matching"
	"repro/internal/probmodel"
	"repro/internal/racetest"
	"repro/internal/workload"
)

// heavyReference is the sequential Section III-F reference a
// MethodHeavy market must match byte for byte: the same explicit
// bid-update engine, but a *fresh* core.HeavyAuction — fresh
// advertisers, fresh Bids rows, fresh model, fresh shadow factors —
// built and solved with the cold sequential HeavyAuction.Determine on
// every auction, followed by the same pattern-conditional GSP pricing
// and user simulation. Any state the engine's HeavyDeterminer or
// persistent auction carries across auctions that is not
// behavior-neutral shows up as a diff here.
type heavyReference struct {
	inst *workload.Instance
	ex   *explicitEngine
	acct *Accounting
	rng  *rand.Rand
	t    int
}

func newHeavyReference(inst *workload.Instance, clickSeed int64) *heavyReference {
	return &heavyReference{
		inst: inst,
		ex:   newExplicitEngine(inst),
		acct: newAccounting(inst.N, inst.Keywords),
		rng:  rand.New(rand.NewSource(clickSeed)),
	}
}

func (r *heavyReference) run(q int) *Outcome {
	r.t++
	t := float64(r.t)
	inst := r.inst
	n, k := inst.N, inst.Slots
	r.ex.step(q, t, r.acct)

	// A cold auction from scratch every time.
	purchase := make([][]float64, n)
	advs := make([]core.Advertiser, n)
	isHeavy := make([]bool, n)
	copy(isHeavy, inst.Heavy)
	for i := 0; i < n; i++ {
		purchase[i] = make([]float64, k)
		advs[i] = core.Advertiser{
			ID:    "adv" + strconv.Itoa(i),
			Bids:  formula.Bids{{F: formula.Click{}, Value: float64(r.ex.bid[i][q])}},
			Heavy: isHeavy[i],
		}
	}
	var factor [][]float64
	if inst.Shadow != 0 {
		factor = probmodel.ShadowFactors(k, inst.Shadow)
	}
	model := &probmodel.HeavyModel{
		Base:    &probmodel.Model{Click: inst.ClickProb, Purchase: purchase},
		IsHeavy: isHeavy,
		Factor:  factor,
	}
	h := &core.HeavyAuction{Slots: k, Advertisers: advs, Model: model}
	res, err := h.Determine(false)
	if err != nil {
		panic(err)
	}
	var pattern uint64
	for j, i := range res.AdvOf {
		if i >= 0 && isHeavy[i] {
			pattern |= 1 << uint(j)
		}
	}

	out := &Outcome{
		Query:         q,
		AdvOf:         append([]int(nil), res.AdvOf...),
		PricePerClick: make([]float64, k),
		Clicked:       make([]bool, k),
	}
	cp := func(i, j int) float64 { return model.ClickProb(i, j, pattern) }
	score := func(i, j int) float64 { return cp(i, j) * float64(r.ex.bid[i][q]) }
	lists := matching.NewWorkspace().SelectCandidates(n, k, k+1, score)
	assigned := make(map[int]bool)
	for _, i := range res.AdvOf {
		if i >= 0 {
			assigned[i] = true
		}
	}
	for j, i := range res.AdvOf {
		if i < 0 {
			continue
		}
		runner := 0.0
		for _, it := range lists[j] {
			if !assigned[it.ID] {
				runner = it.Score
				break
			}
		}
		price := 0.0
		if c := cp(i, j); c > 0 {
			price = runner / c
		}
		if bid := float64(r.ex.bid[i][q]); price > bid {
			price = bid
		}
		out.PricePerClick[j] = price
	}
	for j := 0; j < k; j++ {
		u := r.rng.Float64()
		i := res.AdvOf[j]
		if i < 0 || u >= cp(i, j) {
			continue
		}
		out.Clicked[j] = true
		price := out.PricePerClick[j]
		out.Revenue += price
		r.acct.SpentTotal[i] += price
		r.acct.SpentKw[i][q] += price
		r.acct.GainedKw[i][q] += float64(inst.Value[i][q])
	}
	return out
}

// TestHeavyMarketMatchesSequentialHeavyAuction is the MethodHeavy
// acceptance contract: the serving market — persistent auction,
// value-mutated bids, cached HeavyDeterminer enumeration state — must
// reproduce the cold per-auction core.HeavyAuction pipeline exactly,
// outcome for outcome and bid for bid.
func TestHeavyMarketMatchesSequentialHeavyAuction(t *testing.T) {
	inst := workload.GenerateHeavy(rand.New(rand.NewSource(151)), 60, 4, 5, 0.25, 0.35)
	queries := inst.Queries(rand.New(rand.NewSource(152)), 500)
	m := NewMarketOpts(inst, MarketOpts{Method: MethodHeavy, ClickSeed: 19})
	ref := newHeavyReference(inst, 19)
	for a, q := range queries {
		got := m.Run(q)
		want := ref.run(q)
		if !got.Equal(want) {
			t.Fatalf("auction %d (kw %d): engine %+v != sequential heavy %+v", a, q, got, want)
		}
	}
	for q := 0; q < inst.Keywords; q++ {
		for i := 0; i < inst.N; i++ {
			if got, want := m.Bid(i, q), ref.ex.bid[i][q]; got != want {
				t.Fatalf("bid[%d][%d]: engine %d, sequential %d", i, q, got, want)
			}
		}
	}
}

// TestEngineHeavyAndVCGMatchSequentialMarkets extends the engine's
// concurrency contract to the new method/pricing axes: for MethodHeavy
// and for VCG pricing (flat and heavyweight), Engine.Serve over a
// shuffled stream must reproduce each keyword's sequential market
// exactly. Run under -race this also proves the new paths share no
// state across shards.
func TestEngineHeavyAndVCGMatchSequentialMarkets(t *testing.T) {
	flat := workload.Generate(rand.New(rand.NewSource(153)), 50, 4, 5)
	heavy := workload.GenerateHeavy(rand.New(rand.NewSource(154)), 40, 4, 5, 0.3, 0.4)
	cases := []struct {
		name    string
		inst    *workload.Instance
		method  Method
		pricing Pricing
	}{
		{"heavy-gsp", heavy, MethodHeavy, PricingGSP},
		{"heavy-vcg", heavy, MethodHeavy, PricingVCG},
		{"rh-vcg", flat, MethodRH, PricingVCG},
		{"talu-vcg", flat, MethodRHTALU, PricingVCG},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			queries := tc.inst.Queries(rand.New(rand.NewSource(155)), 400)
			const clickSeed = 23
			for _, shards := range []int{1, 3} {
				shuffled := append([]int(nil), queries...)
				rand.New(rand.NewSource(int64(10+shards))).Shuffle(len(shuffled), func(a, b int) {
					shuffled[a], shuffled[b] = shuffled[b], shuffled[a]
				})
				e := New(tc.inst, Config{
					Shards: shards, QueueDepth: 8,
					Method: tc.method, Pricing: tc.pricing, ClickSeed: clickSeed,
				})
				outs, st := e.ServeOutcomes(shuffled)
				if st.Auctions != len(shuffled) {
					t.Fatalf("shards=%d: served %d of %d", shards, st.Auctions, len(shuffled))
				}
				markets := make([]*Market, tc.inst.Keywords)
				for q := range markets {
					markets[q] = NewMarketOpts(tc.inst, MarketOpts{Method: tc.method, Pricing: tc.pricing, ClickSeed: KeywordSeed(clickSeed, q)})
				}
				for idx, got := range outs {
					q := shuffled[idx]
					want := markets[q].RunAuction(q)
					if !got.Equal(want) {
						t.Fatalf("shards=%d auction=%d kw=%d: engine %+v != sequential %+v",
							shards, idx, q, got, want)
					}
				}
			}
		})
	}
}

// TestHeavySteadyStateAllocs extends the zero-allocation guarantee to
// the Section III-F serving path: after warmup, a MethodHeavy auction
// — explicit bid updates, in-place bid-value pushes, the full 2^k
// pattern enumeration in the HeavyDeterminer, pattern-conditional GSP
// pricing, clicks, and accounting — must not allocate at all.
func TestHeavySteadyStateAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	inst := workload.GenerateHeavy(rand.New(rand.NewSource(157)), 150, 4, 6, 0.2, 0.3)
	queries := inst.Queries(rand.New(rand.NewSource(158)), 1024)
	m := NewMarketOpts(inst, MarketOpts{Method: MethodHeavy, ClickSeed: 7})
	for _, q := range queries[:512] {
		m.Run(q)
	}
	next := 512
	allocs := testing.AllocsPerRun(200, func() {
		m.Run(queries[next%len(queries)])
		next++
	})
	if allocs != 0 {
		t.Fatalf("steady-state heavy auction allocates %.2f objects/op, want 0", allocs)
	}
}

// TestVCGSteadyStateAllocs: MethodRH with Vickrey pricing — the main
// solve plus one counterfactual reduced solve per winner, all in
// reused workspaces — stays allocation-free in steady state.
func TestVCGSteadyStateAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	inst := workload.Generate(rand.New(rand.NewSource(159)), 300, 8, 6)
	queries := inst.Queries(rand.New(rand.NewSource(160)), 2048)
	m := NewMarketOpts(inst, MarketOpts{Method: MethodRH, Pricing: PricingVCG, ClickSeed: 7})
	for _, q := range queries[:1024] {
		m.Run(q)
	}
	next := 1024
	allocs := testing.AllocsPerRun(300, func() {
		m.Run(queries[next%len(queries)])
		next++
	})
	if allocs != 0 {
		t.Fatalf("steady-state RH+VCG auction allocates %.2f objects/op, want 0", allocs)
	}
}

// TestHeavyVCGSteadyStateAllocs: the most expressive configuration the
// engine serves — heavyweight winner determination with Vickrey
// pricing, one counterfactual 2^k enumeration per winner — also runs
// allocation-free once warm.
func TestHeavyVCGSteadyStateAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	inst := workload.GenerateHeavy(rand.New(rand.NewSource(161)), 80, 4, 5, 0.25, 0.3)
	queries := inst.Queries(rand.New(rand.NewSource(162)), 1024)
	m := NewMarketOpts(inst, MarketOpts{Method: MethodHeavy, Pricing: PricingVCG, ClickSeed: 7})
	for _, q := range queries[:512] {
		m.Run(q)
	}
	next := 512
	allocs := testing.AllocsPerRun(150, func() {
		m.Run(queries[next%len(queries)])
		next++
	})
	if allocs != 0 {
		t.Fatalf("steady-state heavy+VCG auction allocates %.2f objects/op, want 0", allocs)
	}
}
