package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
	"time"

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
		r.acct.charge(i, q, price, float64(inst.Value[i][q]))
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
//
// k=5 (32 patterns) runs at n=400 and at the Section V n=5000 the
// reduced per-pattern matching makes servable; the larger markets
// measure fewer auctions, not a smaller n.
func TestHeavySteadyStateAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	for _, tc := range []struct{ n, k, keywords, warm, runs int }{
		{150, 4, 6, 512, 200},
		{400, 5, 10, 300, 100},
		{5000, 5, 10, 100, 20},
	} {
		t.Run(fmt.Sprintf("n=%d/k=%d", tc.n, tc.k), func(t *testing.T) {
			inst := workload.GenerateHeavy(rand.New(rand.NewSource(157)), tc.n, tc.k, tc.keywords, 0.2, 0.3)
			queries := inst.Queries(rand.New(rand.NewSource(158)), 1024)
			m := NewMarketOpts(inst, MarketOpts{Method: MethodHeavy, ClickSeed: 7})
			defer m.Close()
			if allocs := warmAllocs(m, queries, tc.warm, tc.runs); allocs != 0 {
				t.Fatalf("steady-state heavy auction allocates %.2f objects/op, want 0", allocs)
			}
		})
	}
}

// TestVCGSteadyStateAllocs: MethodRH with Vickrey pricing — the main
// solve plus one counterfactual reduced solve per winner, all in
// reused workspaces — stays allocation-free in steady state, up to
// the Section V shape at n=1000.
func TestVCGSteadyStateAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	for _, tc := range []struct{ n, k, keywords, warm, runs int }{
		{300, 8, 6, 1024, 300},
		{1000, 15, 10, 500, 100},
	} {
		t.Run(fmt.Sprintf("n=%d", tc.n), func(t *testing.T) {
			inst := workload.Generate(rand.New(rand.NewSource(159)), tc.n, tc.k, tc.keywords)
			queries := inst.Queries(rand.New(rand.NewSource(160)), 2048)
			m := NewMarketOpts(inst, MarketOpts{Method: MethodRH, Pricing: PricingVCG, ClickSeed: 7})
			if allocs := warmAllocs(m, queries, tc.warm, tc.runs); allocs != 0 {
				t.Fatalf("steady-state RH+VCG auction allocates %.2f objects/op, want 0", allocs)
			}
		})
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
	if allocs := warmAllocs(m, queries, 512, 150); allocs != 0 {
		t.Fatalf("steady-state heavy+VCG auction allocates %.2f objects/op, want 0", allocs)
	}
}

// TestMarketHeavyParallelismSteadyStateAllocs: HeavyParallelism is a
// pure performance knob at the market level. A sequential (par=1) and
// a 4-worker pattern-pool market over the same instance, queries and
// click seed produce byte-identical outcomes and bids under GSP and
// VCG; both run allocation-free once warm (the pool's wakeups, claims
// and local-best merge reuse preallocated state); and Close
// retires the pool's goroutines. Named for the CI allocation step's
// -run pattern, which is where the allocation half runs.
func TestMarketHeavyParallelismSteadyStateAllocs(t *testing.T) {
	inst := workload.GenerateHeavy(rand.New(rand.NewSource(163)), 40, 4, 4, 0.25, 0.3)
	queries := inst.Queries(rand.New(rand.NewSource(164)), 240)
	before := runtime.NumGoroutine()
	for _, pricing := range []Pricing{PricingGSP, PricingVCG} {
		t.Run(pricing.String(), func(t *testing.T) {
			opts := MarketOpts{Method: MethodHeavy, Pricing: pricing, ClickSeed: 29, HeavyParallelism: 1}
			seq := NewMarketOpts(inst, opts)
			defer seq.Close()
			opts.HeavyParallelism = 4
			par := NewMarketOpts(inst, opts)
			defer par.Close()
			for a, q := range queries {
				if got, want := par.Run(q), seq.Run(q); !got.Equal(want) {
					t.Fatalf("auction %d (kw %d): par=4 %+v != par=1 %+v", a, q, got, want)
				}
			}
			for q := 0; q < inst.Keywords; q++ {
				for i := 0; i < inst.N; i++ {
					if got, want := par.Bid(i, q), seq.Bid(i, q); got != want {
						t.Fatalf("bid[%d][%d]: par=4 %d, par=1 %d", i, q, got, want)
					}
				}
			}
			if !racetest.Enabled {
				for _, m := range []*Market{seq, par} {
					if allocs := warmAllocs(m, queries, 0, 100); allocs != 0 {
						t.Fatalf("steady-state heavy auction (par=%d) allocates %.2f objects/op, want 0",
							m.heavy.det.Parallelism(), allocs)
					}
				}
			}
			// Closing the pool market retires at least its three parked
			// workers (VCG's nested determiner parks three more). The
			// count is relative: other tests' unclosed markets may still
			// be winding down.
			g := runtime.NumGoroutine()
			par.Close()
			waitGoroutines(t, g-3)
		})
	}
	waitGoroutines(t, before)
}

// waitGoroutines waits for the goroutine count to fall to at most
// want: Close signals parked workers, the runtime retires them a
// moment later.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > want; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d, want at most %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}
