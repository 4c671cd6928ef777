package engine

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/formula"
	"repro/internal/probmodel"
	"repro/internal/workload"
)

// coreMethodFor maps an engine method to the core winner-determination
// method its VCG counterfactuals implement.
func coreMethodFor(m Method) core.Method {
	switch m {
	case MethodH:
		return core.MethodHungarian
	case MethodLP:
		return core.MethodLP
	default: // the RH family
		return core.MethodReduced
	}
}

// snapshotAuction rebuilds the core.Auction a market just ran: every
// advertiser bids his current integer bid on the bare Click predicate
// and the probability model is the instance's click matrix with no
// purchases — the exact expressive-bid form of the engine's scalar
// weights (expected payment = clickProb·bid, zero baseline).
func snapshotAuction(inst *workload.Instance, m *Market, q int) *core.Auction {
	n, k := inst.N, inst.Slots
	purchase := make([][]float64, n)
	advs := make([]core.Advertiser, n)
	for i := 0; i < n; i++ {
		purchase[i] = make([]float64, k)
		advs[i] = core.Advertiser{
			ID:   "adv" + strconv.Itoa(i),
			Bids: formula.Bids{{F: formula.Click{}, Value: float64(m.Bid(i, q))}},
		}
	}
	return &core.Auction{
		Slots:       k,
		Advertisers: advs,
		Probs:       &probmodel.Model{Click: inst.ClickProb, Purchase: purchase},
	}
}

// resultFromOutcome lifts an engine outcome's allocation into a
// core.Result for pricing.
func resultFromOutcome(n int, out *Outcome) *core.Result {
	res := &core.Result{
		AdvOf:  append([]int(nil), out.AdvOf...),
		SlotOf: make([]int, n),
	}
	for i := range res.SlotOf {
		res.SlotOf[i] = -1
	}
	for j, i := range res.AdvOf {
		if i >= 0 {
			res.SlotOf[i] = j
		}
	}
	return res
}

// TestMarketVCGMatchesCoreVCGPayments is the VCG acceptance contract:
// for every winner-determination method, the engine's workspace-reusing
// counterfactual solves must price each auction exactly as
// core.Auction.VCGPayments prices the equivalent expressive-bid
// auction at the engine's own allocation — per-click prices equal bit
// for bit, not approximately.
func TestMarketVCGMatchesCoreVCGPayments(t *testing.T) {
	for _, method := range []Method{MethodRH, MethodH, MethodLP, MethodRHTALU} {
		t.Run(method.String(), func(t *testing.T) {
			inst := workload.Generate(rand.New(rand.NewSource(171)), 30, 4, 4)
			queries := inst.Queries(rand.New(rand.NewSource(172)), 250)
			m := NewMarketOpts(inst, MarketOpts{Method: method, Pricing: PricingVCG, ClickSeed: 29})
			for a, q := range queries {
				out := m.Run(q)
				// After Run, Bid(i, q) is exactly the bid vector this
				// auction was determined and priced with.
				snap := snapshotAuction(inst, m, q)
				res := resultFromOutcome(inst.N, out)
				pay, err := snap.VCGPayments(res, coreMethodFor(method))
				if err != nil {
					t.Fatalf("auction %d: %v", a, err)
				}
				for j, i := range out.AdvOf {
					want := 0.0
					if i >= 0 && pay[i] > 0 {
						want = pay[i] / inst.ClickProb[i][j]
					}
					if out.PricePerClick[j] != want {
						t.Fatalf("auction %d slot %d: engine VCG price %g != core %g",
							a, j, out.PricePerClick[j], want)
					}
				}
				for i := 0; i < inst.N; i++ {
					if res.SlotOf[i] < 0 && pay[i] != 0 {
						t.Fatalf("auction %d: loser %d charged %g", a, i, pay[i])
					}
				}
			}
		})
	}
}

// TestHeavyMarketVCGMatchesHeavyVCGPayments is the heavyweight leg:
// a MethodHeavy market with Vickrey pricing must charge exactly what
// core.HeavyAuction.VCGPayments computes on the equivalent snapshot
// auction — counterfactual 2^k enumerations and all.
func TestHeavyMarketVCGMatchesHeavyVCGPayments(t *testing.T) {
	inst := workload.GenerateHeavy(rand.New(rand.NewSource(173)), 25, 3, 4, 0.3, 0.4)
	queries := inst.Queries(rand.New(rand.NewSource(174)), 250)
	m := NewMarketOpts(inst, MarketOpts{Method: MethodHeavy, Pricing: PricingVCG, ClickSeed: 31})
	n, k := inst.N, inst.Slots
	factor := probmodel.ShadowFactors(k, inst.Shadow)
	for a, q := range queries {
		out := m.Run(q)
		purchase := make([][]float64, n)
		advs := make([]core.Advertiser, n)
		isHeavy := make([]bool, n)
		copy(isHeavy, inst.Heavy)
		for i := 0; i < n; i++ {
			purchase[i] = make([]float64, k)
			advs[i] = core.Advertiser{
				ID:    "adv" + strconv.Itoa(i),
				Bids:  formula.Bids{{F: formula.Click{}, Value: float64(m.Bid(i, q))}},
				Heavy: isHeavy[i],
			}
		}
		model := &probmodel.HeavyModel{
			Base:    &probmodel.Model{Click: inst.ClickProb, Purchase: purchase},
			IsHeavy: isHeavy,
			Factor:  factor,
		}
		snap := &core.HeavyAuction{Slots: k, Advertisers: advs, Model: model}
		res := resultFromOutcome(n, out)
		pay, err := snap.VCGPayments(res)
		if err != nil {
			t.Fatalf("auction %d: %v", a, err)
		}
		var pattern uint64
		for j, i := range out.AdvOf {
			if i >= 0 && isHeavy[i] {
				pattern |= 1 << uint(j)
			}
		}
		for j, i := range out.AdvOf {
			want := 0.0
			if i >= 0 && pay[i] > 0 {
				want = pay[i] / model.ClickProb(i, j, pattern)
			}
			if out.PricePerClick[j] != want {
				t.Fatalf("auction %d slot %d: engine heavy VCG price %g != core %g",
					a, j, out.PricePerClick[j], want)
			}
		}
	}
}
