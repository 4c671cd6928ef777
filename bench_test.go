package ssa

// Benchmarks regenerating the paper's evaluation (Section V).
//
// Figure 12 — winner-determination performance: average time per
// auction for LP, H, RH, and RHTALU as the number of advertisers
// grows, with k = 15 slots and 10 keywords, every bidder running the
// ROI-equalizing heuristic, and a generalized second-price rule
// charging clicks. The paper sweeps n to 5000; LP is capped at
// n = 500 here because our from-scratch dense simplex is far slower
// than GLPK (see DESIGN.md "Substitutions") — the ordering
// LP ≫ H ≫ RH is what matters and is visible well before that.
//
// Figure 13 — reducing program evaluation: RH vs RHTALU out to
// n = 20000; RH grows linearly in n (every program is evaluated every
// auction), RHTALU stays near-flat (threshold algorithm + logical
// updates, Section IV).
//
// Run everything:  go test -bench=. -benchmem
// One figure:      go test -bench=Fig13 -benchmem
//
// The cmd/experiments binary produces the same sweeps as aligned
// tables with the paper's cold-start protocol.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/lp"
	"repro/internal/matching"
	"repro/internal/probmodel"
	"repro/internal/topk"
)

// Warmup before timing so the market is in a mixed steady state: the
// initial wave — every bidder climbing from value/2 toward his
// maximum — has passed, winners and losers coexist, and both spending
// statuses occur. (The cmd/experiments harness instead reproduces the
// paper's exact cold-start protocol: the average over the first 100
// or 1000 auctions of a fresh market.) LP and H worlds get short
// warmups: each of their warmup auctions pays the same full
// per-auction cost as a timed one, and that cost is insensitive to
// market state.
const (
	warmupAuctions     = 2000
	warmupAuctionsLP   = 16
	warmupAuctionsFull = 128
)

func benchWorld(b *testing.B, n int, method SimMethod) {
	b.Helper()
	warmup := warmupAuctions
	switch method {
	case SimLP:
		warmup = warmupAuctionsLP
	case SimH:
		warmup = warmupAuctionsFull
	}
	inst := GenerateInstance(42, n, DefaultSlots, DefaultKeywords)
	w := NewSimWorld(inst, method, 7)
	queries := QueryStream(inst, 9, warmup+b.N)
	for _, q := range queries[:warmup] {
		w.RunAuction(q)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.RunAuction(queries[warmup+i])
	}
}

// BenchmarkFig12 regenerates Figure 12's four curves. Reported value
// = time per auction.
func BenchmarkFig12(b *testing.B) {
	type curve struct {
		method SimMethod
		sizes  []int
	}
	curves := []curve{
		{SimLP, []int{100, 250, 500}}, // capped; see file comment
		{SimH, []int{500, 1000, 2000, 3500, 5000}},
		{SimRH, []int{500, 1000, 2000, 3500, 5000}},
		{SimRHTALU, []int{500, 1000, 2000, 3500, 5000}},
	}
	for _, c := range curves {
		for _, n := range c.sizes {
			b.Run(fmt.Sprintf("method=%v/n=%d", c.method, n), func(b *testing.B) {
				benchWorld(b, n, c.method)
			})
		}
	}
}

// BenchmarkFig13 regenerates Figure 13: RH vs RHTALU at large n.
func BenchmarkFig13(b *testing.B) {
	sizes := []int{2000, 5000, 10000, 15000, 20000}
	for _, method := range []SimMethod{SimRH, SimRHTALU} {
		for _, n := range sizes {
			b.Run(fmt.Sprintf("method=%v/n=%d", method, n), func(b *testing.B) {
				benchWorld(b, n, method)
			})
		}
	}
}

// BenchmarkAblationSeparable contrasts the platforms' O(n log k)
// sort-based allocation with the Hungarian matching it replaces —
// valid only because the instance is separable (Section III-C).
func BenchmarkAblationSeparable(b *testing.B) {
	const n, k = 5000, 15
	adv := make([]float64, n)
	slot := make([]float64, k)
	for i := range adv {
		adv[i] = float64(i%97) + 1
	}
	for j := range slot {
		slot[j] = 1 / float64(j+2)
	}
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, k)
		for j := range w[i] {
			w[i][j] = adv[i] * slot[j]
		}
	}
	b.Run("separable-sort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matching.Separable(adv, slot)
		}
	})
	b.Run("hungarian", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matching.MaxWeight(w)
		}
	})
	b.Run("reduced-hungarian", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matching.MaxWeightReduced(w)
		}
	})
}

// BenchmarkAblationParallelTopK measures the Section III-E
// aggregation tree: per-slot top-k with 1 worker vs GOMAXPROCS
// workers.
func BenchmarkAblationParallelTopK(b *testing.B) {
	const n, k = 200000, 15
	scores := make([][]float64, n)
	for i := range scores {
		scores[i] = make([]float64, k)
		for j := range scores[i] {
			scores[i][j] = float64((i*31+j*17)%10007) / 10007
		}
	}
	score := func(i, j int) float64 { return scores[i][j] }
	for _, p := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				topk.ParallelSelect(n, k, p, score)
			}
		})
	}
}

// BenchmarkAblationHeavyweight measures the Section III-F 2^k pattern
// enumeration, serial vs parallel, at k = 8 (256 patterns).
func BenchmarkAblationHeavyweight(b *testing.B) {
	const n, k = 400, 8
	base := probmodel.New(n, k)
	h := &HeavyAuction{Slots: k, Model: &probmodel.HeavyModel{
		Base:   base,
		Factor: probmodel.ShadowFactors(k, 0.25),
	}}
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			base.Click[i][j] = float64((i*13+j*7)%89+1) / 100
		}
		h.Advertisers = append(h.Advertisers, Advertiser{
			ID:    fmt.Sprintf("a%d", i),
			Bids:  MustParseBids("Click : 5\nSlot1 AND NOT Heavy2 : 3"),
			Heavy: i%5 == 0,
		})
	}
	for _, parallel := range []bool{false, true} {
		b.Run(fmt.Sprintf("parallel=%v", parallel), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := h.Determine(parallel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKernelHungarian isolates the matching solvers from the
// simulation (pure winner-determination cost on a fixed matrix).
func BenchmarkKernelHungarian(b *testing.B) {
	for _, n := range []int{1000, 5000} {
		const k = 15
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, k)
			for j := range w[i] {
				w[i][j] = float64((i*131+j*37)%9973) / 100
			}
		}
		b.Run(fmt.Sprintf("H/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matching.MaxWeight(w)
			}
		})
		b.Run(fmt.Sprintf("RH/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matching.MaxWeightReduced(w)
			}
		})
	}
}

// BenchmarkKernelLP isolates the simplex solver on assignment LPs.
func BenchmarkKernelLP(b *testing.B) {
	for _, n := range []int{50, 100, 200} {
		const k = 15
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, k)
			for j := range w[i] {
				w[i][j] = float64((i*131+j*37)%9973) / 100
			}
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := lp.SolveAssignment(w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationAuctionAlgorithm compares the three assignment
// solvers on one reduced-size problem (k² candidates, the RH tail)
// and one full-size problem: Bertsekas's auction algorithm vs the
// Hungarian kernel, with the LP at the reduced size for scale.
func BenchmarkAblationAuctionAlgorithm(b *testing.B) {
	const k = 15
	for _, n := range []int{225, 5000} {
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, k)
			for j := range w[i] {
				w[i][j] = float64((i*53 + j*29) % 101) // integer weights: exact
			}
		}
		weight := func(i, j int) float64 { return w[i][j] }
		b.Run(fmt.Sprintf("auction/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matching.AuctionAssign(n, k, weight, 0)
			}
		})
		b.Run(fmt.Sprintf("hungarian/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matching.MaxWeight(w)
			}
		})
	}
}
