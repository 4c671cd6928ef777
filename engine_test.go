package ssa

import (
	"math/rand"
	"testing"
)

// TestEngineMatchesSequentialWorld is the public-API form of the
// engine's sequential-equivalence contract, meant to run under -race:
// Engine.Serve over a shuffled query stream, on several shard counts,
// must produce for every keyword exactly the outcome sequence of a
// sequential SimWorld fed that keyword's subsequence with the
// matching KeywordClickSeed — allocations, prices, clicks, and
// revenue, bit for bit.
func TestEngineMatchesSequentialWorld(t *testing.T) {
	for _, method := range []SimMethod{SimRH, SimRHTALU} {
		inst := GenerateInstance(21, 100, 6, 8)
		queries := QueryStream(inst, 22, 1000)
		const clickSeed = 33

		for _, shards := range []int{1, 3, 8} {
			shuffled := append([]int(nil), queries...)
			rand.New(rand.NewSource(int64(shards))).Shuffle(len(shuffled), func(a, b int) {
				shuffled[a], shuffled[b] = shuffled[b], shuffled[a]
			})

			e := NewEngine(inst, EngineConfig{Shards: shards, QueueDepth: 16, Method: method, ClickSeed: clickSeed})
			outs, st := e.ServeOutcomes(shuffled)
			e.Close()
			if st.Auctions != len(shuffled) {
				t.Fatalf("method=%v shards=%d: served %d of %d auctions", method, shards, st.Auctions, len(shuffled))
			}

			worlds := make([]*SimWorld, inst.Keywords)
			for q := range worlds {
				worlds[q] = NewSimWorld(inst, method, KeywordClickSeed(clickSeed, q))
			}
			for idx, got := range outs {
				q := shuffled[idx]
				want := worlds[q].RunAuction(q)
				if got.Query != q || got.Revenue != want.Revenue {
					t.Fatalf("method=%v shards=%d auction=%d kw=%d: engine revenue %g, world %g",
						method, shards, idx, q, got.Revenue, want.Revenue)
				}
				for j := range want.AdvOf {
					if got.AdvOf[j] != want.AdvOf[j] ||
						got.PricePerClick[j] != want.PricePerClick[j] ||
						got.Clicked[j] != want.Clicked[j] {
						t.Fatalf("method=%v shards=%d auction=%d kw=%d slot=%d: engine %+v != world %+v",
							method, shards, idx, q, j, got, want)
					}
				}
			}
			// Final bid state must match too: the engine is the world,
			// not merely an outcome-compatible approximation.
			for q := 0; q < inst.Keywords; q++ {
				for i := 0; i < inst.N; i++ {
					if got, want := e.KeywordMarket(q).Bid(i, q), worlds[q].Bid(i, q); got != want {
						t.Fatalf("method=%v shards=%d: bid[%d][%d] engine %d, world %d",
							method, shards, i, q, got, want)
					}
				}
			}
		}
	}
}
