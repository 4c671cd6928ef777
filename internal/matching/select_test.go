package matching

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/topk"
)

// selectCase is one selection problem: a slot-major click matrix cp
// (cp[j·n+i]) and a bid vector, scored cp[j·n+i]·bid[i].
type selectCase struct {
	name        string
	n, k, depth int
	cp, bid     []float64
}

// oracleLists is the brute-force reference: per slot, every advertiser
// sorted by descending score, ascending id on ties, cut at depth.
func oracleLists(c selectCase) [][]topk.Item {
	lists := make([][]topk.Item, c.k)
	for j := range lists {
		all := make([]topk.Item, c.n)
		for i := range all {
			all[i] = topk.Item{ID: i, Score: c.cp[j*c.n+i] * c.bid[i]}
		}
		sort.Slice(all, func(a, b int) bool {
			if all[a].Score != all[b].Score {
				return all[a].Score > all[b].Score
			}
			return all[a].ID < all[b].ID
		})
		lists[j] = all[:min(c.depth, c.n)]
	}
	return lists
}

// randomCase draws a tie-heavy problem: click probabilities and bids
// come from small discrete sets, so equal scores recur within a slot
// and across slots. kind forces the degenerate shapes.
func randomCase(rng *rand.Rand, kind int) selectCase {
	c := selectCase{n: 1 + rng.Intn(60), k: 1 + rng.Intn(6)}
	c.depth = 1 + rng.Intn(c.k+2)
	c.cp = make([]float64, c.n*c.k)
	c.bid = make([]float64, c.n)
	probs := []float64{0, 0.125, 0.25, 0.5, 0.75}
	for x := range c.cp {
		c.cp[x] = probs[rng.Intn(len(probs))]
	}
	for i := range c.bid {
		c.bid[i] = float64(rng.Intn(6))
	}
	switch kind {
	case 0:
		c.name = "ties"
	case 1:
		c.name = "all-zero-bids"
		for i := range c.bid {
			c.bid[i] = 0
		}
	case 2:
		c.name = "one-positive-bidder"
		for i := range c.bid {
			c.bid[i] = 0
		}
		c.bid[rng.Intn(c.n)] = 3
	case 3:
		c.name = "n-below-depth"
		c.n = min(c.n, 1+rng.Intn(4))
		c.depth = c.n + 1 + rng.Intn(4)
		c.cp = c.cp[:c.n*c.k]
		c.bid = c.bid[:c.n]
	case 4:
		c.name = "depth-1"
		c.depth = 1
	case 5:
		c.name = "k-1"
		c.k = 1
		c.cp = c.cp[:c.n]
	case 6:
		c.name = "negative-bids"
		for i := range c.bid {
			c.bid[i] -= 2
		}
	}
	return c
}

// TestDenseMatchesClosureAndOracle: the dense entry, the closure entry
// (which gathers into the same kernel), the seeded entry over the
// advertisers reaching each slot's depth-th best score, the bounded
// heap it replaced (topk.SelectInto) and a sort-based oracle must
// produce identical lists, including on tie-heavy and degenerate
// inputs. One workspace serves every trial, so shape changes exercise
// the reuse paths.
func TestDenseMatchesClosureAndOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	ws := NewWorkspace()
	for trial := 0; trial < 1400; trial++ {
		c := randomCase(rng, trial%7)
		weight := func(i, j int) float64 { return c.cp[j*c.n+i] * c.bid[i] }
		want := oracleLists(c)
		tag := fmt.Sprintf("trial %d %s (n=%d k=%d depth=%d)", trial, c.name, c.n, c.k, c.depth)

		heap := topk.NewHeap(c.depth)
		for j := range want {
			got := topk.SelectInto(heap, nil, c.n, func(i int) float64 { return weight(i, j) })
			if !reflect.DeepEqual(got, want[j]) {
				t.Fatalf("%s slot %d: heap %v, oracle %v", tag, j, got, want[j])
			}
		}
		if got := ws.SelectDense(c.n, c.k, c.depth, c.cp, c.bid); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: dense %v, oracle %v", tag, got, want)
		}
		if got := ws.SelectCandidates(c.n, c.k, c.depth, weight); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: closure %v, oracle %v", tag, got, want)
		}
		// The seeded entry at its tightest bounds: each slot's floor is
		// its depth-th best score (ties at the floor must enter), and
		// the ids are exactly the advertisers reaching some floor.
		floor := make([]float64, c.k)
		for j := range floor {
			floor[j] = math.Inf(-1)
			if len(want[j]) == c.depth {
				floor[j] = want[j][c.depth-1].Score
			}
		}
		var ids []int32
		for i := 0; i < c.n; i++ {
			for j := range floor {
				if weight(i, j) >= floor[j] {
					ids = append(ids, int32(i))
					break
				}
			}
		}
		if got := ws.SelectDenseOver(c.n, c.k, c.depth, c.cp, c.bid, ids, floor); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: seeded %v, oracle %v", tag, got, want)
		}
	}
}

// TestMarkGrowsGeometrically: on a fresh workspace, candidate lists
// whose largest id climbs one at a time from 0 to 4999 reallocate the
// candidate-union marks at most ⌈log₂ 5000⌉+1 times.
func TestMarkGrowsGeometrically(t *testing.T) {
	const n = 5000
	ws := NewWorkspace()
	weight := func(i, j int) float64 { return 1 }
	lists := [][]topk.Item{{{ID: 0, Score: 1}}}
	advOf := make([]int, 1)
	reallocs, last := 0, -1
	for id := 0; id < n; id++ {
		lists[0][0].ID = id
		ws.AssignCandidatesInto(weight, lists, advOf)
		if c := cap(ws.mark); c != last {
			reallocs++
			last = c
		}
	}
	if limit := bits.Len(n-1) + 1; reallocs > limit {
		t.Fatalf("%d reallocations of the marks for ids up to %d, want at most %d", reallocs, n-1, limit)
	}
}

// benchSelect times one full per-slot selection (k=15, depth 16) over
// a Section V-shaped problem: integer bids 0–49, probabilities in
// (0, 1).
func benchSelect(b *testing.B, dense bool) {
	for _, n := range []int{1000, 5000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			const k = 15
			rng := rand.New(rand.NewSource(int64(n)))
			cp := make([]float64, k*n)
			for x := range cp {
				cp[x] = rng.Float64()
			}
			bid := make([]float64, n)
			for i := range bid {
				bid[i] = float64(rng.Intn(50))
			}
			weight := func(i, j int) float64 { return cp[j*n+i] * bid[i] }
			ws := NewWorkspace()
			b.ReportAllocs()
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				if dense {
					ws.SelectDense(n, k, k+1, cp, bid)
				} else {
					ws.SelectCandidates(n, k, k+1, weight)
				}
			}
		})
	}
}

func BenchmarkSelectDense(b *testing.B)   { benchSelect(b, true) }
func BenchmarkSelectClosure(b *testing.B) { benchSelect(b, false) }
