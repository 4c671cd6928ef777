package ta

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/racetest"
	"repro/internal/topk"
)

// resetSources rewinds every SliceSource so one fixture can feed
// repeated TA runs.
func resetSources(sources []Source) {
	for _, s := range sources {
		s.(*SliceSource).Reset()
	}
}

// TestRunnerMatchesTopK: the reusable runner must return exactly what
// the package-level TopK returns — items, order, and stats — across
// repeated calls on the same runner, including k changes.
func TestRunnerMatchesTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	const n = 300
	vals := make([][]float64, n)
	for i := range vals {
		vals[i] = []float64{rng.Float64(), float64(rng.Intn(50))}
	}
	sources := buildSources(vals)
	r := NewRunner(n)
	for round, k := range []int{5, 16, 5, 1, 16} {
		resetSources(sources)
		want, wantStats := TopK(k, sources, product)
		resetSources(sources)
		got, gotStats := r.TopK(k, sources, product)
		if gotStats != wantStats {
			t.Fatalf("round %d (k=%d): runner stats %+v, TopK stats %+v", round, k, gotStats, wantStats)
		}
		if len(got) != len(want) {
			t.Fatalf("round %d (k=%d): %d items, want %d", round, k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d (k=%d) item %d: runner %+v, TopK %+v", round, k, i, got[i], want[i])
			}
		}
	}
}

// TestRunnerGenerationWrap: the runner's seen-stamp generation is a
// uint32 bumped once per call; across its wrap-around the results
// and stats must still equal TopK's — an id never stamped (stamp 0)
// must not read as already seen when the generation comes back to 0.
func TestRunnerGenerationWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	const n = 300
	vals := make([][]float64, n)
	for i := range vals {
		vals[i] = []float64{rng.Float64(), float64(rng.Intn(50))}
	}
	sources := buildSources(vals)
	r := NewRunner(n)
	r.gen = math.MaxUint32 - 1
	for round, k := range []int{1, 16, 1, 16} {
		resetSources(sources)
		want, wantStats := TopK(k, sources, product)
		resetSources(sources)
		got, gotStats := r.TopK(k, sources, product)
		if gotStats != wantStats {
			t.Fatalf("round %d (k=%d, gen %d): runner stats %+v, TopK stats %+v", round, k, r.gen, gotStats, wantStats)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d (k=%d) item %d: runner %+v, TopK %+v", round, k, i, got[i], want[i])
			}
		}
	}
}

// TestRunnerTopKIntoReusesDst: TopKInto must append into the passed
// slice region (the SelectInto convention) and keep reusing its
// backing array.
func TestRunnerTopKIntoReusesDst(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	const n, k = 200, 8
	vals := make([][]float64, n)
	for i := range vals {
		vals[i] = []float64{rng.Float64(), rng.Float64()}
	}
	sources := buildSources(vals)
	r := NewRunner(n)
	var dst []topk.Item
	var firstBacking *topk.Item
	for round := 0; round < 5; round++ {
		resetSources(sources)
		var stats Stats
		dst, stats = r.TopKInto(k, sources, product, dst[:0])
		if len(dst) != k {
			t.Fatalf("round %d: %d items, want %d", round, len(dst), k)
		}
		if stats.Seen == 0 {
			t.Fatalf("round %d: stats not populated", round)
		}
		if round == 0 {
			firstBacking = &dst[0]
		} else if &dst[0] != firstBacking {
			t.Fatalf("round %d: backing array was reallocated", round)
		}
		resetSources(sources)
		want, _ := TopK(k, sources, product)
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("round %d item %d: %+v, want %+v", round, i, dst[i], want[i])
			}
		}
	}
}

// TestRunnerSteadyStateAllocs: with stable k and reused dst, a
// TopKInto call performs zero heap allocations.
func TestRunnerSteadyStateAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	rng := rand.New(rand.NewSource(83))
	const n, k = 500, 16
	vals := make([][]float64, n)
	for i := range vals {
		vals[i] = []float64{rng.Float64(), float64(rng.Intn(50))}
	}
	sources := buildSources(vals)
	r := NewRunner(n)
	var dst []topk.Item
	dst, _ = r.TopKInto(k, sources, product, dst[:0]) // warm the heap + buffers
	allocs := testing.AllocsPerRun(200, func() {
		resetSources(sources)
		dst, _ = r.TopKInto(k, sources, product, dst[:0])
	})
	if allocs != 0 {
		t.Fatalf("steady-state TopKInto allocates %.2f objects/op, want 0", allocs)
	}
}
