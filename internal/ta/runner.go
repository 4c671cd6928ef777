package ta

import "repro/internal/topk"

// Runner is a reusable threshold-algorithm executor over a fixed
// object universe [0, n). It replaces TopK's per-call map with a
// generation-stamped array and reuses its scratch buffers, cutting
// the per-auction allocation cost when TA runs k times per auction
// (once per slot, Section IV-A).
type Runner struct {
	stamp []uint32
	gen   uint32

	frontier     []float64
	haveFrontier []bool
	exhausted    []bool
	vals         []float64

	heap  *topk.Heap
	heapK int
}

// NewRunner returns a Runner for object IDs in [0, n).
func NewRunner(n int) *Runner {
	return &Runner{stamp: make([]uint32, n)}
}

// TopK is TopK with reusable state. Semantics match the package-level
// function exactly; results for IDs outside [0, n) are undefined. The
// returned slice is freshly allocated; hot paths use TopKInto.
func (r *Runner) TopK(k int, sources []Source, f func(values []float64) float64) ([]topk.Item, Stats) {
	return r.TopKInto(k, sources, f, nil)
}

// TopKInto is TopK appending the result to dst — callers pass
// dst = previousResult[:0] to recycle the backing array, exactly the
// topk.SelectInto convention. The bounded heap is owned by the runner
// (re-created only when k changes between calls), so a steady-state
// call with stable k and sources performs zero heap allocations.
// Result ordering is identical to TopK: descending score, ties by
// ascending ID.
func (r *Runner) TopKInto(k int, sources []Source, f func(values []float64) float64, dst []topk.Item) ([]topk.Item, Stats) {
	var stats Stats
	m := len(sources)
	if cap(r.vals) < m {
		r.frontier = make([]float64, m)
		r.haveFrontier = make([]bool, m)
		r.exhausted = make([]bool, m)
		r.vals = make([]float64, m)
	}
	frontier := r.frontier[:m]
	haveFrontier := r.haveFrontier[:m]
	exhausted := r.exhausted[:m]
	vals := r.vals[:m]
	for t := 0; t < m; t++ {
		haveFrontier[t] = false
		exhausted[t] = false
	}
	r.gen++
	if r.gen == 0 {
		// Wrapped: an id stamped 0 (never stamped) or stamped in the
		// generation that last shared this value would read as seen.
		clear(r.stamp)
		r.gen = 1
	}
	gen := r.gen
	if r.heap == nil || r.heapK != k {
		r.heap = topk.NewHeap(k)
		r.heapK = k
	}
	heap := r.heap
	heap.Reset()

	for {
		progressed := false
		for t := 0; t < m; t++ {
			if exhausted[t] {
				continue
			}
			id, v, ok := sources[t].Next()
			if !ok {
				exhausted[t] = true
				continue
			}
			stats.SortedAccesses++
			progressed = true
			frontier[t] = v
			haveFrontier[t] = true
			if r.stamp[id] != gen {
				r.stamp[id] = gen
				stats.Seen++
				// Random access on every source (inlined — a score
				// closure here would be a per-call allocation).
				for u := 0; u < m; u++ {
					vals[u] = sources[u].Lookup(id)
				}
				stats.RandomAccesses += m
				heap.Offer(topk.Item{ID: id, Score: f(vals)})
			}
		}
		if !progressed {
			break
		}
		ready := true
		for t := 0; t < m; t++ {
			if !haveFrontier[t] && !exhausted[t] {
				ready = false
				break
			}
			vals[t] = frontier[t]
			if !haveFrontier[t] {
				vals[t] = 0
			}
		}
		if !ready {
			continue
		}
		if heap.Len() >= k && heap.Min().Score >= f(vals) {
			break
		}
	}
	return heap.DrainDesc(dst), stats
}
