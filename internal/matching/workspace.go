package matching

import (
	"repro/internal/topk"
)

// Workspace holds every scratch buffer the reduced Hungarian solve
// needs — the Jonker–Volgenant potential/slack arrays, the
// candidate-union marks, and per-slot top-k lists — so that a serving
// worker can run winner determination auction after auction without
// touching the allocator. A Workspace grows to the largest problem it
// has seen and then stays allocation-free; it is not safe for
// concurrent use (each worker owns one).
type Workspace struct {
	// Jonker–Volgenant scratch, sized to rows nr and columns
	// m = nc + nr (one dummy column per row) plus the sentinel, and the
	// gathered nr × nc real-cell cost matrix, row-major.
	u, v, minv []float64
	cost       []float64
	p, way     []int
	used       []bool
	colOf      []int

	// Candidate-union scratch: mark[i] == stamp iff advertiser i is
	// already in cands for the current solve. The stamp avoids an O(n)
	// clear per auction.
	mark  []int
	stamp int
	cands []int

	// Selection scratch (select.go): the per-slot lists, the gathered
	// score column of the closure entry and its all-ones bid column,
	// and MaxWeightReduced's slot map.
	lists [][]topk.Item
	col   []float64
	ones  []float64
	advOf []int
}

// NewWorkspace returns an empty workspace; buffers are grown on first
// use.
func NewWorkspace() *Workspace { return &Workspace{} }

// growFloats, growInts, growBools resize scratch slices, reusing the
// backing array whenever it is large enough.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// assignRows is the workspace-backed body of the package-level
// assignRows (see jv.go for the algorithm commentary): it gathers the
// nr × nc real cells row by row, then solves. The returned slice is
// owned by the workspace and valid until the next call.
func (ws *Workspace) assignRows(nr, nc int, weight func(r, c int) float64) []int {
	ws.cost = growFloats(ws.cost, nr*nc)
	cost := ws.cost
	for r := 0; r < nr; r++ {
		row := cost[r*nc : (r+1)*nc]
		for c := range row {
			row[c] = cellCost(weight(r, c))
		}
	}
	return ws.solveRows(nr, nc)
}

// cellCost is a real cell's cost: −weight, clamped at zero.
func cellCost(w float64) float64 {
	if w <= 0 {
		return 0
	}
	return -w
}

// solveRows runs the Jonker–Volgenant solve over the nr × nc cost
// matrix the caller gathered into ws.cost (cellCost per real cell):
// weight runs once per cell, not once per cell per augmenting step,
// and the inner loop reads a row slice. The nr dummy
// columns stay implicit zeros, which keeps the full-graph orientation
// (nr = n advertisers) at n × k stored cells.
func (ws *Workspace) solveRows(nr, nc int) []int {
	m := nc + nr // columns: real ones, then one dummy per row
	cost := ws.cost

	const inf = 1e308
	ws.u = growFloats(ws.u, nr)
	ws.v = growFloats(ws.v, m+1)
	ws.minv = growFloats(ws.minv, m+1)
	ws.p = growInts(ws.p, m+1)
	ws.way = growInts(ws.way, m+1)
	ws.used = growBools(ws.used, m+1)
	u, v, p, way, minv, used := ws.u, ws.v, ws.p, ws.way, ws.minv, ws.used
	for r := 0; r < nr; r++ {
		u[r] = 0
	}
	for c := 0; c <= m; c++ {
		v[c] = 0
		p[c] = -1
	}

	for r := 0; r < nr; r++ {
		p[m] = r
		c0 := m
		for c := 0; c <= m; c++ {
			minv[c] = inf
			used[c] = false
		}
		for {
			used[c0] = true
			r0 := p[c0]
			row, ur := cost[r0*nc:(r0+1)*nc], u[r0]
			delta := inf
			c1 := -1
			for c := 0; c < m; c++ {
				if used[c] {
					continue
				}
				w := 0.0 // dummy column
				if c < nc {
					w = row[c]
				}
				cur := w - ur - v[c]
				if cur < minv[c] {
					minv[c] = cur
					way[c] = c0
				}
				// Prefer free columns on ties; see jv.go.
				if minv[c] < delta || (minv[c] == delta && c1 >= 0 && p[c] < 0 && p[c1] >= 0) {
					delta = minv[c]
					c1 = c
				}
			}
			for c := 0; c <= m; c++ {
				if used[c] {
					u[p[c]] += delta
					v[c] -= delta
				} else {
					minv[c] -= delta
				}
			}
			c0 = c1
			if p[c0] < 0 {
				break
			}
		}
		for c0 != m {
			c1 := way[c0]
			p[c0] = p[c1]
			c0 = c1
		}
	}

	ws.colOf = growInts(ws.colOf, nr)
	colOf := ws.colOf
	for r := range colOf {
		colOf[r] = -1
	}
	for c := 0; c < nc; c++ {
		if p[c] >= 0 {
			colOf[p[c]] = c
		}
	}
	return colOf
}

// AssignCandidatesInto is AssignCandidates running entirely in the
// workspace: the union of the candidate lists, the reduced
// Jonker–Volgenant solve, and the non-positive-edge drop reuse ws
// buffers, and the resulting slot → advertiser map is written into
// advOf (which must have len(lists) entries). In steady state the call
// performs zero heap allocations — the property BenchmarkMarketSteady
// state asserts. Returns the total weight of the matching.
func (ws *Workspace) AssignCandidatesInto(weight func(i, j int) float64, lists [][]topk.Item, advOf []int) (value float64) {
	k := len(lists)
	if len(advOf) != k {
		panic("matching: advOf length must equal the slot count")
	}
	ws.stamp++
	ws.cands = ws.cands[:0]
	for _, list := range lists {
		for _, it := range list {
			if it.ID >= len(ws.mark) {
				// Geometric growth: a fresh workspace whose ids climb
				// to n reallocates O(log n) times, not once per new id.
				grown := make([]int, max(it.ID+1, 2*len(ws.mark)))
				copy(grown, ws.mark)
				ws.mark = grown
			}
			if ws.mark[it.ID] != ws.stamp {
				ws.mark[it.ID] = ws.stamp
				ws.cands = append(ws.cands, it.ID)
			}
		}
	}
	cands := ws.cands
	// Rows = slots, columns = candidates, gathered candidate by
	// candidate so weight reads each advertiser's row once.
	nc := len(cands)
	ws.cost = growFloats(ws.cost, k*nc)
	cost := ws.cost
	for ri, i := range cands {
		for j := 0; j < k; j++ {
			cost[j*nc+ri] = cellCost(weight(i, j))
		}
	}
	advOfReduced := ws.solveRows(k, nc)
	for j := 0; j < k; j++ {
		if ri := advOfReduced[j]; ri >= 0 {
			advOf[j] = cands[ri]
		} else {
			advOf[j] = -1
		}
	}
	dropNonPositiveFunc(weight, advOf)
	for j, i := range advOf {
		if i >= 0 {
			value += weight(i, j)
		}
	}
	return value
}

// MaxWeightInto is MaxWeightFunc (the full-graph method-H solve,
// rows = advertisers) running entirely in the workspace: the
// Jonker–Volgenant scratch is reused and the slot → advertiser map is
// written into advOf, which must have k entries. Matched edges whose
// weight is not strictly positive are dropped, exactly as MaxWeight
// does. The returned value is the total weight of the kept edges,
// summed in slot order — bit-identical to MaxWeightFunc's
// Assignment.Value. In steady state the call performs zero heap
// allocations; it is the reuse point for callers that solve the same
// full graph repeatedly, such as the VCG counterfactuals and the
// heavyweight pattern enumeration.
func (ws *Workspace) MaxWeightInto(n, k int, weight func(i, j int) float64, advOf []int) (value float64) {
	if len(advOf) != k {
		panic("matching: advOf length must equal the slot count")
	}
	for j := range advOf {
		advOf[j] = -1
	}
	if n == 0 || k == 0 {
		return 0
	}
	slotOf := ws.assignRows(n, k, weight)
	for i, j := range slotOf {
		if j >= 0 {
			advOf[j] = i
		}
	}
	dropNonPositiveFunc(weight, advOf)
	for j, i := range advOf {
		if i >= 0 {
			value += weight(i, j)
		}
	}
	return value
}

// MaxWeightReduced is the package-level MaxWeightReduced running on
// the workspace's scratch buffers. Only the returned Assignment's own
// slices are freshly allocated (callers may retain them); all
// intermediate state is reused.
func (ws *Workspace) MaxWeightReduced(w [][]float64) Assignment {
	n := len(w)
	k := 0
	if n > 0 {
		k = len(w[0])
	}
	if n == 0 || k == 0 {
		return newAssignment(w, n, make([]int, 0, k))
	}
	weight := func(i, j int) float64 { return w[i][j] }
	lists := ws.SelectCandidates(n, k, k, weight)
	ws.advOf = growInts(ws.advOf, k)
	value := ws.AssignCandidatesInto(weight, lists, ws.advOf)
	advOf := make([]int, k)
	copy(advOf, ws.advOf)
	slotOf := make([]int, n)
	for i := range slotOf {
		slotOf[i] = -1
	}
	for j, i := range advOf {
		if i >= 0 {
			slotOf[i] = j
		}
	}
	return Assignment{SlotOf: slotOf, AdvOf: advOf, Value: value}
}
