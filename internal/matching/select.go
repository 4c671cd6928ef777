package matching

import "repro/internal/topk"

// topRun is the full per-slot top-depth kernel behind SelectDense and
// SelectCandidates. It walks the column once, scoring advertiser i as
// col[i]·bid[i], and keeps a sorted run of at most depth items in
// dst's backing array: descending score, ascending id on ties. Ids
// ascend during the walk, so a newcomer goes after every retained item
// of equal score, and once the run is full it enters only when it
// scores strictly above the current minimum — exactly topk.Heap.Offer's
// tie rule, zeros included, so the result equals topk.SelectInto's.
// Insertion is O(depth) but rare: after the first depth items, the
// common case is one comparison against the cached floor.
func topRun(dst []topk.Item, depth int, col, bid []float64) []topk.Item {
	if cap(dst) < depth {
		dst = make([]topk.Item, depth)
	}
	run := dst[:depth]
	bid = bid[:len(col)]
	// Fill: the first depth candidates all enter.
	l := min(depth, len(col))
	for i, c := range col[:l] {
		insertRun(run, i, topk.Item{ID: i, Score: c * bid[i]})
	}
	if l < depth {
		return run[:l]
	}
	// Full: a candidate enters only above the floor, the minimum
	// dropping out.
	floor := run[depth-1].Score
	for i := depth; i < len(col); i++ {
		if s := col[i] * bid[i]; s > floor {
			insertRun(run, depth-1, topk.Item{ID: i, Score: s})
			floor = run[depth-1].Score
		}
	}
	return run
}

// topRunOver is topRun's kernel walking only the ascending candidate
// ids, given a lower bound lo on the column's depth-th best score: the
// run fills only with scores ≥ lo (ties at the bound must enter), and
// once full the strict-greater rule applies as in topRun. Every
// advertiser of the full column's top depth scores ≥ lo, so when ids
// holds all of them the run equals topRun's over the whole column.
func topRunOver(dst []topk.Item, depth int, col, bid []float64, ids []int32, lo float64) []topk.Item {
	if cap(dst) < depth {
		dst = make([]topk.Item, depth)
	}
	run := dst[:depth]
	l, x := 0, 0
	for ; l < depth && x < len(ids); x++ {
		i := ids[x]
		if s := col[i] * bid[i]; s >= lo {
			insertRun(run, l, topk.Item{ID: int(i), Score: s})
			l++
		}
	}
	if l < depth {
		return run[:l]
	}
	floor := run[depth-1].Score
	for _, i := range ids[x:] {
		if s := col[i] * bid[i]; s > floor {
			insertRun(run, depth-1, topk.Item{ID: int(i), Score: s})
			floor = run[depth-1].Score
		}
	}
	return run
}

// insertRun places it into the sorted prefix run[:p], shifting lower
// scores right into run[p]; it lands after every item of equal score.
func insertRun(run []topk.Item, p int, it topk.Item) {
	for p > 0 && run[p-1].Score < it.Score {
		run[p] = run[p-1]
		p--
	}
	run[p] = it
}

// listsFor returns the workspace's k per-slot lists, checking depth
// (topk.NewHeap's rule: it must be positive).
func (ws *Workspace) listsFor(k, depth int) [][]topk.Item {
	if depth <= 0 {
		panic("matching: selection depth must be positive")
	}
	if cap(ws.lists) < k {
		ws.lists = make([][]topk.Item, k)
	}
	ws.lists = ws.lists[:k]
	return ws.lists
}

// SelectDense fills per-slot top-depth candidate lists for n
// advertisers scored cp[j·n+i]·bid[i], where cp is the slot-major
// click-probability matrix (column j is slot j's n probabilities) and
// bid holds at least n bids. The product is formed inside the kernel
// walk, with no closure call or row-pointer chase per candidate.
// Lists are ordered by descending score, ascending id on ties,
// identical to SelectCandidates over the weight cp[j·n+i]·bid[i]; they
// live in workspace storage, valid until the next selection or
// MaxWeightReduced call on ws. An RH market takes this full walk only
// when it has no floor for the keyword (see SelectDenseOver).
func (ws *Workspace) SelectDense(n, k, depth int, cp, bid []float64) [][]topk.Item {
	lists := ws.listsFor(k, depth)
	bid = bid[:n]
	for j := range lists {
		lists[j] = topRun(lists[j], depth, cp[j*n:(j+1)*n], bid)
	}
	return lists
}

// SelectDenseOver is SelectDense restricted to the candidates ids
// (ascending, distinct, each < n), given per-slot lower bounds:
// floor[j] must not exceed slot j's depth-th best score over all n
// advertisers, and for every slot j, ids must hold each advertiser
// whose slot-j score is ≥ floor[j]. Slot j's run admits only scores
// ≥ floor[j] until it is full, and the lists equal SelectDense's. It
// is the RH market's seeded selection; the caller proves both bounds.
func (ws *Workspace) SelectDenseOver(n, k, depth int, cp, bid []float64, ids []int32, floor []float64) [][]topk.Item {
	lists := ws.listsFor(k, depth)
	bid = bid[:n]
	for j := range lists {
		lists[j] = topRunOver(lists[j], depth, cp[j*n:(j+1)*n], bid, ids, floor[j])
	}
	return lists
}

// SelectCandidates fills per-slot top-depth candidate lists for n
// advertisers under an arbitrary weight function: per slot it gathers
// weight(i, j) into a workspace-owned score column and runs the same
// kernel as SelectDense against a column of ones (x·1 == x exactly in
// IEEE-754, so the scores are weight's own). The returned slice (and
// the lists inside it) are valid until the next selection or
// MaxWeightReduced call on ws.
func (ws *Workspace) SelectCandidates(n, k, depth int, weight func(i, j int) float64) [][]topk.Item {
	lists := ws.listsFor(k, depth)
	ws.col = growFloats(ws.col, n)
	if len(ws.ones) < n {
		ws.ones = make([]float64, n)
		for i := range ws.ones {
			ws.ones[i] = 1
		}
	}
	col := ws.col
	for j := range lists {
		for i := range col {
			col[i] = weight(i, j)
		}
		lists[j] = topRun(lists[j], depth, col, ws.ones)
	}
	return lists
}
