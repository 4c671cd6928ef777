package engine

import (
	"math"

	"repro/internal/logical"
	"repro/internal/matching"
	"repro/internal/ta"
	"repro/internal/topk"
	"repro/internal/workload"
)

// taluEngine implements Section IV: instead of running every bidding
// program on every auction, it exploits the structure of the ROI
// heuristic.
//
// Logical updates (Section IV-B). For each keyword, bidders are
// partitioned into an increment list, a decrement list, and a
// constant list according to what the Figure 5 program would do to
// their bid on a query for that keyword. Each list is sorted by
// stored bid and carries a shared adjustment variable, so "every
// underspending max-ROI bidder raises his bid by one" is a single
// O(1) adjustment. A bidder changes lists only when
//
//   - he wins a click (his spending and ROI statistics move), or
//   - a shared monotone variable crosses a precomputed critical value:
//     the time at which a loser's falling spend rate meets his target,
//     or the per-keyword auction count at which his drifting bid would
//     hit zero or his maximum —
//
// and those crossings are managed by trigger queues with generation
// tags, so the per-auction maintenance cost is proportional to the
// number of winners and due triggers, not to n.
//
// Threshold algorithm (Section IV-A). The per-slot top-(k+1) bidders
// by clickProb·bid are found by Fagin's threshold algorithm over two
// sorted sources — the static click-probability list for the slot and
// the merged (increment ∪ decrement ∪ constant) bid lists — again
// without touching most bidders. The k slot runs of one auction share
// their work: the merged bid order is walked once, into a prefix every
// run reads (it grows only when a run goes deeper than all earlier
// ones), each advertiser's gated bid is derived once into a per-auction
// cache, and the static click data (slot-major matrix and per-slot
// sorted order) is built once per instance and shared by its markets.
//
// Steady-state allocation discipline. Everything the per-auction path
// touches is persistent: the merged source (Reset once per auction),
// the bid prefix, the stamp arrays, the per-slot candidate list
// backing arrays, the score closure, and the trigger queues
// (index-based registrations, pre-grown). Group membership churn
// recycles treap nodes through a per-keyword shared pool (a bidder
// occupies exactly one of a keyword's three groups, so the pool never
// grows after construction), and winner determination runs in the
// caller's matching.Workspace. A steady-state auction therefore
// performs zero heap allocations — the guarantee
// TestTALUSteadyStateAllocs enforces.
type taluEngine struct {
	inst *workload.Instance
	acct *Accounting

	// gate is the owning market's participation predicate (budget gate
	// ∧ reserve cutoff). It is applied lazily, preserving Section IV's
	// sublinearity: instead of scanning all n advertisers per auction,
	// it is consulted once per auction for each advertiser the
	// threshold algorithm actually touches (gatedBid), and excluded
	// advertisers score 0 in both the selection and the
	// winner-determination score. Sorted accesses still surface the
	// stored bids, which keeps the TA threshold a valid upper bound
	// (the gate only lowers true scores), so the algorithm remains
	// correct and merely scans past excluded entries. Because the
	// explicit engine applies the same predicate by zeroing effective
	// bids while leaving bid *state* drifting, the two engines stay
	// exactly equivalent under budgets and reserves.
	gate *gate

	// groups[q][mode] holds the bidders whose behavior for keyword q
	// is mode (modeConst/modeInc/modeDec); member[q][i] records which
	// (keyword-major, so an auction's lookups read one array).
	groups [][]*logical.Group
	member [][]int8
	// genTime[i] is bumped on every recompute of bidder i,
	// invalidating his pending time trigger; genKw[i][q] is bumped
	// only when (i, q)'s group membership actually changes,
	// invalidating just that keyword's count trigger. Keeping the two
	// apart lets a recompute skip keywords whose behavior is
	// unchanged: their pending count triggers remain exactly correct,
	// because the critical count registered at join time assumed
	// uninterrupted membership — which is precisely what "unchanged"
	// means.
	genTime []int
	genKw   [][]int

	timeTr logical.Triggers   // keyed on auction time
	kwTr   []logical.Triggers // keyed on per-keyword auction counts
	count  []int              // per-keyword auction counters

	// cols is the slot-major click matrix (cols[j·n+i] =
	// ClickProb[i][j]) and order[j] slot j's advertisers by descending
	// click probability, ties by ascending id — the static sorted lists
	// the threshold algorithm reads, shared by every market over the
	// instance (see clickData).
	cols  []float64
	order [][]topk.Item
	// bidSource is the one merged increment ∪ decrement ∪ constant
	// view, re-seeded onto the auction keyword's groups once per
	// auction; prefix holds the part of its order the slot runs have
	// read so far, as (id, effective bid) pairs.
	bidSource *logical.MergedSource
	prefix    []topk.Item
	// bids caches each advertiser's gated effective bid for the
	// in-flight auction: bids[i] is valid iff its stamp equals
	// auctionGen. seen[i] == runGen marks advertiser i as met by the
	// current slot run. Both counters clear their array on wrap-around.
	bids       []cachedBid
	auctionGen uint32
	seen       []uint32
	runGen     uint32
	// lists[j] is slot j's top-(k+1) candidate list and stats[j] the
	// threshold-algorithm work that found it, both for the last
	// auction; the lists' backing arrays are reused.
	lists [][]topk.Item
	stats []ta.Stats
	// score is the winner-determination weight clickProb·bid for the
	// in-flight auction's keyword, read through the gated-bid cache —
	// built once.
	score func(i, j int) float64

	t    float64 // current auction time
	curQ int     // keyword of the auction being processed

	// recomputes counts strategy re-evaluations: the TALU analogue of
	// "programs run". The explicit engine runs all n programs every
	// auction; this engine touches a program only on wins and trigger
	// firings, and the counter makes that claim measurable.
	recomputes int64
}

// cachedBid is one entry of the per-auction bid cache: the
// advertiser's effective bid, or 0 when the gate excludes it.
type cachedBid struct {
	stamp uint32
	bid   float64
}

// newTALUEngine builds the §IV engine over the market's gate and the
// instance's shared click data (click.cols and click.order must be
// set). The lane and the per-auction cutoff are read through g, so
// Market.SetLane and RunWeighted need not tell the engine.
func newTALUEngine(inst *workload.Instance, acct *Accounting, g *gate, click clickData) *taluEngine {
	k := inst.Slots
	e := &taluEngine{
		inst:      inst,
		acct:      acct,
		gate:      g,
		groups:    make([][]*logical.Group, inst.Keywords),
		member:    make([][]int8, inst.Keywords),
		genTime:   make([]int, inst.N),
		genKw:     make([][]int, inst.N),
		kwTr:      make([]logical.Triggers, inst.Keywords),
		count:     make([]int, inst.Keywords),
		cols:      click.cols,
		order:     click.order,
		bidSource: &logical.MergedSource{},
		prefix:    make([]topk.Item, 0, inst.N),
		bids:      make([]cachedBid, inst.N),
		seen:      make([]uint32, inst.N),
		lists:     make([][]topk.Item, k),
		stats:     make([]ta.Stats, k),
		curQ:      -1,
	}
	var seed uint64 = 1
	for q := 0; q < inst.Keywords; q++ {
		// The three groups of a keyword share one treap-node pool:
		// every bidder is in exactly one of them, so membership churn
		// recycles nodes instead of allocating.
		e.groups[q] = logical.NewGroupSet(seed, inst.N, 3)
		e.member[q] = make([]int8, inst.N)
		seed += 3
	}
	for i := 0; i < inst.N; i++ {
		e.genKw[i] = make([]int, inst.Keywords)
	}

	// Pre-grow the trigger queues: a keyword queue holds at most one
	// fresh registration per bidder plus stale leftovers; the time
	// queue likewise. 2n bounds the pending depth in practice, keeping
	// Add off the allocator during serving.
	e.timeTr.Grow(2*inst.N + 64)
	for q := range e.kwTr {
		e.kwTr[q].Grow(2*inst.N + 64)
	}

	for j := range e.lists {
		e.lists[j] = make([]topk.Item, 0, k+1)
	}
	n := inst.N
	e.score = func(i, j int) float64 {
		return e.cols[j*n+i] * e.gatedBid(i)
	}

	// Initial placement: zero spend against a positive target means
	// every bidder starts underspending.
	for i := 0; i < inst.N; i++ {
		const statusUnder = -1
		for q := 0; q < inst.Keywords; q++ {
			bid := inst.InitialBid[i][q]
			mode := bidMode(inst, acct, i, q, bid, statusUnder)
			e.member[q][i] = int8(mode)
			e.groups[q][mode].Insert(i, float64(bid))
			e.registerCountTrigger(i, q, mode, bid, false)
		}
		// No time trigger: underspending is absorbing for losers.
	}
	return e
}

// bid returns advertiser i's current effective bid for keyword q.
func (e *taluEngine) bid(i, q int) int {
	eff, ok := e.groups[q][e.member[q][i]].Effective(i)
	if !ok {
		panic("engine: bidder missing from its group")
	}
	return int(math.Round(eff))
}

// FireTrigger implements logical.Handler: a due registration —
// whether from the time queue or a keyword count queue — re-derives
// the bidder's state against the in-flight auction's keyword. The
// handler indirection replaces the closure the queues used to
// capture per registration.
func (e *taluEngine) FireTrigger(bidder, _ int) {
	e.recompute(bidder, e.curQ)
}

// registerCountTrigger schedules the recompute for the auction count
// at which (i, q)'s drifting bid hits its bound. preAdjust reports
// whether the current auction's adjustment for keyword q has not yet
// been applied (trigger-phase recomputes of the current keyword), in
// which case the pending adjustment counts toward the drift.
func (e *taluEngine) registerCountTrigger(i, q, mode, bid int, preAdjust bool) {
	var remaining int
	switch mode {
	case modeInc:
		remaining = e.inst.Value[i][q] - bid
	case modeDec:
		remaining = bid
	default:
		return
	}
	offset := 1
	if preAdjust {
		offset = 0
	}
	critical := float64(e.count[q] + remaining + offset)
	e.kwTr[q].Add(critical, &e.genKw[i][q], i, q)
}

// recompute re-derives bidder i's group memberships and triggers from
// current state. preAdjustKw names the keyword (if any) whose
// adjustment for the in-flight auction is still pending; −1 when the
// recompute happens after the auction's adjustments (winner updates).
func (e *taluEngine) recompute(i int, preAdjustKw int) {
	e.recomputes++
	status := spendStatus(e.acct.SpentTotal[i], e.t, e.inst.Target[i])
	for q := 0; q < e.inst.Keywords; q++ {
		old := int(e.member[q][i])
		eff, ok := e.groups[q][old].Effective(i)
		if !ok {
			panic("engine: bidder missing from its group during recompute")
		}
		bid := int(math.Round(eff))
		mode := bidMode(e.inst, e.acct, i, q, bid, status)
		if mode == old {
			// Behavior unchanged: the group keeps drifting this bid
			// exactly as before, and any pending count trigger's
			// critical value remains correct. Nothing to do.
			continue
		}
		e.genKw[i][q]++
		e.groups[q][old].Remove(i)
		e.member[q][i] = int8(mode)
		e.groups[q][mode].Insert(i, float64(bid))
		e.registerCountTrigger(i, q, mode, bid, q == preAdjustKw)
	}
	e.genTime[i]++
	switch status {
	case 1:
		// Overspending: a loser's rate S/t falls to the target exactly
		// at t* = S/target; recompute then.
		tstar := e.acct.SpentTotal[i] / float64(e.inst.Target[i])
		e.timeTr.Add(tstar, &e.genTime[i], i, -1)
	case 0:
		// Exactly on target now; strictly under at the next tick.
		e.timeTr.Add(e.t+1, &e.genTime[i], i, -1)
	}
}

// prepare advances the engine for one auction on keyword q at time t,
// fills advOf (len = slots) with the optimal slot assignment computed
// in ws, and returns the per-slot top-(k+1) candidate lists. The
// lists are owned by the engine and valid until the next prepare.
func (e *taluEngine) prepare(q int, t float64, ws *matching.Workspace, advOf []int) [][]topk.Item {
	e.t = t
	e.curQ = q
	e.count[q]++

	// Fire due triggers: these recomputes see the pre-update state of
	// this auction, exactly as the explicit engine would.
	e.timeTr.Advance(t, e)
	e.kwTr[q].Advance(float64(e.count[q]), e)

	// Logical updates: every incrementing bidder +1, every
	// decrementing bidder −1, in O(1) each.
	e.groups[q][modeInc].Adjust(1)
	e.groups[q][modeDec].Adjust(-1)

	// Threshold algorithm per slot over one walk of the merged bid
	// order, then winner determination through the same bid cache.
	e.bidSource.Reset(e.groups[q])
	e.prefix = e.prefix[:0]
	e.auctionGen = nextStamp(e.auctionGen, e.bids)
	k := e.inst.Slots
	for j := 0; j < k; j++ {
		e.lists[j], e.stats[j] = e.topSlot(j, k+1, e.lists[j])
	}

	ws.AssignCandidatesInto(e.score, e.lists, advOf)
	return e.lists
}

// afterAuction applies the winners' state changes: every advertiser
// charged for a click gets a full recompute (his spending status and
// ROI statistics moved).
func (e *taluEngine) afterAuction(t float64, clickedWinners []int) {
	e.t = t
	for _, i := range clickedWinners {
		e.recompute(i, -1)
	}
	e.curQ = -1
}

// gatedBid returns advertiser i's effective bid for the in-flight
// auction, or 0 when the gate excludes it — derived (and the gate
// consulted) on the first use per auction, read from the cache after.
// Effective bids are whole numbers (integer bids moved by ±1
// adjustments), so this is exactly the rounded bid the explicit
// engine gates and scores.
func (e *taluEngine) gatedBid(i int) float64 {
	c := &e.bids[i]
	if c.stamp == e.auctionGen {
		return c.bid
	}
	b, ok := e.groups[e.curQ][e.member[e.curQ][i]].Effective(i)
	if !ok {
		panic("engine: bidder missing from its group")
	}
	if !e.gate.admits(i, b) {
		b = 0
	}
	*c = cachedBid{stamp: e.auctionGen, bid: b}
	return b
}

// bidAt returns entry r of the auction's merged bid order, walking the
// merged source only when no earlier slot run has read that deep;
// ok is false past the end of the order.
func (e *taluEngine) bidAt(r int) (topk.Item, bool) {
	if r == len(e.prefix) {
		id, v, ok := e.bidSource.Next()
		if !ok {
			return topk.Item{}, false
		}
		e.prefix = append(e.prefix, topk.Item{ID: id, Score: v})
	}
	return e.prefix[r], true
}

// topSlot is ta.Runner.TopKInto specialised to slot j's two sources:
// the click order and the shared bid prefix, scored click·bid. Round r
// reads entry r of the click order, then entry r of the bid prefix
// (see meet). After each round the run stops when it holds
// depth items whose minimum reaches the frontier product — the same
// access order, first-seen rule and stop rule as the runner, so the
// list and the stats equal its. dst's backing array is reused.
func (e *taluEngine) topSlot(j, depth int, dst []topk.Item) ([]topk.Item, ta.Stats) {
	var st ta.Stats
	n := e.inst.N
	col := e.cols[j*n : (j+1)*n]
	order := e.order[j]
	e.runGen = nextStamp(e.runGen, e.seen)
	gen := e.runGen
	run := dst[:0]
	// The frontiers stay 0 until a list's first sorted access and keep
	// their last value once it is exhausted, as the runner's do.
	var fClick, fBid float64
	clickDone, bidDone := false, false
	for r := 0; ; r++ {
		progressed := false
		if !clickDone {
			if r < len(order) {
				it := order[r]
				st.SortedAccesses++
				progressed = true
				fClick = it.Score
				run = e.meet(run, depth, col, it.ID, gen, &st)
			} else {
				clickDone = true
			}
		}
		if !bidDone {
			if it, ok := e.bidAt(r); ok {
				st.SortedAccesses++
				progressed = true
				fBid = it.Score
				run = e.meet(run, depth, col, it.ID, gen, &st)
			} else {
				bidDone = true
			}
		}
		if !progressed || len(run) == depth && run[depth-1].Score >= fClick*fBid {
			return run, st
		}
	}
}

// meet handles a sorted access to advertiser id in the slot run
// stamped gen: the first time the run meets id, it is scored from the
// slot's click column and the gated-bid cache (two random accesses)
// and offered to the run.
func (e *taluEngine) meet(run []topk.Item, depth int, col []float64, id int, gen uint32, st *ta.Stats) []topk.Item {
	if e.seen[id] == gen {
		return run
	}
	e.seen[id] = gen
	st.Seen++
	st.RandomAccesses += 2
	return offerRun(run, depth, topk.Item{ID: id, Score: col[id] * e.gatedBid(id)})
}

// offerRun offers it to run, a list of at most depth items sorted by
// descending score, ties by ascending id: it enters a full run iff it
// precedes the minimum in that order, which then drops out. This is
// topk.Heap.Offer's rule for ids arriving in any order — the
// threshold algorithm meets them out of order, so a tie with the
// minimum is decided by id, not by arrival.
func offerRun(run []topk.Item, depth int, it topk.Item) []topk.Item {
	p := len(run)
	if p == depth {
		if !precedes(it, run[p-1]) {
			return run
		}
		p--
	} else {
		run = run[:p+1]
	}
	for p > 0 && precedes(it, run[p-1]) {
		run[p] = run[p-1]
		p--
	}
	run[p] = it
	return run
}

// precedes is the candidate-list order: higher score first, ties by
// ascending id.
func precedes(a, b topk.Item) bool {
	return a.Score > b.Score || a.Score == b.Score && a.ID < b.ID
}

// nextStamp advances a generation stamp; on wrap-around to 0 it clears
// the stamped array and restarts at 1, so no stale mark can alias a
// future generation.
func nextStamp[T any](gen uint32, marks []T) uint32 {
	gen++
	if gen == 0 {
		clear(marks)
		gen = 1
	}
	return gen
}
