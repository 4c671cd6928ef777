package engine

import (
	"math"

	"repro/internal/logical"
	"repro/internal/matching"
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
// Top bidders by bid level (Section IV-A). The paper finds each slot's
// top-(k+1) bidders by clickProb·bid with the threshold algorithm over
// two sorted lists the provider maintains: the slot's click
// probabilities and the merged (increment ∪ decrement ∪ constant) bid
// lists. Bids here are small integers and a slot's click probabilities
// lie in one narrow band, so that walk reads deep into the top bid
// level. The engine instead keeps the provider's lists bucketed by bid
// level (levelBuckets): per slot and group, one bucket per stored bid
// level, in click order. A slot run walks the levels in descending
// effective bid, merging the three groups' buckets of a level in click
// order. Within a level it stops at the first bidder scoring strictly
// below the full run's minimum; below a level whose bid times the
// slot's largest click probability is strictly below that minimum, it
// stops altogether. Equal scores go on, so ties resolve by id exactly
// as in a full sort: each list is the exact top-(k+1) over all n
// bidders. Each advertiser's gated bid is derived once per auction
// into a cache the slot runs and winner determination share, and the
// static click data (slot-major matrix, per-slot sorted order and
// click ranks) is built once per instance and shared by its markets.
//
// Steady-state allocation discipline. Everything the per-auction path
// touches is persistent: the level buckets (built on a keyword's first
// auction; a bucket that outgrows its room moves within preallocated
// arenas), the bid cache, the per-slot candidate list backing arrays,
// the score closure, and the trigger queues (index-based
// registrations, pre-grown). Group membership churn recycles treap
// nodes through a per-keyword shared pool (a bidder occupies exactly
// one of a keyword's three groups, so the pool never grows after
// construction), and winner determination runs in the caller's
// matching.Workspace. A steady-state auction therefore performs zero
// heap allocations — the guarantee TestTALUSteadyStateAllocs enforces.
type taluEngine struct {
	inst *workload.Instance
	acct *Accounting

	// gate is the owning market's participation predicate (budget gate
	// ∧ reserve cutoff). It is applied lazily, preserving Section IV's
	// sublinearity: instead of scanning all n advertisers per auction,
	// it is consulted once per auction for each advertiser a slot run
	// actually touches (gatedBid), and excluded advertisers score 0 in
	// both the selection and the winner-determination score. The level
	// walk's stop rules read the ungated bid, an upper bound on the
	// gated score, so they stay exact and the walk merely passes over
	// excluded entries. Because the explicit engine applies the same
	// predicate by zeroing effective bids while leaving bid *state*
	// drifting, the two engines stay exactly equivalent under budgets
	// and reserves.
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

	// cols, order and rank are the instance's click data, shared by
	// every market over it (see clickData): the bucket build reads
	// order, bucket upkeep rank, and the slot runs order[j] by rank.
	cols  []float64
	order [][]topk.Item
	rank  []int32
	// levels[q] is keyword q's bid-level buckets, nil until the first
	// auction on q: an engine market serves one keyword and holds one
	// set.
	levels []*levelBuckets
	// bids caches each advertiser's gated effective bid for the
	// in-flight auction: bids[i] is valid iff its stamp equals
	// auctionGen, which clears the array on wrap-around.
	bids       []cachedBid
	auctionGen uint32
	// lists[j] is slot j's top-(k+1) candidate list and walks[j] the
	// level walk's work that found it, both for the last auction; the
	// lists' backing arrays are reused.
	lists [][]topk.Item
	walks []walkStats
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

// walkStats is one slot run's work: the bucket entries it read and
// the bid levels it read them from.
type walkStats struct {
	Touched, Levels int
}

// newTALUEngine builds the §IV engine over the market's gate and the
// instance's shared click data (click.cols, click.order and
// click.rank must be set). The lane and the per-auction cutoff are read through g, so
// Market.SetLane and RunWeighted need not tell the engine.
func newTALUEngine(inst *workload.Instance, acct *Accounting, g *gate, click clickData) *taluEngine {
	k := inst.Slots
	e := &taluEngine{
		inst:    inst,
		acct:    acct,
		gate:    g,
		groups:  make([][]*logical.Group, inst.Keywords),
		member:  make([][]int8, inst.Keywords),
		genTime: make([]int, inst.N),
		genKw:   make([][]int, inst.N),
		kwTr:    make([]logical.Triggers, inst.Keywords),
		count:   make([]int, inst.Keywords),
		cols:    click.cols,
		order:   click.order,
		rank:    click.rank,
		levels:  make([]*levelBuckets, inst.Keywords),
		bids:    make([]cachedBid, inst.N),
		lists:   make([][]topk.Item, k),
		walks:   make([]walkStats, k),
		curQ:    -1,
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
	// Winner determination scores only list members, whose gated bids
	// the slot runs cached.
	e.score = func(i, j int) float64 {
		return e.cols[j*n+i] * e.bids[i].bid
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
		if lb := e.levels[q]; lb != nil {
			lb.markStale(i)
		}
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

	// One level walk per slot, then winner determination through the
	// bid cache the walks filled.
	lb := e.levels[q]
	if lb == nil {
		lb = newLevelBuckets(e.inst, q, e.groups[q], e.member[q], e.order)
		e.levels[q] = lb
	} else {
		lb.sync(e.groups[q], e.member[q], e.order, e.rank)
	}
	e.auctionGen = nextStamp(e.auctionGen, e.bids)
	shift, top := lb.view(e.groups[q])
	k := e.inst.Slots
	for j := 0; j < k; j++ {
		e.lists[j], e.walks[j] = e.walkSlot(lb, j, k+1, top, shift, e.lists[j])
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

// gatedBid returns bid, advertiser i's effective bid in the in-flight
// auction, or 0 when the gate excludes it — the gate is consulted on
// the first use per auction and the result cached for the rest.
// Effective bids are whole numbers (integer bids moved by ±1
// adjustments), so this is exactly the rounded bid the explicit engine
// gates and scores.
func (e *taluEngine) gatedBid(i int, bid float64) float64 {
	c := &e.bids[i]
	if c.stamp != e.auctionGen {
		if !e.gate.admits(i, bid) {
			bid = 0
		}
		*c = cachedBid{stamp: e.auctionGen, bid: bid}
	}
	return c.bid
}

// walkSlot fills dst (its backing array reused) with slot j's top-depth
// advertisers by click·gated bid, in candidate-list order, walking
// keyword buckets lb from level top down; shift maps levels to ring
// slots. See taluEngine's Section IV-A paragraph for the stop rules.
func (e *taluEngine) walkSlot(lb *levelBuckets, j, depth, top int, shift [3]int, dst []topk.Item) ([]topk.Item, walkStats) {
	var st walkStats
	run := dst[:0]
	if top < 0 {
		return run, st
	}
	order := e.order[j]
	maxClick := order[0].Score
	for level := top; level >= 0; level-- {
		bid := float64(level)
		if len(run) == depth && bid*maxClick < run[depth-1].Score {
			break
		}
		var heads [3][]int32
		for g := range heads {
			heads[g] = lb.slot(j, lb.at(g, level, shift))
		}
		touched := 0
		for {
			// The level's next member in click order: the least rank.
			best := -1
			for g, h := range heads {
				if len(h) > 0 && (best < 0 || h[0] < heads[best][0]) {
					best = g
				}
			}
			if best < 0 {
				break
			}
			it := order[heads[best][0]]
			heads[best] = heads[best][1:]
			touched++
			if len(run) == depth && it.Score*bid < run[depth-1].Score {
				break
			}
			run = offerRun(run, depth, topk.Item{ID: it.ID, Score: it.Score * e.gatedBid(it.ID, bid)})
		}
		if touched > 0 {
			st.Touched += touched
			st.Levels++
		}
	}
	return run, st
}

// offerRun offers it to run, a list of at most depth items sorted by
// descending score, ties by ascending id: it enters a full run iff it
// precedes the minimum in that order, which then drops out. This is
// topk.Heap.Offer's rule for ids arriving in any order — the level
// walk meets them out of id order, so a tie with the minimum is
// decided by id, not by arrival.
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
