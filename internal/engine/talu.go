package engine

import (
	"math"
	"sort"

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
// without touching most bidders.
//
// Steady-state allocation discipline. Everything the per-auction path
// touches is persistent: the per-slot SliceSources and their Get
// closures, the one reusable MergedSource (Reset per slot instead of
// rebuilt), the runner's heap and scratch, the per-slot candidate
// list backing arrays, the aggregation and score closures, and the
// trigger queues (index-based registrations, pre-grown). Group
// membership churn recycles treap nodes through a per-keyword shared
// pool (a bidder occupies exactly one of a keyword's three groups, so
// the pool never grows after construction), and winner determination
// runs in the caller's matching.Workspace. A steady-state auction
// therefore performs zero heap allocations — the guarantee
// TestTALUSteadyStateAllocs enforces.
type taluEngine struct {
	inst *workload.Instance
	acct *Accounting

	// gate is the owning market's participation predicate (budget gate
	// ∧ reserve cutoff). It is applied lazily, preserving Section IV's
	// sublinearity: instead of scanning all n advertisers per auction,
	// it is consulted only for advertisers the threshold algorithm
	// actually touches — the merged bid source's random accesses
	// return 0 for excluded advertisers (gateSource below), and
	// the winner-determination score does the same. Sorted accesses
	// still surface the stored bids, which keeps the TA threshold a
	// valid upper bound (the gate only lowers true scores), so the
	// algorithm remains correct and merely scans past excluded
	// entries. Because the explicit engine applies the same predicate
	// by zeroing effective bids while leaving bid *state* drifting, the
	// two engines stay exactly equivalent under budgets and reserves.
	gate *gate

	// groups[q][mode] holds the bidders whose behavior for keyword q
	// is mode (modeConst/modeInc/modeDec); member[i][q] records which.
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

	// wSorted[j] lists advertisers by descending click probability in
	// slot j — the static sorted lists the threshold algorithm reads.
	// wSources[j] adapts the list (plus its invariant random-access
	// closure) as a ta.Source, reset per auction rather than rebuilt.
	wSorted  [][]topk.Item
	wSources []*ta.SliceSource
	// bidSource is the one merged increment ∪ decrement ∪ constant
	// view, re-seeded onto the auction keyword's groups before each
	// slot's threshold-algorithm run.
	bidSource *logical.MergedSource
	// srcs[j] is the invariant source pair {wSources[j], bidSource}
	// handed to the runner for slot j.
	srcs [][]ta.Source
	// lists[j] is slot j's top-(k+1) candidate list, workspace-style
	// reused backing arrays filled by TopKInto.
	lists [][]topk.Item
	// product aggregates (clickProb, bid) — invariant, built once.
	product func(v []float64) float64
	// score is the winner-determination weight clickProb·bid for the
	// in-flight auction's keyword (read through curQ) — built once.
	score func(i, j int) float64
	// runner is the reusable threshold-algorithm executor.
	runner *ta.Runner

	t    float64 // current auction time
	curQ int     // keyword of the auction being processed

	// recomputes counts strategy re-evaluations: the TALU analogue of
	// "programs run". The explicit engine runs all n programs every
	// auction; this engine touches a program only on wins and trigger
	// firings, and the counter makes that claim measurable.
	recomputes int64
}

// newTALUEngine builds the §IV engine over the market's gate. gated
// bakes the gate-consulting bid-source wrapper into srcs (the market
// has a budget lane or a reserve); the lane and the per-auction cutoff
// are read through g, so Market.SetLane and RunWeighted need not tell
// the engine.
func newTALUEngine(inst *workload.Instance, acct *Accounting, g *gate, gated bool) *taluEngine {
	e := &taluEngine{
		inst:    inst,
		acct:    acct,
		gate:    g,
		groups:  make([][]*logical.Group, inst.Keywords),
		member:  make([][]int8, inst.N),
		genTime: make([]int, inst.N),
		genKw:   make([][]int, inst.N),
		kwTr:    make([]logical.Triggers, inst.Keywords),
		count:   make([]int, inst.Keywords),
		runner:  ta.NewRunner(inst.N),
		curQ:    -1,
	}
	var seed uint64 = 1
	for q := 0; q < inst.Keywords; q++ {
		// The three groups of a keyword share one treap-node pool:
		// every bidder is in exactly one of them, so membership churn
		// recycles nodes instead of allocating.
		e.groups[q] = logical.NewGroupSet(seed, inst.N, 3)
		seed += 3
	}
	for i := 0; i < inst.N; i++ {
		e.member[i] = make([]int8, inst.Keywords)
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

	// Static per-slot click-probability lists and their sources.
	e.wSorted = make([][]topk.Item, inst.Slots)
	e.wSources = make([]*ta.SliceSource, inst.Slots)
	e.bidSource = &logical.MergedSource{}
	bidSrc := ta.Source(e.bidSource)
	if gated {
		bidSrc = &gateSource{inner: e.bidSource, gate: g}
	}
	e.srcs = make([][]ta.Source, inst.Slots)
	e.lists = make([][]topk.Item, inst.Slots)
	for j := 0; j < inst.Slots; j++ {
		items := make([]topk.Item, inst.N)
		for i := 0; i < inst.N; i++ {
			items[i] = topk.Item{ID: i, Score: inst.ClickProb[i][j]}
		}
		sort.Slice(items, func(a, b int) bool {
			if items[a].Score != items[b].Score {
				return items[a].Score > items[b].Score
			}
			return items[a].ID < items[b].ID
		})
		e.wSorted[j] = items
		j := j
		e.wSources[j] = &ta.SliceSource{
			Items: items,
			Get:   func(id int) float64 { return inst.ClickProb[id][j] },
		}
		e.srcs[j] = []ta.Source{e.wSources[j], bidSrc}
		e.lists[j] = make([]topk.Item, 0, inst.Slots+1)
	}
	e.product = func(v []float64) float64 { return v[0] * v[1] }
	e.score = func(i, j int) float64 {
		b := float64(e.bid(i, e.curQ))
		if !e.gate.admits(i, b) {
			return 0
		}
		return e.inst.ClickProb[i][j] * b
	}

	// Initial placement: zero spend against a positive target means
	// every bidder starts underspending.
	for i := 0; i < inst.N; i++ {
		const statusUnder = -1
		for q := 0; q < inst.Keywords; q++ {
			bid := inst.InitialBid[i][q]
			mode := bidMode(inst, acct, i, q, bid, statusUnder)
			e.member[i][q] = int8(mode)
			e.groups[q][mode].Insert(i, float64(bid))
			e.registerCountTrigger(i, q, mode, bid, false)
		}
		// No time trigger: underspending is absorbing for losers.
	}
	return e
}

// bid returns advertiser i's current effective bid for keyword q.
func (e *taluEngine) bid(i, q int) int {
	eff, ok := e.groups[q][e.member[i][q]].Effective(i)
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
		old := int(e.member[i][q])
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
		e.member[i][q] = int8(mode)
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

	// Threshold algorithm per slot: the static click-probability
	// source rewinds, the merged bid source re-seeds onto this
	// keyword's groups, and the runner fills the slot's reused list.
	k := e.inst.Slots
	for j := 0; j < k; j++ {
		e.wSources[j].Reset()
		e.bidSource.Reset(e.groups[q])
		e.lists[j], _ = e.runner.TopKInto(k+1, e.srcs[j], e.product, e.lists[j][:0])
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

// gateSource wraps the merged bid source with the market's gate:
// random accesses for excluded advertisers (over budget, paced out, or
// bidding below the reserve cutoff) return 0, so their aggregate score
// is 0 and winner determination never assigns them. Sorted accesses
// pass through unmodified — the threshold is computed from stored
// bids, which over-approximates excluded advertisers' true scores and
// therefore keeps the TA stopping rule sound: an unseen object's true
// score never exceeds the frontier product. The wrapper is built once
// per market; a consult is an array read and a compare, so the hot
// path stays allocation-free.
type gateSource struct {
	inner ta.Source
	gate  *gate
}

func (g *gateSource) Next() (int, float64, bool) { return g.inner.Next() }

func (g *gateSource) Lookup(id int) float64 {
	v := g.inner.Lookup(id)
	if !g.gate.admits(id, v) {
		return 0
	}
	return v
}
