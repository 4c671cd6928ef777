package engine

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/internal/budget"
	"repro/internal/lp"
	"repro/internal/matching"
	"repro/internal/obs"
	"repro/internal/topk"
	"repro/internal/workload"
)

// Market is one running auction market: an instance, the accounting
// state, and the bid engine for the chosen method. It is the
// sequential unit of the serving engine — each keyword shard drives
// one or more Markets — and, driven from a single goroutine, the
// sequential Section V simulation world (ssa.SimWorld). Distinct
// Markets over the same instance, query stream, and click seed evolve
// identically (up to winner-determination ties), which is how the four
// methods are compared on equal footing. A Market is not safe for concurrent use;
// concurrency lives one level up, in Engine.
type Market struct {
	Inst   *workload.Instance
	Method Method

	t       int // auctions processed
	acct    *Accounting
	rng     *rand.Rand // user click simulation
	pricing Pricing

	// gate decides who participates in the in-flight auction; its lane
	// is also where every click charge is reported, with exactly the
	// values added to the accounting. A nil lane and a zero reserve
	// skip every budget- and reserve-related branch below, and the
	// market behaves byte-identically to one without either.
	gate gate

	// reserve is the per-click reserve price (0 = off): advertisers
	// whose squash-weighted bid w·bid falls below it sit out the
	// auction in every method (gate.cut = reserve/w, set once per
	// auction), and every charged click pays at least it. curRel/curW
	// carry the in-flight auction's broad-match relevance and squashed
	// pricing weight (both 1 for exact routing).
	reserve float64
	curRel  float64
	curW    float64

	ex    *explicitEngine
	talu  *taluEngine
	heavy *heavyEngine

	// LPStats accumulates simplex iterations (method LP only).
	LPStats int

	// Steady-state scratch for the allocation-free RH hot path: the
	// reduced-matching workspace, the per-keyword float bid vector, and
	// the reusable outcome. weightFn is built once (capturing bidf) so
	// per-auction winner determination creates no closures.
	ws       *matching.Workspace
	bidf     []float64
	weightFn func(i, j int) float64
	out      Outcome

	// click is the instance's static click data the RH and RHTALU
	// selection read (zero under every other method).
	click clickData

	// MethodRH's floor seeds (selectRH): seeds[q] holds the ids of
	// keyword q's last k per-slot lists, slot-major k × (k+1), nil
	// before the keyword's first auction and empty after one whose
	// lists came up short. floor and surv are the in-flight auction's
	// per-slot score floors and survivor ids; survivors counts the
	// bidders the last selection walked (n on the full path).
	seeds     [][]int32
	floor     []float64
	surv      []int32
	survivors int

	// GSP pricing scratch: assignedMark[i] == assignedStamp iff
	// advertiser i holds a slot in the current auction (the stamp
	// avoids clearing an O(n) array per auction), and clickedWinners
	// collects this auction's charged advertisers for the TALU
	// after-auction recomputes.
	assignedMark   []int
	assignedStamp  int
	clickedWinners []int

	// Per-auction trace sampling (nil tracer = off): sampled auctions
	// stamp solve/price/charge boundaries into the shared ring.
	tracer     *obs.Tracer
	traceKw    int32
	traceShard int32

	// VCG counterfactual scratch (PricingVCG only): a dedicated
	// workspace so the per-winner reduced solves never disturb the main
	// solve's candidate lists, an advOf sink, the skipped-advertiser
	// cursor read by vcgWeightFn (built once — no per-solve closures),
	// and the reused LP sub-matrix.
	vcgWS       *matching.Workspace
	vcgAdvOf    []int
	vcgSkip     int
	vcgWeightFn func(r, j int) float64
	vcgFlat     []float64
	vcgRows     [][]float64
}

// gate is a market's participation predicate — budget gate ∧ reserve
// cutoff — shared by the explicit bid vector (applyGate) and the TALU
// path (its per-auction gated-bid cache), so the two stay exactly
// equivalent under budgets and reserves. An excluded advertiser
// participates with a bid of zero this auction — the serving-side
// analogue of the sqlmini budget program's "UPDATE Keywords SET bid =
// 0" — while its bid *state* keeps evolving.
type gate struct {
	// lane is the market's slice of the cross-keyword budget ledger;
	// nil disables budget enforcement.
	lane *budget.Lane
	// cut is the in-flight auction's raw-bid cutoff reserve/w (the
	// squash-weighted bid w·bid must reach the reserve); 0 = off.
	cut float64
}

// admits reports whether advertiser i, bidding bid, takes part in the
// in-flight auction. The lane's decision is cached per auction, so a
// consult is an array read.
func (g *gate) admits(i int, bid float64) bool {
	if g.lane != nil && !g.lane.Allowed(i) {
		return false
	}
	return g.cut == 0 || bid >= g.cut
}

// MarketOpts bundles every market-construction knob; the zero value
// of each field is its default (MethodLP, GSP pricing, no budget
// lane, no reserve, no tracing).
type MarketOpts struct {
	// Method selects the winner-determination pipeline.
	Method Method
	// Pricing selects the payment rule.
	Pricing Pricing
	// ClickSeed seeds the simulated user clicks.
	ClickSeed int64
	// Lane is the market's slice of the cross-keyword budget ledger;
	// nil disables budget enforcement.
	Lane *budget.Lane
	// HeavyParallelism is the worker count of the heavyweight pattern
	// enumeration (MethodHeavy only): 0 means GOMAXPROCS, 1 fully
	// sequential, and any setting is capped per auction by the 2^k
	// pattern count. Outcomes are byte-identical at every setting —
	// this is a pure performance knob, like Config.Shards one level up.
	HeavyParallelism int
	// Reserve is the per-click reserve price: advertisers bidding
	// below it (below Reserve/weight under a broad-match squash
	// weight) are excluded from winner determination in every method,
	// and every charged click pays at least Reserve. 0 — the zero
	// value — disables reserve pricing byte-identically.
	Reserve float64
	// Tracer, when non-nil, samples this market's auctions into the
	// per-auction trace ring (obs.Tracer's deterministic 1-in-N);
	// TraceKeyword/TraceShard identify the market in the events. Nil
	// disables tracing at the cost of one nil check per auction.
	Tracer       *obs.Tracer
	TraceKeyword int
	TraceShard   int

	// click is the instance's static click data (see clickData), built
	// once by the engine and shared by the markets it creates over one
	// instance. The zero value makes the market build its own.
	click clickData
}

// clickData is an instance's static click-probability layout, built
// once per instance and shared read-only by every market over it. cols
// lays inst.ClickProb out slot-major, cols[j·n+i] = ClickProb[i][j],
// so that a slot's scores are one contiguous column (MethodRH's
// matching.Workspace.SelectDense and MethodRHTALU's slot scores);
// order[j] lists slot j's advertisers by descending click probability,
// ties by ascending id — the order MethodRHTALU's bid-level buckets
// keep — and rank[j·n+i] is advertiser i's position in order[j].
// cmax[j] is slot j's largest click probability (MethodRH's survivor
// bound). Methods that read none of them get the zero value.
type clickData struct {
	cols  []float64
	cmax  []float64
	order [][]topk.Item
	rank  []int32
}

func newClickData(inst *workload.Instance, method Method) clickData {
	if method != MethodRH && method != MethodRHTALU {
		return clickData{}
	}
	n := inst.N
	cols := make([]float64, inst.Slots*n)
	for i, row := range inst.ClickProb {
		for j, p := range row[:inst.Slots] {
			cols[j*n+i] = p
		}
	}
	if method == MethodRH {
		cmax := make([]float64, inst.Slots)
		for j := range cmax {
			cmax[j] = slices.Max(cols[j*n : (j+1)*n])
		}
		return clickData{cols: cols, cmax: cmax}
	}
	order := make([][]topk.Item, inst.Slots)
	rank := make([]int32, inst.Slots*n)
	for j := range order {
		items := make([]topk.Item, n)
		for i, p := range cols[j*n : (j+1)*n] {
			items[i] = topk.Item{ID: i, Score: p}
		}
		slices.SortFunc(items, func(a, b topk.Item) int {
			if c := cmp.Compare(b.Score, a.Score); c != 0 {
				return c
			}
			return a.ID - b.ID
		})
		order[j] = items
		for r, it := range items {
			rank[j*n+it.ID] = int32(r)
		}
	}
	return clickData{cols: cols, order: order, rank: rank}
}

// NewMarketOpts builds a fresh market. Two markets with equal
// instances, options and click seeds see identical users.
func NewMarketOpts(inst *workload.Instance, o MarketOpts) *Market {
	method, pricing := o.Method, o.Pricing
	m := &Market{
		Inst:       inst,
		Method:     method,
		pricing:    pricing,
		acct:       newAccounting(inst.N, inst.Keywords),
		rng:        rand.New(rand.NewSource(o.ClickSeed)),
		gate:       gate{lane: o.Lane},
		reserve:    o.Reserve,
		curRel:     1,
		curW:       1,
		tracer:     o.Tracer,
		traceKw:    int32(o.TraceKeyword),
		traceShard: int32(o.TraceShard),
	}
	m.click = o.click
	if m.click.cols == nil {
		m.click = newClickData(inst, method)
	}
	if method == MethodRHTALU {
		m.talu = newTALUEngine(inst, m.acct, &m.gate, m.click)
	} else {
		m.ex = newExplicitEngine(inst)
	}
	m.ws = matching.NewWorkspace()
	m.bidf = make([]float64, inst.N)
	if method == MethodRH {
		m.seeds = make([][]int32, inst.Keywords)
		m.floor = make([]float64, inst.Slots)
		m.surv = make([]int32, 0, inst.N)
	}
	m.weightFn = func(i, j int) float64 {
		return m.Inst.ClickProb[i][j] * m.bidf[i]
	}
	if method == MethodHeavy {
		m.heavy = newHeavyEngine(inst, m, o.HeavyParallelism)
	}
	if pricing == PricingVCG {
		m.vcgWS = matching.NewWorkspace()
		m.vcgAdvOf = make([]int, inst.Slots)
		m.vcgWeightFn = func(r, j int) float64 {
			i := r
			if i >= m.vcgSkip {
				i++
			}
			return m.Inst.ClickProb[i][j] * m.bidf[i]
		}
	}
	k := inst.Slots
	m.out = Outcome{
		AdvOf:         make([]int, k),
		PricePerClick: make([]float64, k),
		Clicked:       make([]bool, k),
	}
	m.assignedMark = make([]int, inst.N)
	return m
}

// Pricing reports the market's payment rule.
func (m *Market) Pricing() Pricing { return m.pricing }

// applyGate zeroes the effective bid of every advertiser the gate
// excludes. Zero bids skip the consult: they cannot win regardless.
func (m *Market) applyGate() {
	if m.gate.lane == nil && m.gate.cut == 0 {
		return
	}
	for i, b := range m.bidf {
		if b != 0 && !m.gate.admits(i, b) {
			m.bidf[i] = 0
		}
	}
}

// clickProbOf is the click probability the pricing and user-simulation
// stages see: the instance matrix, conditioned on the realized
// heavyweight pattern under MethodHeavy.
func (m *Market) clickProbOf(i, j int) float64 {
	if m.heavy != nil {
		return m.heavy.model.ClickProb(i, j, m.heavy.pattern)
	}
	return m.Inst.ClickProb[i][j]
}

// Bid returns advertiser i's current bid for keyword q — used by the
// engine-equivalence tests.
func (m *Market) Bid(i, q int) int {
	if m.talu != nil {
		return m.talu.bid(i, q)
	}
	return m.ex.bid[i][q]
}

// Accounting exposes the provider-maintained state (read-only use).
func (m *Market) Accounting() *Accounting { return m.acct }

// BudgetLane exposes the market's ledger lane (nil when budget
// enforcement is off) — inspection and test use.
func (m *Market) BudgetLane() *budget.Lane { return m.gate.lane }

// FlushBudget publishes the market's unpublished spend into the
// ledger snapshot. Must run on the goroutine that owns the market.
// No-op without a lane.
func (m *Market) FlushBudget() {
	if m.gate.lane != nil {
		m.gate.lane.Publish()
	}
}

// SetLane swaps the market's budget lane — the budget-reset fence.
// The old lane's tail is published first (its ledger's settlement
// reads stay exact), then every budget consumer in the market (the
// gate, shared with the TALU path, and the charge path) switches to
// the new lane. The market's own state — bids, accounting, ROI, click RNG —
// is untouched: a reset re-admits exhausted advertisers without
// rewinding anyone's trajectory. Must run on the owning goroutine
// between auctions. Toggling enforcement on or off is not supported:
// both lanes must be non-nil, or both nil.
func (m *Market) SetLane(lane *budget.Lane) {
	if (m.gate.lane == nil) != (lane == nil) {
		panic("engine: SetLane cannot toggle budget enforcement on a live market")
	}
	m.FlushBudget()
	m.gate.lane = lane
}

// Close releases the market's background resources — today that is
// the heavyweight determiner's parked worker goroutines (MethodHeavy
// with HeavyParallelism > 1). Idempotent; must not race a Run. A
// market dropped without Close leaks nothing permanently (the
// determiner's finalizer stops its pool), Close just makes the
// reclamation deterministic — the engine calls it when a churn fence
// replaces a shard's markets, and Engine.Close sweeps the rest.
func (m *Market) Close() {
	if m.heavy != nil {
		m.heavy.det.Release()
	}
}

// Auctions returns the number of auctions processed.
func (m *Market) Auctions() int { return m.t }

// ProgramEvaluations returns the cumulative number of per-advertiser
// strategy evaluations the market has performed. The explicit engine
// (LP, H, RH) runs every program on every auction — n·t evaluations —
// while the TALU engine re-evaluates a program only when it wins a
// click or one of its triggers fires (Section IV's point, made
// quantitative).
func (m *Market) ProgramEvaluations() int64 {
	if m.talu != nil {
		return m.talu.recomputes
	}
	return int64(m.Inst.N) * int64(m.t)
}

// RunAuction advances the market by one auction on keyword q and
// returns a freshly allocated Outcome the caller may retain — the
// simulation-facing API. Hot paths use Run instead.
func (m *Market) RunAuction(q int) *Outcome {
	return m.Run(q).Clone()
}

// Run advances the market by one auction on keyword q: program
// evaluation, winner determination, GSP pricing, user simulation, and
// accounting. The returned Outcome is owned by the market and valid
// only until the next Run; under MethodRH and MethodRHTALU the whole
// call is allocation-free in steady state.
func (m *Market) Run(q int) *Outcome {
	return m.RunWeighted(q, 1, 1)
}

// RunWeighted is Run for a broad-matched query: rel is the query's
// relevance to this market's keyword (it scales the winners' click
// probabilities in the user simulation — a loosely related query
// draws proportionally fewer clicks), and w is the squashed pricing
// weight (every charge is scaled by w, the winner's cap becomes
// w·bid, and reserve participation requires w·bid ≥ reserve).
// RunWeighted(q, 1, 1) is Run, byte for byte: every weighted branch
// is gated on rel != 1, w != 1, or reserve > 0.
func (m *Market) RunWeighted(q int, rel, w float64) *Outcome {
	m.t++
	t := float64(m.t)
	k := m.Inst.Slots

	// Trace sampling: the 1-in-N decision is one atomic add; only
	// sampled auctions pay for time.Now stamps. ev lives on the stack —
	// TraceRing.Append copies it into the ring's preallocated slots.
	var ev obs.TraceEvent
	traced := m.tracer.Sample()
	if traced {
		ev.Keyword = m.traceKw
		ev.Shard = m.traceShard
		ev.Auction = int64(m.t)
		ev.Start = time.Now().UnixNano()
	}

	m.curRel, m.curW = rel, w
	m.gate.cut = 0
	if m.reserve > 0 {
		m.gate.cut = m.reserve / w
	}

	if m.gate.lane != nil {
		// Advance the budget lane: one gating decision per advertiser
		// for this auction, and a snapshot publish on the refresh
		// cadence. Must precede bid evaluation — both engines consult
		// the gate during selection.
		m.gate.lane.BeginAuction()
	}

	out := &m.out
	out.Query = q
	out.Revenue = 0
	for j := 0; j < k; j++ {
		out.PricePerClick[j] = 0
		out.Clicked[j] = false
	}

	var lists [][]topk.Item
	var advOf []int

	if m.talu != nil {
		// The §IV pipeline: trigger firings, logical updates, per-slot
		// bid-level walks, then winner determination in the
		// market's workspace — writing straight into the reused
		// outcome, zero allocations in steady state.
		lists = m.talu.prepare(q, t, m.ws, out.AdvOf)
		advOf = out.AdvOf
	} else {
		m.ex.step(q, t, m.acct)
		for i := 0; i < m.Inst.N; i++ {
			m.bidf[i] = float64(m.ex.bid[i][q])
		}
		m.applyGate()
		score := m.weightFn

		// Candidate lists (k+1 deep) serve both the reduced matching
		// and GSP pricing; see the pricing loop for why k+1 suffices.
		// Under VCG pricing the methods that need lists only for GSP
		// (H, LP, Heavy) skip building them.
		switch m.Method {
		case MethodHeavy:
			// Section III-F: the 2^k pattern enumeration in the market's
			// HeavyDeterminer; the realized heavyweight pattern then
			// conditions GSP candidate scores, per-click prices, and the
			// user simulation.
			m.heavy.determine(m.bidf, out.AdvOf)
			advOf = out.AdvOf
			if m.pricing == PricingGSP {
				lists = m.ws.SelectCandidates(m.Inst.N, k, k+1, m.heavy.scoreFn)
			}
		case MethodRH:
			// The scalable serving path: top-(k+1) selection over the
			// slot-major click matrix, walking only the bidders that
			// can still place, and reduced assignment, zero allocations
			// in steady state.
			lists = m.selectRH(q)
			m.ws.AssignCandidatesInto(score, lists, out.AdvOf)
			advOf = out.AdvOf
		case MethodRHParallel:
			lists = topk.ParallelSelectDepth(m.Inst.N, k, k+1, runtime.GOMAXPROCS(0), score)
			advOf, _ = matching.AssignCandidates(score, lists)
			copy(out.AdvOf, advOf)
			advOf = out.AdvOf
		case MethodH:
			advOf = matching.MaxWeightFunc(m.Inst.N, k, score).AdvOf
			if m.pricing == PricingGSP {
				lists = m.ws.SelectCandidates(m.Inst.N, k, k+1, score)
			}
			copy(out.AdvOf, advOf)
			advOf = out.AdvOf
		case MethodLP:
			w := make([][]float64, m.Inst.N)
			for i := range w {
				w[i] = make([]float64, k)
				for j := 0; j < k; j++ {
					w[i][j] = score(i, j)
				}
			}
			res, err := lp.SolveAssignment(w)
			if err != nil {
				// The assignment LP is always feasible and bounded; an
				// error here is a solver bug worth crashing on.
				panic("engine: assignment LP failed: " + err.Error())
			}
			m.LPStats += res.Iterations
			advOf = res.AdvOf
			if m.pricing == PricingGSP {
				lists = m.ws.SelectCandidates(m.Inst.N, k, k+1, score)
			}
			copy(out.AdvOf, advOf)
			advOf = out.AdvOf
		default:
			panic("engine: unknown method")
		}
	}

	if traced {
		ev.Solve = time.Now().UnixNano()
	}

	if m.pricing == PricingVCG {
		// Vickrey pricing: one counterfactual winner-determination
		// solve per winner in the dedicated VCG workspace (engine/vcg.go).
		// The TALU engine fills bidf lazily — its explicit bid vector
		// otherwise never materializes.
		if m.talu != nil {
			for i := 0; i < m.Inst.N; i++ {
				m.bidf[i] = float64(m.talu.bid(i, q))
			}
			// The same gate the selection phase applied (decisions are
			// cached per auction), so the counterfactual solves see the
			// same effective bids.
			m.applyGate()
		}
		m.priceVCG(advOf, out)
		if m.curW != 1 || m.reserve > 0 {
			// The broad-match/reserve price transform: counterfactual
			// prices scale by the squash weight and floor at the
			// reserve (participants cleared w·bid ≥ reserve, so the
			// floor never exceeds a winner's weighted bid).
			for j, i := range advOf {
				if i < 0 {
					continue
				}
				p := out.PricePerClick[j]
				if m.curW != 1 {
					p *= m.curW
				}
				if m.reserve > 0 && p < m.reserve {
					p = m.reserve
				}
				out.PricePerClick[j] = p
			}
		}
	} else {
		// Generalized second pricing: the winner of slot j pays, per
		// click, the highest competing score for that slot divided by his
		// own click probability — the amount that prices the slot at its
		// best alternative use — capped at his own bid (Section V's
		// "slight generalization of generalized second-pricing"). Under
		// MethodHeavy both the candidate scores and the divisor are
		// conditioned on the realized heavyweight pattern.
		m.assignedStamp++
		for _, i := range advOf {
			if i >= 0 {
				m.assignedMark[i] = m.assignedStamp
			}
		}
		for j, i := range advOf {
			if i < 0 {
				continue
			}
			runner := 0.0
			for _, it := range lists[j] {
				if m.assignedMark[it.ID] != m.assignedStamp {
					runner = it.Score
					break
				}
			}
			// A zero click probability is possible only for a pattern-forced
			// heavyweight (fully shadowed); such a winner is never charged.
			price := 0.0
			if cp := m.clickProbOf(i, j); cp > 0 {
				price = runner / cp
			}
			if bid := float64(m.Bid(i, q)); price > bid {
				price = bid
			}
			if m.curW != 1 {
				// Squashed pricing: the per-click charge — runner-up
				// pressure and bid cap alike — scales by the query's
				// weight, so a loosely matched impression is cheaper.
				price *= m.curW
			}
			if m.reserve > 0 && price < m.reserve {
				// The reserve is also the price floor; participants
				// cleared w·bid ≥ reserve, so the floor respects caps.
				price = m.reserve
			}
			out.PricePerClick[j] = price
		}
	}

	if traced {
		ev.Price = time.Now().UnixNano()
	}

	// User action: one uniform draw per slot (always k draws, so
	// markets with equal click seeds stay aligned), a click when the
	// draw falls under the winner's click probability (conditioned on
	// the heavyweight pattern under MethodHeavy).
	m.clickedWinners = m.clickedWinners[:0]
	for j := 0; j < k; j++ {
		u := m.rng.Float64()
		i := advOf[j]
		if i < 0 {
			continue
		}
		cp := m.clickProbOf(i, j)
		if m.curRel != 1 {
			// Broad match: a partially relevant impression draws
			// proportionally fewer clicks. The draw count is unchanged
			// (always k per auction), so equal click seeds stay aligned.
			cp *= m.curRel
		}
		if u >= cp {
			continue
		}
		out.Clicked[j] = true
		price := out.PricePerClick[j]
		out.Revenue += price
		m.acct.charge(i, q, price, float64(m.Inst.Value[i][q]))
		if m.gate.lane != nil {
			// Report the identical value the accounting recorded, so
			// the lane's cumulative array stays bitwise equal to
			// SpentTotal — the ledger's drain-exactness contract.
			m.gate.lane.Charge(i, price)
		}
		m.clickedWinners = append(m.clickedWinners, i)
	}

	if traced {
		ev.Charge = time.Now().UnixNano()
	}

	if m.talu != nil {
		m.talu.afterAuction(t, m.clickedWinners)
	}

	if traced {
		ev.Done = time.Now().UnixNano()
		m.tracer.Ring.Append(&ev)
	}
	return out
}

// selectRH is MethodRH's per-slot top-(k+1) selection on keyword q
// over the gated bids in bidf. Keyword q's last lists seed a floor:
// slot j's k+1 seed ids are k+1 distinct current bidders, so the
// smallest of their current scores, floor[j], is at most slot j's
// (k+1)-th best score. A bidder scores at most cmax[j]·bid in slot j,
// and bids are integer levels, so one bidding below every slot's
// least level v with cmax[j]·v ≥ floor[j] reaches no floor and is
// skipped; the survivors' runs (SelectDenseOver) equal the full
// walk's lists. Without usable seeds — the keyword's first auction,
// short lists, an id ≥ n — or with a floor ≤ 0, every bidder survives
// and the full SelectDense walk runs.
func (m *Market) selectRH(q int) [][]topk.Item {
	n, k := m.Inst.N, m.Inst.Slots
	depth := k + 1
	var lists [][]topk.Item
	if vmin, ok := m.rhFloors(m.seeds[q], n, depth); ok {
		surv := m.surv[:0]
		for i, b := range m.bidf {
			if b >= vmin {
				surv = append(surv, int32(i))
			}
		}
		m.surv, m.survivors = surv, len(surv)
		lists = m.ws.SelectDenseOver(n, k, depth, m.click.cols, m.bidf, surv, m.floor)
	} else {
		m.survivors = n
		lists = m.ws.SelectDense(n, k, depth, m.click.cols, m.bidf)
	}
	seeds := m.seeds[q][:0]
	if seeds == nil {
		seeds = make([]int32, 0, k*depth)
	}
	for _, l := range lists {
		if len(l) < depth {
			seeds = seeds[:0]
			break
		}
		for _, it := range l {
			seeds = append(seeds, int32(it.ID))
		}
	}
	m.seeds[q] = seeds
	return lists
}

// rhFloors sets floor[j] to the least current score of slot j's seed
// ids and returns the least bid level that reaches some slot's floor;
// ok is false when the seeds give no bound.
func (m *Market) rhFloors(seeds []int32, n, depth int) (vmin float64, ok bool) {
	if len(seeds) != len(m.floor)*depth {
		return 0, false
	}
	vmin = math.Inf(1)
	for j := range m.floor {
		col := m.click.cols[j*n : (j+1)*n]
		lo := math.Inf(1)
		for _, i := range seeds[j*depth : (j+1)*depth] {
			if int(i) >= n {
				return 0, false
			}
			lo = min(lo, col[i]*m.bidf[i])
		}
		if lo <= 0 {
			return 0, false
		}
		m.floor[j] = lo
		// The least integer v with c·v ≥ lo (c > 0, since some seed
		// scores lo > 0): the quotient's ceiling, corrected for rounding.
		c := m.click.cmax[j]
		v := math.Ceil(lo / c)
		for v > 0 && c*(v-1) >= lo {
			v--
		}
		for c*v < lo {
			v++
		}
		vmin = min(vmin, v)
	}
	return vmin, true
}
