package engine

import "repro/internal/workload"

// explicitEngine evaluates every bidding program on every auction:
// the straightforward implementation of the Section II flow, used by
// methods LP, H, and RH. Its per-auction cost is Θ(n·keywords) before
// winner determination even starts — the cost Section IV eliminates.
type explicitEngine struct {
	inst *workload.Instance
	bid  [][]int // bid[i][q], integral by construction
}

func newExplicitEngine(inst *workload.Instance) *explicitEngine {
	e := &explicitEngine{inst: inst, bid: make([][]int, inst.N)}
	for i := range e.bid {
		e.bid[i] = make([]int, inst.Keywords)
		copy(e.bid[i], inst.InitialBid[i])
	}
	return e
}

// step runs every advertiser's ROI program for the auction on keyword
// q at time t: the native equivalent of firing the Figure 5 trigger
// once per advertiser. Only the query keyword has positive relevance,
// so only its bid can change.
func (e *explicitEngine) step(q int, t float64, acct *Accounting) {
	for i := 0; i < e.inst.N; i++ {
		status := spendStatus(acct.SpentTotal[i], t, e.inst.Target[i])
		switch bidMode(e.inst, acct, i, q, e.bid[i][q], status) {
		case modeInc:
			e.bid[i][q]++
		case modeDec:
			e.bid[i][q]--
		}
	}
}
