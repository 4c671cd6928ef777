package engine

import "repro/internal/workload"

// roi is the provider-maintained return-on-investment statistic for
// one (advertiser, keyword) pair: total value gained over total spend,
// add-one smoothed so it is defined before any spending occurs (the
// paper leaves the zero-spend case unspecified; smoothing gives every
// keyword the identical neutral ROI of 1 at the start, which the
// MAX/MIN selections of the Figure 5 program then treat as ties, as
// its SQL semantics dictate).
func roi(gained, spent float64) float64 { return (gained + 1) / (spent + 1) }

// spendStatus compares the advertiser's realized spending rate with
// the target: −1 under, 0 on target, +1 over.
func spendStatus(spentTotal float64, t float64, target int) int {
	rate := spentTotal / t
	switch {
	case rate < float64(target):
		return -1
	case rate > float64(target):
		return 1
	default:
		return 0
	}
}

// Accounting is the provider-maintained advertiser state (Section
// II-B notes amounts spent, budgets, and per-keyword ROI are
// maintained by the search provider for every program). The fields
// are written only through charge, which keeps the cached ROI range in
// step with them.
type Accounting struct {
	SpentTotal []float64   // per advertiser
	SpentKw    [][]float64 // per advertiser, keyword
	GainedKw   [][]float64 // per advertiser, keyword

	// roiMax[i] and roiMin[i] are the max and min smoothed ROI over
	// advertiser i's keywords: every program evaluation reads them, and
	// only a charge moves them.
	roiMax, roiMin []float64
}

func newAccounting(n, keywords int) *Accounting {
	a := &Accounting{
		SpentTotal: make([]float64, n),
		SpentKw:    make([][]float64, n),
		GainedKw:   make([][]float64, n),
		roiMax:     make([]float64, n),
		roiMin:     make([]float64, n),
	}
	for i := 0; i < n; i++ {
		a.SpentKw[i] = make([]float64, keywords)
		a.GainedKw[i] = make([]float64, keywords)
		a.roiMax[i], a.roiMin[i] = 1, 1 // roi(0, 0) on every keyword
	}
	return a
}

// ROIOf returns the smoothed ROI of advertiser i on keyword q — the
// value the provider would surface in the program's Keywords table.
func (a *Accounting) ROIOf(i, q int) float64 {
	return roi(a.GainedKw[i][q], a.SpentKw[i][q])
}

// charge records one click by advertiser i on keyword q, paid at price
// and worth value to the advertiser, and refreshes i's ROI range.
func (a *Accounting) charge(i, q int, price, value float64) {
	a.SpentTotal[i] += price
	a.SpentKw[i][q] += price
	a.GainedKw[i][q] += value
	a.roiMax[i], a.roiMin[i] = a.scanROI(i)
}

// roiRange returns the max and min smoothed ROI over advertiser i's
// keywords.
func (a *Accounting) roiRange(i int) (maxR, minR float64) {
	return a.roiMax[i], a.roiMin[i]
}

// scanROI computes roiRange from the per-keyword statistics.
func (a *Accounting) scanROI(i int) (maxR, minR float64) {
	maxR, minR = a.ROIOf(i, 0), a.ROIOf(i, 0)
	for q := 1; q < len(a.SpentKw[i]); q++ {
		r := a.ROIOf(i, q)
		if r > maxR {
			maxR = r
		}
		if r < minR {
			minR = r
		}
	}
	return maxR, minR
}

// modeConst, modeInc, modeDec name a bidder's current behavior for
// one keyword: what the Figure 5 program would do to that keyword's
// bid on a matching query.
const (
	modeConst = 0
	modeInc   = 1
	modeDec   = 2
)

// bidMode computes the behavior of bidder i for keyword q given the
// current bid: the direct transliteration of the Figure 5 guards.
func bidMode(inst *workload.Instance, acct *Accounting, i, q int, bid int, status int) int {
	switch status {
	case -1: // underspending: increment the max-ROI keyword if below max bid
		maxR, _ := acct.roiRange(i)
		if acct.ROIOf(i, q) == maxR && bid < inst.Value[i][q] {
			return modeInc
		}
	case 1: // overspending: decrement the min-ROI keyword if above zero
		_, minR := acct.roiRange(i)
		if acct.ROIOf(i, q) == minR && bid > 0 {
			return modeDec
		}
	}
	return modeConst
}
