package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sqlmini"
	"repro/internal/table"
	"repro/internal/workload"
)

// The Figure 5 program in the sqlmini dialect (with the paper's
// line-11 typo corrected: the overspending branch compares with >).
const fig5Source = `
CREATE TRIGGER bid AFTER INSERT ON Query
{
  IF amtSpent / time < targetSpendRate THEN
    UPDATE Keywords
    SET bid = bid + 1
    WHERE roi = ( SELECT MAX( K.roi ) FROM Keywords K )
      AND relevance > 0
      AND bid < maxbid;
  ELSEIF amtSpent / time > targetSpendRate THEN
    UPDATE Keywords
    SET bid = bid - 1
    WHERE roi = ( SELECT MIN( K.roi ) FROM Keywords K )
      AND relevance > 0
      AND bid > 0;
  ENDIF;

  UPDATE Bids
  SET value = ( SELECT SUM( K.bid )
                FROM Keywords K
                WHERE K.relevance > 0.7
                  AND K.formula = Bids.formula );
}
`

// advertiserDB mirrors one advertiser of the simulation as a bidding
// program's private database.
type advertiserDB struct {
	db  *table.DB
	kw  *table.Table
	bid *table.Table
	qt  *table.Table
}

func newAdvertiserDB(t *testing.T, inst *workload.Instance, i int) *advertiserDB {
	t.Helper()
	db := table.NewDB()
	kw := table.New("Keywords",
		table.Column{Name: "text", Kind: table.String},
		table.Column{Name: "formula", Kind: table.String},
		table.Column{Name: "maxbid", Kind: table.Float},
		table.Column{Name: "roi", Kind: table.Float},
		table.Column{Name: "bid", Kind: table.Float},
		table.Column{Name: "relevance", Kind: table.Float},
	)
	for q := 0; q < inst.Keywords; q++ {
		kw.Insert(table.Row{
			table.S(fmt.Sprintf("kw%d", q)),
			table.S("Click"),
			table.F(float64(inst.Value[i][q])),
			table.F(1), // smoothed ROI with zero history
			table.F(float64(inst.InitialBid[i][q])),
			table.F(0),
		})
	}
	db.Add(kw)
	bids := table.New("Bids",
		table.Column{Name: "formula", Kind: table.String},
		table.Column{Name: "value", Kind: table.Float},
	)
	bids.Insert(table.Row{table.S("Click"), table.F(0)})
	db.Add(bids)
	qt := table.New("Query", table.Column{Name: "kw", Kind: table.String})
	db.Add(qt)
	db.SetScalar("targetSpendRate", table.F(float64(inst.Target[i])))

	prog, err := sqlmini.Compile(fig5Source)
	if err != nil {
		t.Fatalf("compile Figure 5: %v", err)
	}
	if err := prog.Install(db); err != nil {
		t.Fatalf("install Figure 5: %v", err)
	}
	return &advertiserDB{db: db, kw: kw, bid: bids, qt: qt}
}

// syncProviderState pushes the provider-maintained variables into the
// program's world before an auction: relevance of the query keyword,
// per-keyword ROI, amount spent, and time (Section II-B says the
// provider maintains these automatically for each program).
func (a *advertiserDB) syncProviderState(inst *workload.Instance, acct *Accounting, i, q int, t float64) {
	for kwIdx, row := range a.kw.Rows {
		rel := 0.0
		if kwIdx == q {
			rel = 1.0
		}
		row[5] = table.F(rel)
		row[3] = table.F(acct.ROIOf(i, kwIdx))
	}
	a.db.SetScalar("amtSpent", table.F(acct.SpentTotal[i]))
	a.db.SetScalar("time", table.F(t))
}

// TestNativeStrategyMatchesFig5Program runs a full explicit-engine
// world and, in lockstep, the interpreted Figure 5 SQL program for a
// sample of advertisers. After every auction the program's Keywords
// bids and its output Bids table must equal the native engine's bids
// exactly: the benchmarked native ROI strategy *is* the paper's
// program.
func TestNativeStrategyMatchesFig5Program(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	inst := workload.Generate(rng, 25, 3, 5)
	queries := inst.Queries(rand.New(rand.NewSource(23)), 400)
	w := NewMarketOpts(inst, MarketOpts{Method: MethodRH, ClickSeed: 42})

	sample := []int{0, 7, 24}
	dbs := make(map[int]*advertiserDB, len(sample))
	for _, i := range sample {
		dbs[i] = newAdvertiserDB(t, inst, i)
	}

	for a, q := range queries {
		tNow := float64(a + 1)
		// Fire each sampled program with the pre-auction provider state.
		for _, i := range sample {
			dbs[i].syncProviderState(inst, w.Accounting(), i, q, tNow)
			if err := dbs[i].qt.Insert(table.Row{table.S(fmt.Sprintf("kw%d", q))}); err != nil {
				t.Fatalf("auction %d: program run: %v", a, err)
			}
		}
		w.RunAuction(q)
		for _, i := range sample {
			for kwIdx, row := range dbs[i].kw.Rows {
				progBid := int(row[4].F)
				nativeBid := w.Bid(i, kwIdx)
				if progBid != nativeBid {
					t.Fatalf("auction %d advertiser %d kw %d: program bid %d, native bid %d",
						a, i, kwIdx, progBid, nativeBid)
				}
			}
			// The program's Bids table row for "Click" must equal the
			// query keyword's bid (relevance 1 > 0.7; others 0).
			if got, want := int(dbs[i].bid.Rows[0][1].F), w.Bid(i, q); got != want {
				t.Fatalf("auction %d advertiser %d: Bids.value %d, native %d", a, i, got, want)
			}
		}
	}
}
