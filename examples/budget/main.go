// budget ties the paper's bidding language to the serving engine's
// cross-keyword budget subsystem: the same daily-budget constraint is
// expressed twice — once as the Section II budget-guard program (a
// trigger that zeroes the advertiser's bids when amtSpent reaches the
// budget, the construction the paper's introduction names) and once
// as the engine's Hard budget policy over the spend ledger — and the
// two are driven over the same auction trace, asserting that they cut
// the advertiser off at exactly the same auction.
//
// The population is a single-keyword market where advertiser 0
// dominates (value 50 against competitors at 10), so it holds the top
// slot every auction until its budget gate fires; with one keyword
// the ledger's spend estimate is exact, making the serving-side gate
// fire at precisely the program's threshold.
//
// Run:  go run ./examples/budget
package main

import (
	"fmt"
	"log"

	ssa "repro"
)

// The budget guard in the bidding language: the "daily budget"
// pre-defined parameter of classical platforms becomes a one-line
// trigger (the same program pinned by the sqlmini tests).
const budgetGuard = `
CREATE TRIGGER spendcap AFTER INSERT ON Query
{
  IF amtSpent >= budget THEN
    UPDATE Keywords SET bid = 0;
  ENDIF;
}
`

const dailyBudget = 60.0

func main() {
	// A hand-built single-keyword Section V-style population.
	// Advertiser 0: value 50, always underspending (target 50 per
	// auction is unreachable), so its bid only climbs — it wins the
	// top slot every auction it is allowed to enter.
	inst := &ssa.SimInstance{
		N: 3, Slots: 2, Keywords: 1,
		Value:      [][]int{{50}, {10}, {10}},
		InitialBid: [][]int{{25}, {5}, {5}},
		Target:     []int{50, 10, 10},
		ClickProb: [][]float64{
			{0.90, 0.80},
			{0.85, 0.75},
			{0.82, 0.72},
		},
		Budget: []float64{dailyBudget, 0, 0}, // competitors unlimited
	}

	// Serving side: the engine's Hard policy over the spend ledger.
	eng := ssa.NewEngine(inst, ssa.EngineConfig{
		Shards:    1,
		Method:    ssa.SimRH,
		ClickSeed: 7,
		Budget:    ssa.BudgetConfig{Policy: ssa.PolicyHard, RefreshEvery: 1},
	})
	defer eng.Close()

	// Language side: the advertiser's private database running the
	// budget-guard program, with the provider-maintained amtSpent
	// pushed in before every auction — the engine's ledger IS that
	// provider state.
	db := ssa.NewDB()
	kw := ssa.NewTable("Keywords",
		ssa.Column{Name: "text", Kind: ssa.String},
		ssa.Column{Name: "bid", Kind: ssa.Float})
	if err := kw.Insert(ssa.Row{ssa.S("boot"), ssa.F(25)}); err != nil {
		log.Fatal(err)
	}
	db.Add(kw)
	db.Add(ssa.NewTable("Query", ssa.Column{Name: "kw", Kind: ssa.String}))
	db.SetScalar("budget", ssa.F(dailyBudget))
	prog, err := ssa.CompileProgram(budgetGuard)
	if err != nil {
		log.Fatal(err)
	}
	if err := prog.Install(db); err != nil {
		log.Fatal(err)
	}
	queryTable, _ := db.Table("Query")

	fmt.Printf("daily budget %.0f, hard policy vs the budget-guard program\n", dailyBudget)
	fmt.Println("auction\tspent\tprogram-bid\tengine-serves")

	market := eng.KeywordMarket(0)
	programCutAt, engineCutAt := -1, -1
	for a := 0; a < 40; a++ {
		// The provider pushes the maintained spend into the program's
		// world, then the query arrives and the trigger fires.
		spent := market.Accounting().SpentTotal[0]
		db.SetScalar("amtSpent", ssa.F(spent))
		if err := queryTable.Insert(ssa.Row{ssa.S("boot")}); err != nil {
			log.Fatal(err)
		}
		programLive := kw.Rows[0][1].F > 0
		if !programLive && programCutAt < 0 {
			programCutAt = a
		}

		// The engine serves the same auction under the Hard policy.
		outs, _ := eng.ServeOutcomes([]int{0})
		engineServed := false
		for _, adv := range outs[0].AdvOf {
			if adv == 0 {
				engineServed = true
			}
		}
		if !engineServed && engineCutAt < 0 {
			engineCutAt = a
		}

		fmt.Printf("%d\t%.1f\t%v\t%v\n", a, spent, programLive, engineServed)

		// The two formulations must agree auction for auction: the
		// program zeroes its bids at exactly the spend threshold where
		// the engine's gate stops serving the advertiser.
		if programLive != engineServed {
			log.Fatalf("auction %d: program live=%v but engine served=%v (spent %.2f of %.0f)",
				a, programLive, engineServed, spent, dailyBudget)
		}
	}
	if programCutAt < 0 || engineCutAt < 0 {
		log.Fatalf("budget never bound (program cut at %d, engine at %d) — trace too short", programCutAt, engineCutAt)
	}

	// And the ledger settles exactly to the market accounting.
	led := eng.Ledger()
	if exact, acct := led.ExactSpent(0), market.Accounting().SpentTotal[0]; exact != acct {
		log.Fatalf("ledger %v != accounting %v", exact, acct)
	}
	fmt.Printf("\nboth formulations cut advertiser 0 off at auction %d with %.2f spent (cap %.0f)\n",
		engineCutAt, led.ExactSpent(0), dailyBudget)
	fmt.Printf("ledger settled exactly: ExactSpent == accounting == %.2f; exhausted=%v\n",
		led.ExactSpent(0), led.Exhausted(0))
}
