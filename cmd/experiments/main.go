// Command experiments regenerates the paper's evaluation (Section V)
// using the paper's own protocol: a fresh auction market per data
// point, the average wall-clock time per auction over the first T
// auctions (T = 100 for Figure 12, T = 1000 for Figure 13), queries
// at a constant rate with one uniform keyword each, every bidder
// running the ROI-equalizing heuristic, and generalized second
// pricing.
//
// Usage:
//
//	experiments -fig 12            # LP, H, RH, RHTALU vs n (Figure 12)
//	experiments -fig 13            # RH vs RHTALU at large n (Figure 13)
//	experiments -fig 12 -auctions 50 -lpmax 250 -sizes 500,1000
//	experiments -fig 0             # both figures
//	experiments -broad             # broad-match revenue/efficiency sweep (CSV)
//	experiments -broad -bn 1000 -auctions 30000 -zipf 1.3 -threshold 0.4
//
// Output is a tab-separated table: one row per (method, n) with the
// average milliseconds per auction — the same series the paper plots.
//
// -broad runs a different study: the probabilistic broad-match
// router's revenue/efficiency trade-off. One Zipf-skewed free-text
// workload over the bigram keyword catalog is served repeatedly —
// exact routing vs broad match, each crossed with a ladder of reserve
// prices and (for broad) squashing exponents 1 and 0.5 — and each
// configuration emits one CSV row with served/unrouted/overmatched
// counts, revenue, clicks, fill, and a welfare proxy (total
// advertiser value gained, Σ GainedKw). Populations and match draws
// are regenerated from the same seeds per row, so rows differ only in
// the knobs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/broadmatch"
	"repro/internal/engine"
	"repro/internal/workload"
)

func main() {
	var (
		fig      = flag.Int("fig", 0, "figure to regenerate: 12, 13, or 0 for both")
		auctions = flag.Int("auctions", 0, "auctions per data point (0 = paper default: 100 for fig 12, 1000 for fig 13)")
		sizes    = flag.String("sizes", "", "comma-separated advertiser counts (default: paper's sweep)")
		lpmax    = flag.Int("lpmax", 500, "largest n at which the LP method runs (our dense simplex is far slower than GLPK)")
		lpcap    = flag.Int("lpauctions", 10, "auctions per LP data point (the LP is orders of magnitude slower)")
		slots    = flag.Int("slots", workload.DefaultSlots, "number of advertising slots (k)")
		keywords = flag.Int("keywords", workload.DefaultKeywords, "number of keywords")
		seed     = flag.Int64("seed", 42, "workload seed")
		broad    = flag.Bool("broad", false, "run the broad-match revenue/efficiency sweep instead of a figure (CSV output)")
		broadN   = flag.Int("bn", 1000, "broad sweep: number of advertisers")
		zipfS    = flag.Float64("zipf", 1.2, "broad sweep: Zipf token-popularity exponent (> 1; 0 = uniform)")
		thresh   = flag.Float64("threshold", 0.4, "broad sweep: broad-match relevance threshold in (0, 1]")
	)
	flag.Parse()

	if *broad {
		if *thresh <= 0 || *thresh > 1 {
			fmt.Fprintf(os.Stderr, "experiments: -threshold wants a relevance threshold in (0, 1], got %v\n", *thresh)
			os.Exit(2)
		}
		q := *auctions
		if q == 0 {
			q = 20000
		}
		broadSweep(*broadN, q, *slots, *keywords, *seed, *zipfS, *thresh)
		return
	}

	switch *fig {
	case 12:
		fig12(*auctions, parseSizes(*sizes), *lpmax, *lpcap, *slots, *keywords, *seed)
	case 13:
		fig13(*auctions, parseSizes(*sizes), *slots, *keywords, *seed)
	case 0:
		fig12(*auctions, parseSizes(*sizes), *lpmax, *lpcap, *slots, *keywords, *seed)
		fmt.Println()
		fig13(0, nil, *slots, *keywords, *seed)
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown figure %d (want 12, 13, or 0)\n", *fig)
		os.Exit(2)
	}
}

func parseSizes(s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "experiments: bad size %q\n", part)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}

// measure runs one data point: a fresh market with n advertisers, T
// auctions from a cold start, returning milliseconds per auction.
func measure(method engine.Method, n, T, slots, keywords int, seed int64) float64 {
	inst := workload.Generate(newRand(seed), n, slots, keywords)
	queries := inst.Queries(newRand(seed+1), T)
	w := engine.NewMarketOpts(inst, engine.MarketOpts{Method: method, ClickSeed: seed + 2})
	start := time.Now()
	for _, q := range queries {
		w.RunAuction(q)
	}
	return float64(time.Since(start).Milliseconds()) / float64(T)
}

func fig12(T int, sizes []int, lpmax, lpAuctions, slots, keywords int, seed int64) {
	if T == 0 {
		T = 100 // the paper averages over 100 auctions in Figure 12
	}
	if sizes == nil {
		sizes = []int{500, 1000, 1500, 2000, 2500, 3000, 3500, 4000, 4500, 5000}
	}
	fmt.Println("# Figure 12: winner-determination performance")
	fmt.Printf("# avg time per auction (ms) over %d auctions, k=%d slots, %d keywords\n", T, slots, keywords)
	fmt.Printf("# LP capped at n<=%d with %d auctions per point (dense simplex; see DESIGN.md)\n", lpmax, lpAuctions)
	fmt.Println("method\tn\tms_per_auction")
	// The LP sweep has its own, smaller size ladder: the dense simplex
	// grows fast in n, and the paper's point — LP an order of
	// magnitude above H — is visible long before n=500.
	lpSizes := []int{100, 200, 300, 400, 500, 750, 1000}
	for _, n := range lpSizes {
		if n > lpmax {
			continue
		}
		ms := measure(engine.MethodLP, n, lpAuctions, slots, keywords, seed)
		fmt.Printf("%v\t%d\t%.3f\n", engine.MethodLP, n, ms)
	}
	for _, m := range []engine.Method{engine.MethodH, engine.MethodRH, engine.MethodRHTALU} {
		for _, n := range sizes {
			ms := measure(m, n, T, slots, keywords, seed)
			fmt.Printf("%v\t%d\t%.3f\n", m, n, ms)
		}
	}
}

// broadSweep serves one Zipf free-text workload through every
// router × reserve × squash configuration and emits a CSV row per
// run. Welfare is the advertisers' side of the ledger — total value
// gained from clicks — so the squashing/reserve trade-off (provider
// revenue vs allocation efficiency) is visible in one table.
func broadSweep(n, queries, slots, keywords int, seed int64, zipfS, threshold float64) {
	names := workload.BigramKeywordNames(keywords)
	texts := workload.TextQueries(newRand(seed+1), keywords, queries, 3, zipfS)
	fmt.Printf("# broad-match sweep: n=%d queries=%d k=%d keywords=%d zipf=%v threshold=%v method=%v\n",
		n, queries, slots, keywords, zipfS, threshold, engine.MethodRHTALU)
	fmt.Println("# exact = threshold 1 (only full-relevance matches route, the exact-match mechanism);")
	fmt.Println("# broad = the configured threshold (partial matches admitted probabilistically)")
	fmt.Println("router,threshold,squash,reserve,queries,served,unrouted,overmatched,revenue,clicks,fill_pct,welfare")
	run := func(router string, th, squash, reserve float64) {
		// A fresh deterministic population per row: engines mutate
		// advertiser strategy state, and rows must differ only in knobs.
		inst := workload.Generate(newRand(seed), n, slots, keywords)
		cfg := engine.Config{
			Method: engine.MethodRHTALU, ClickSeed: seed + 2,
			KeywordNames: names, Reserve: reserve,
			Broadmatch: broadmatch.Config{Enabled: true, Threshold: th, Squash: squash, Seed: seed + 3},
		}
		e := engine.New(inst, cfg)
		st := e.ServeText(texts)
		welfare := 0.0
		for q := 0; q < keywords; q++ {
			acct := e.KeywordMarket(q).Accounting()
			for i := 0; i < inst.N; i++ {
				welfare += acct.GainedKw[i][q]
			}
		}
		e.Close()
		fmt.Printf("%s,%g,%g,%g,%d,%d,%d,%d,%.0f,%d,%.1f,%.0f\n",
			router, th, squash, reserve, len(texts), st.Auctions, st.Unrouted, st.Overmatched,
			st.Revenue, st.Clicks, 100*float64(st.Filled)/float64(st.TotalSlots), welfare)
	}
	// Reserve ladder in bid units: the workload's equilibrium prices sit
	// in the tens, so the low rungs floor thin slots while the top rung
	// visibly filters.
	reserves := []float64{0, 10, 25, 50}
	for _, r := range reserves {
		run("exact", 1, 1, r)
	}
	for _, sq := range []float64{1, 0.5} {
		for _, r := range reserves {
			run("broad", threshold, sq, r)
		}
	}
}

func fig13(T int, sizes []int, slots, keywords int, seed int64) {
	if T == 0 {
		T = 1000 // the paper averages over 1000 auctions in Figure 13
	}
	if sizes == nil {
		sizes = []int{2000, 4000, 6000, 8000, 10000, 12000, 14000, 16000, 18000, 20000}
	}
	fmt.Println("# Figure 13: reducing program evaluation")
	fmt.Printf("# avg time per auction (ms) over %d auctions, k=%d slots, %d keywords\n", T, slots, keywords)
	fmt.Println("method\tn\tms_per_auction")
	for _, m := range []engine.Method{engine.MethodRH, engine.MethodRHTALU} {
		for _, n := range sizes {
			ms := measure(m, n, T, slots, keywords, seed)
			fmt.Printf("%v\t%d\t%.3f\n", m, n, ms)
		}
	}
}
