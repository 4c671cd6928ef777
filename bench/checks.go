package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"
)

// check is one output-correctness assertion (or, with design set, one
// workload-design assertion about where the time goes on this host).
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
	Design bool   `json:"design,omitempty"`
}

type checkList []check

func (cl *checkList) add(name string, ok bool, format string, args ...any) {
	*cl = append(*cl, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (cl *checkList) design(name string, ok bool, format string, args ...any) {
	*cl = append(*cl, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...), Design: true})
}

// failedOutput counts the output checks that did not hold.
func (cl checkList) failedOutput() int {
	n := 0
	for _, c := range cl {
		if !c.OK && !c.Design {
			n++
		}
	}
	return n
}

// fingerprint is FNV-64a over the outcomes' exact bits, printed so two
// runs of one seed can be compared by eye.
func fingerprint(recs []outcomeRec) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, r := range recs {
		put(uint64(int64(r.q)))
		put(math.Float64bits(r.revenue))
		for j := range r.adv {
			put(uint64(int64(r.adv[j])))
			put(math.Float64bits(r.price[j]))
			if r.clicked[j] {
				put(1)
			} else {
				put(0)
			}
		}
	}
	return h.Sum64()
}

// replayWarmup re-runs the warm-up through per-keyword sequential
// markets seeded with KeywordSeed — the engine's stated equivalence
// contract — and reports how many served outcomes differ. The text
// workload's replay routes through its own router and charges its own
// ledger, in the same global order the sequential warm-up used.
func replayWarmup(sp *spec, in *inputs, cfg EngineConfig, warm []outcomeRec) (mismatches int) {
	var led *Ledger
	var router *Router
	if sp.text {
		led = newLedger(in.inst.N, in.inst.Keywords, in.inst.Budget, cfg.Budget)
		router = newRouter(cfg.KeywordNames, cfg.Broadmatch)
	}
	markets := buildMarkets(sp, in, cfg, led)
	for i := range warm {
		var want outcomeRec
		if sp.text {
			best, _, ok := router.RouteBest(in.texts[i])
			if !ok {
				want = outcomeRec{q: -1}
			} else {
				want = recOfEngine(markets[best.Keyword].RunWeighted(best.Keyword, best.Relevance, best.Weight))
			}
		} else {
			q := in.queries[i]
			want = recOfEngine(markets[q].Run(q))
		}
		if !want.equal(warm[i]) {
			mismatches++
		}
	}
	return mismatches
}

// fenceFreeWarmup serves the text warm-up, one query at a time, on a
// twin of the workload's stream server whose wall-clock budget flush
// never fires. On the serving configuration a flush fence can land
// between any two warm-up queries and move a budget decision, so only
// the twin's outcomes have an exact sequential oracle.
func fenceFreeWarmup(sp *spec, in *inputs, warmup int) ([]outcomeRec, error) {
	cfg := engineConfig(sp, in, 0, nil)
	sc := streamConfig(sp, cfg)
	sc.BudgetFlush = 24 * time.Hour
	st := &stack{sp: sp, cfg: cfg, str: newStreamServer(in.inst, sc)}
	st.eng = st.str.Engine()
	defer st.close()
	return warmText(st, in.texts[:warmup])
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// marketRevenue sums what the engine's markets charged, advertiser by
// advertiser — an account of revenue independent of the serving
// statistics the batch loop returns.
func marketRevenue(eng *Engine, keywords int) float64 {
	var sum float64
	for q := 0; q < keywords; q++ {
		for _, v := range eng.KeywordMarket(q).Accounting().SpentTotal {
			sum += v
		}
	}
	return sum
}

// recoverCheck replays the journal directory and compares every
// advertiser's recovered spend with the drained ledger's, bit for bit.
func recoverCheck(cl *checkList, st *stack) {
	led := st.eng.Ledger()
	rec, err := recoverJournal(st.jdir)
	if err != nil || rec.State == nil {
		cl.add("journal.recover", false, "recover %s: err=%v", st.jdir, err)
		return
	}
	diff := 0
	if rec.State.N != led.N() {
		diff = led.N()
	} else {
		for i := 0; i < led.N(); i++ {
			if math.Float64bits(rec.State.Spent(i)) != math.Float64bits(led.ExactSpent(i)) {
				diff++
			}
		}
	}
	cl.add("journal.recover", diff == 0, "%d of %d advertisers differ bitwise between journal.Recover and Ledger.ExactSpent", diff, led.N())
}
