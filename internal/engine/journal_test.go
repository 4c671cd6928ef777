package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/budget"
	"repro/internal/journal"
	"repro/internal/racetest"
	"repro/internal/workload"
)

// journaledInstance builds a budgeted population whose caps bind well
// inside the test's query counts.
func journaledInstance(seed int64, n, keywords int, meanAuctions float64) *workload.Instance {
	inst := workload.Generate(rand.New(rand.NewSource(seed)), n, 4, keywords)
	workload.AttachBudgets(rand.New(rand.NewSource(seed+1)), inst, meanAuctions)
	return inst
}

// TestEngineJournalReplayDeterminism is the replay-determinism
// acceptance gate: a served engine's journal recovers to lane totals
// bitwise equal to the live ledger, a restarted engine resumes from
// exactly that state, and the resumed session's journal recovers to
// the final totals — snapshot+tail, with and without compaction.
func TestEngineJournalReplayDeterminism(t *testing.T) {
	for _, snapEvery := range []int64{-1, 1 << 12} {
		dir := t.TempDir()
		inst := journaledInstance(301, 50, 6, 60)
		queries := inst.Queries(rand.New(rand.NewSource(303)), 2500)
		bcfg := budget.Config{Policy: budget.PolicyHard, RefreshEvery: 8}

		w, err := journal.Open(dir, journal.Options{SnapshotEvery: snapEvery, MaxBatch: 32})
		if err != nil {
			t.Fatal(err)
		}
		e := New(inst, Config{Shards: 3, Method: MethodRHTALU, ClickSeed: 17, Budget: bcfg, Journal: w})
		e.Serve(queries)
		live := make([]uint64, inst.N)
		exhausted := 0
		for i := 0; i < inst.N; i++ {
			live[i] = math.Float64bits(e.Ledger().ExactSpent(i))
			if e.Ledger().Exhausted(i) {
				exhausted++
			}
		}
		if exhausted == 0 {
			t.Fatal("trace never exhausted a budget — recovery would be unexercised")
		}
		e.Close()
		if err := w.Err(); err != nil {
			t.Fatalf("journal error after serve: %v", err)
		}

		rec, err := journal.Recover(dir)
		if err != nil {
			t.Fatal(err)
		}
		if rec.CorruptOffset != -1 {
			t.Fatalf("snapEvery=%d: clean journal reported corrupt at %d (%s)", snapEvery, rec.CorruptOffset, rec.CorruptReason)
		}
		if snapEvery > 0 && !rec.SnapshotLoaded {
			t.Fatal("compacting run recovered without its snapshot")
		}
		for i := 0; i < inst.N; i++ {
			if got := math.Float64bits(rec.State.Spent(i)); got != live[i] {
				t.Fatalf("snapEvery=%d advertiser %d: recovered %#x, live %#x — replay must be bitwise", snapEvery, i, got, live[i])
			}
		}

		// Restart: a second engine resumes from the recovered state.
		w2, err := journal.Open(dir, journal.Options{SnapshotEvery: snapEvery, MaxBatch: 32})
		if err != nil {
			t.Fatal(err)
		}
		e2 := New(inst, Config{Shards: 3, Method: MethodRHTALU, ClickSeed: 17, Budget: bcfg, Journal: w2, Restore: rec.State})
		for i := 0; i < inst.N; i++ {
			if got := math.Float64bits(e2.Ledger().ExactSpent(i)); got != live[i] {
				t.Fatalf("advertiser %d: restored ledger %#x, want %#x", i, got, live[i])
			}
		}
		// The restored ledger still enforces: every exhausted advertiser
		// stays gated from the first post-restart auction.
		for i := 0; i < inst.N; i++ {
			if b := e2.Ledger().Budget(i); b > 0 && rec.State.Spent(i) >= b && !e2.Ledger().Exhausted(i) {
				t.Fatalf("advertiser %d exhausted pre-crash but re-admitted after restore", i)
			}
		}
		e2.Serve(queries[:800])
		final := make([]uint64, inst.N)
		for i := 0; i < inst.N; i++ {
			final[i] = math.Float64bits(e2.Ledger().ExactSpent(i))
		}
		e2.Close()
		rec2, err := journal.Recover(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < inst.N; i++ {
			if got := math.Float64bits(rec2.State.Spent(i)); got != final[i] {
				t.Fatalf("snapEvery=%d advertiser %d: resumed-session recovery %#x, want %#x", snapEvery, i, got, final[i])
			}
		}
	}
}

// TestEngineBudgetReset: ResetBudgets re-admits exhausted PolicyHard
// advertisers, and the post-reset outcome stream is byte-identical to
// an identically-evolved engine handed a fresh ledger directly — on
// both the explicit RH and TALU serving paths (the TALU gate's bid
// sources must be repointed too). The journaled engine's reset also
// begins a reset epoch. Single shard: with parallel shards the
// cross-lane publish interleaving is only boundedly stale, so
// outcome-level equality between two engines needs a total order.
func TestEngineBudgetReset(t *testing.T) {
	for _, method := range []Method{MethodRH, MethodRHTALU} {
		inst := journaledInstance(311, 40, 5, 50)
		phase1 := inst.Queries(rand.New(rand.NewSource(313)), 1500)
		phase2 := inst.Queries(rand.New(rand.NewSource(314)), 600)
		bcfg := budget.Config{Policy: budget.PolicyHard, RefreshEvery: 4}

		dir := t.TempDir()
		w, err := journal.Open(dir, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		reset := New(inst, Config{Shards: 1, Method: method, ClickSeed: 23, Budget: bcfg, Journal: w})
		manual := New(inst, Config{Shards: 1, Method: method, ClickSeed: 23, Budget: bcfg})
		control := New(inst, Config{Shards: 1, Method: method, ClickSeed: 23, Budget: bcfg})
		reset.Serve(phase1)
		manual.Serve(phase1)
		control.Serve(phase1)

		_, preExhausted, _ := reset.Ledger().Totals()
		if preExhausted == 0 {
			t.Fatalf("method=%v: phase 1 exhausted nobody — reset would be a no-op", method)
		}
		oldLedger := reset.Ledger()

		led := reset.ResetBudgets()
		if led == nil || reset.Ledger() != led || led == oldLedger {
			t.Fatalf("method=%v: ResetBudgets did not install a fresh ledger", method)
		}
		if _, ex, _ := led.Totals(); ex != 0 {
			t.Fatalf("method=%v: fresh ledger starts with %d exhausted advertisers", method, ex)
		}
		for i := 0; i < inst.N; i++ {
			if led.ExactSpent(i) != 0 {
				t.Fatalf("method=%v: advertiser %d starts the new epoch with spend %v", method, i, led.ExactSpent(i))
			}
		}
		if got := w.Stats().Epoch; got != 2 {
			t.Fatalf("method=%v: journal epoch %d after reset, want 2", method, got)
		}
		// The manual reference swaps a directly constructed fresh ledger
		// onto every market — "a fresh-ledger engine" by hand.
		manLed := budget.NewLedger(inst.N, inst.Keywords, inst.Budget, bcfg)
		for q := 0; q < inst.Keywords; q++ {
			manual.KeywordMarket(q).SetLane(manLed.Lane(q))
		}
		manual.SetInstance(inst, manLed)

		resetOuts, _ := reset.ServeOutcomes(phase2)
		manualOuts, _ := manual.ServeOutcomes(phase2)
		controlOuts, _ := control.ServeOutcomes(phase2)
		diverged := false
		for a := range resetOuts {
			if !resetOuts[a].Equal(manualOuts[a]) {
				t.Fatalf("method=%v auction %d: reset outcome %+v != fresh-ledger outcome %+v",
					method, a, resetOuts[a], manualOuts[a])
			}
			if !resetOuts[a].Equal(controlOuts[a]) {
				diverged = true
			}
		}
		if !diverged {
			t.Fatalf("method=%v: post-reset outcomes identical to the no-reset engine — the gate never mattered", method)
		}
		for i := 0; i < inst.N; i++ {
			if math.Float64bits(reset.Ledger().ExactSpent(i)) != math.Float64bits(manLed.ExactSpent(i)) {
				t.Fatalf("method=%v advertiser %d: post-reset spend %v != fresh-ledger spend %v",
					method, i, reset.Ledger().ExactSpent(i), manLed.ExactSpent(i))
			}
		}
		// An advertiser exhausted before the reset spent again after it.
		respent := false
		for i := 0; i < inst.N; i++ {
			if oldLedger.Exhausted(i) && reset.Ledger().ExactSpent(i) > 0 {
				respent = true
				break
			}
		}
		if !respent {
			t.Fatalf("method=%v: no exhausted advertiser spent after re-admission", method)
		}
		reset.Close()
		manual.Close()
		control.Close()
		if err := w.Err(); err != nil {
			t.Fatalf("journal error: %v", err)
		}
	}
}

// TestEngineCloseIdempotent: Close with an open journal flushes once
// and closes the writer; a second Close is a no-op (and the journal
// recovers the final state).
func TestEngineCloseIdempotent(t *testing.T) {
	dir := t.TempDir()
	inst := journaledInstance(321, 30, 4, 80)
	w, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := New(inst, Config{Shards: 2, Method: MethodRH, ClickSeed: 31, Budget: budget.Config{Policy: budget.PolicyHard, RefreshEvery: 16}, Journal: w})
	e.Serve(inst.Queries(rand.New(rand.NewSource(322)), 500))
	live := make([]uint64, inst.N)
	for i := range live {
		live[i] = math.Float64bits(e.Ledger().ExactSpent(i))
	}
	e.Close()
	e.Close() // must be a no-op, not a double flush or double close
	if err := w.Close(); err != nil {
		t.Fatalf("journal already closed by the engine; extra Close must stay nil, got %v", err)
	}
	rec, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := range live {
		if math.Float64bits(rec.State.Spent(i)) != live[i] {
			t.Fatalf("advertiser %d: recovery after double close diverged", i)
		}
	}
}

// TestBudgetJournalSteadyStateAllocs: durability must not cost the
// click path its allocation-freedom — charges batch into the lane's
// preallocated buffer and the writer's append path reuses its encode
// buffer, so the journaled steady state stays at 0 allocs/op on both
// serving paths, at n=300 and the Section V n=1000. (CI runs this by
// the SteadyStateAllocs pattern.)
func TestBudgetJournalSteadyStateAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	for _, n := range []int{300, 1000} {
		for _, method := range []Method{MethodRH, MethodRHTALU} {
			t.Run(fmt.Sprintf("n=%d/%v", n, method), func(t *testing.T) {
				inst := workload.Generate(rand.New(rand.NewSource(331)), n, workload.DefaultSlots, workload.DefaultKeywords)
				workload.AttachBudgets(rand.New(rand.NewSource(332)), inst, 150)
				w, err := journal.Open(t.TempDir(), journal.Options{SnapshotEvery: 1 << 30})
				if err != nil {
					t.Fatal(err)
				}
				led := budget.NewLedger(inst.N, 1, inst.Budget, budget.Config{Policy: budget.PolicyHard, RefreshEvery: 16})
				if err := led.AttachJournal(w); err != nil {
					t.Fatal(err)
				}
				m := NewMarketOpts(inst, MarketOpts{Method: method, ClickSeed: 7, Lane: led.Lane(0)})
				queries := inst.Queries(rand.New(rand.NewSource(333)), 2000)
				if allocs := warmAllocs(m, queries, len(queries), 300); allocs != 0 {
					t.Fatalf("journaled steady state allocates %.2f objects/op, want 0", allocs)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
