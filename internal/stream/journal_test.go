package stream

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/workload"
)

// TestStreamBudgetResetEquivalence: a budget reset submitted mid-
// stream lands as an in-band fence, so the per-keyword outcome split
// is exact — everything submitted before ResetBudgets runs against
// the exhausted ledger, everything after against the fresh one, and
// the whole sequence is byte-identical to a batch engine that serves
// the same phases around an Engine.ResetBudgets call. Single shard
// and no periodic flusher: budget gating reads boundedly-stale
// cross-lane publishes, so byte-level equivalence needs one total
// order on both sides. The streamed server journals throughout;
// recovery after the drain must land on the post-reset epoch with
// bitwise lane totals.
func TestStreamBudgetResetEquivalence(t *testing.T) {
	inst := budgetedInstance(81, 40, 4, 5, 50)
	phase1 := inst.Queries(rand.New(rand.NewSource(82)), 1500)
	phase2 := inst.Queries(rand.New(rand.NewSource(83)), 700)
	ecfg := engine.Config{Shards: 1, QueueDepth: 8, Method: engine.MethodRHTALU, ClickSeed: 21,
		Budget: budget.Config{Policy: budget.PolicyHard, RefreshEvery: 4}}

	// Batch reference: serve, reset, serve again.
	ref := engine.New(inst, ecfg)
	refOuts1, _ := ref.ServeOutcomes(phase1)
	if _, preExhausted, _ := ref.Ledger().Totals(); preExhausted == 0 {
		t.Fatal("phase 1 exhausted nobody — the reset fence would be a no-op")
	}
	if ref.ResetBudgets() == nil {
		t.Fatal("reference ResetBudgets returned nil with budgets on")
	}
	refOuts2, _ := ref.ServeOutcomes(phase2)
	ref.Close()
	want := make([][]*engine.Outcome, inst.Keywords)
	for _, o := range append(refOuts1, refOuts2...) {
		want[o.Query] = append(want[o.Query], o)
	}

	dir := t.TempDir()
	w, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	jcfg := ecfg
	jcfg.Journal = w
	sink, got := collectPerKeyword(inst.Keywords)
	// No mid-test flush fence: the default 250 ms flusher would publish
	// lanes at timing-dependent auction boundaries.
	s := NewServer(inst, Config{Engine: jcfg, Sink: sink, BudgetFlush: time.Hour})
	for _, q := range phase1 {
		s.Submit(q)
	}
	if err := s.ResetBudgets(); err != nil {
		t.Fatal(err)
	}
	for _, q := range phase2 {
		s.Submit(q)
	}
	st := s.Close()
	if st.Served != int64(len(phase1)+len(phase2)) {
		t.Fatalf("served %d of %d", st.Served, len(phase1)+len(phase2))
	}
	comparePerKeyword(t, "budget-reset", got, want)

	// The drain flushed the journal; recovery is the post-reset epoch.
	rec, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.CorruptOffset != -1 {
		t.Fatalf("clean drain recovered corrupt at %d (%s)", rec.CorruptOffset, rec.CorruptReason)
	}
	if rec.State.Epoch != 2 {
		t.Fatalf("recovered epoch %d, want 2 (boot + reset)", rec.State.Epoch)
	}
	led := s.Engine().Ledger()
	for i := 0; i < inst.N; i++ {
		if math.Float64bits(rec.State.Spent(i)) != math.Float64bits(led.ExactSpent(i)) {
			t.Fatalf("advertiser %d: recovered %v != post-reset ledger %v",
				i, rec.State.Spent(i), led.ExactSpent(i))
		}
	}
}

// TestStreamResetBudgetsErrors: the reset call fails cleanly on a
// budget-less server and on a closed one.
func TestStreamResetBudgetsErrors(t *testing.T) {
	inst := workload.Generate(rand.New(rand.NewSource(84)), 20, 3, 4)
	s := NewServer(inst, Config{Engine: engine.Config{Shards: 2, ClickSeed: 1}})
	if err := s.ResetBudgets(); err == nil {
		t.Fatal("ResetBudgets succeeded without budgets")
	}
	s.Close()
	if err := s.ResetBudgets(); err == nil {
		t.Fatal("ResetBudgets succeeded on a closed server")
	}
}

// TestStreamCloseIdempotentJournal is TestStreamCloseEmpty's journaled
// sibling: the first Close drains, flushes the lanes' batches, and
// closes the journal; the second Close is a no-op that returns the
// same snapshot and appends nothing further. The engine owns the
// writer, so an extra caller-side Close is also a nil-error no-op.
func TestStreamCloseIdempotentJournal(t *testing.T) {
	inst := budgetedInstance(85, 30, 4, 5, 60)
	dir := t.TempDir()
	w, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(inst, Config{Engine: engine.Config{Shards: 2, QueueDepth: 8,
		Method: engine.MethodRH, ClickSeed: 3, Journal: w,
		Budget: budget.Config{Policy: budget.PolicyHard, RefreshEvery: 8}}})
	for _, q := range inst.Queries(rand.New(rand.NewSource(86)), 900) {
		s.Submit(q)
	}
	st := s.Close()
	records := w.Stats().Records
	if records == 0 {
		t.Fatal("drained server journaled nothing")
	}
	if again := s.Close(); again != st {
		t.Fatal("second Close returned a different snapshot")
	}
	if got := w.Stats().Records; got != records {
		t.Fatalf("second Close appended records: %d -> %d", records, got)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("extra writer Close after the engine's: %v", err)
	}
	rec, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	led := s.Engine().Ledger()
	for i := 0; i < inst.N; i++ {
		if math.Float64bits(rec.State.Spent(i)) != math.Float64bits(led.ExactSpent(i)) {
			t.Fatalf("advertiser %d: recovered %v != drained ledger %v",
				i, rec.State.Spent(i), led.ExactSpent(i))
		}
	}
}
