package stream

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/engine"
	"repro/internal/racetest"
	"repro/internal/workload"
)

// soakDur is the length of the randomized soak (TestStreamSoak); CI's
// race-enabled soak step raises it (go test ./internal/stream -race
// -soak=5s).
var soakDur = flag.Duration("soak", 600*time.Millisecond, "duration of the randomized streaming soak")

// collectPerKeyword returns a Sink that clones every outcome into a
// per-keyword sequence. A keyword is served by exactly one shard
// goroutine, so the per-keyword slices need no locking; reading them
// is safe once Close has returned.
func collectPerKeyword(keywords int) (func(*engine.Outcome), [][]*engine.Outcome) {
	got := make([][]*engine.Outcome, keywords)
	return func(out *engine.Outcome) {
		got[out.Query] = append(got[out.Query], out.Clone())
	}, got
}

// phasedReference serves each phase's query subsequence through a
// freshly built engine over that phase's population — the literal
// "freshly built engine with the post-churn population" of the churn
// contract — and returns the expected per-keyword outcome sequences,
// concatenated across phases.
func phasedReference(t *testing.T, cfg engine.Config, phases []struct {
	inst    *workload.Instance
	queries []int
}) [][]*engine.Outcome {
	t.Helper()
	keywords := phases[0].inst.Keywords
	want := make([][]*engine.Outcome, keywords)
	for _, ph := range phases {
		fresh := engine.New(ph.inst, cfg)
		outs, st := fresh.ServeOutcomes(ph.queries)
		if st.Auctions != len(ph.queries) {
			t.Fatalf("reference engine served %d of %d", st.Auctions, len(ph.queries))
		}
		for _, o := range outs {
			want[o.Query] = append(want[o.Query], o)
		}
	}
	return want
}

func comparePerKeyword(t *testing.T, label string, got, want [][]*engine.Outcome) {
	t.Helper()
	for q := range want {
		if len(got[q]) != len(want[q]) {
			t.Fatalf("%s: kw %d served %d auctions, want %d", label, q, len(got[q]), len(want[q]))
		}
		for a := range want[q] {
			if !got[q][a].Equal(want[q][a]) {
				t.Fatalf("%s: kw %d auction %d: streamed %+v != fresh-engine %+v",
					label, q, a, got[q][a], want[q][a])
			}
		}
	}
}

// TestStreamMatchesBatchEngine: batch and stream are one serving loop —
// the same query sequence through Engine.ServeOutcomes and through
// SubmitFunc yields byte-identical per-keyword outcome sequences,
// under a budget policy so the batch barrier's flush and the drain's
// flush are both exercised. A refresh cadence longer than the run
// makes those flushes the only publishers: the batch ledger must be
// current when ServeOutcomes returns. With one shard the budgets bind
// (every lane lives on one goroutine, so gating is deterministic);
// with three they are too generous to bind, because cross-lane spend
// is only boundedly stale there. Run under -race this also exercises
// the engine's workers against concurrent Stats.
func TestStreamMatchesBatchEngine(t *testing.T) {
	for _, method := range []engine.Method{engine.MethodRH, engine.MethodRHTALU} {
		for _, shards := range []int{1, 3} {
			label := fmt.Sprintf("%v/shards=%d", method, shards)
			mean := 60.0
			if shards > 1 {
				mean = 1e9
			}
			inst := budgetedInstance(31, 70, 5, 7, mean)
			queries := inst.Queries(rand.New(rand.NewSource(32)), 800)
			ecfg := engine.Config{Shards: shards, QueueDepth: 8, Method: method, ClickSeed: 19,
				Budget: budget.Config{Policy: budget.PolicyHard, RefreshEvery: 1 << 20}}

			batch := engine.New(inst, ecfg)
			outs, _ := batch.ServeOutcomes(queries)
			want := make([][]*engine.Outcome, inst.Keywords)
			for _, o := range outs {
				want[o.Query] = append(want[o.Query], o)
			}
			led := batch.Ledger()
			var published float64
			for i := 0; i < inst.N; i++ {
				exact := led.ExactSpent(i)
				if d := led.Spent(i) - exact; math.Abs(d) > 1e-9*math.Max(1, exact) {
					t.Fatalf("%s: advertiser %d: published %v != exact %v after Serve returned", label, i, led.Spent(i), exact)
				}
				published += led.Spent(i)
			}
			if published == 0 {
				t.Fatalf("%s: nothing published at the batch barrier", label)
			}
			if _, exhausted, _ := led.Totals(); (exhausted > 0) != (shards == 1) {
				t.Fatalf("%s: %d advertisers exhausted", label, exhausted)
			}
			batch.Close()

			got := make([][]*engine.Outcome, inst.Keywords)
			collect := func(out *engine.Outcome) {
				got[out.Query] = append(got[out.Query], out.Clone())
			}
			s := NewServer(inst, Config{Engine: ecfg, BudgetFlush: time.Hour})
			done := make(chan struct{})
			go func() { // concurrent observer: snapshots must never tear
				defer close(done)
				for i := 0; i < 50; i++ {
					s.Stats()
					time.Sleep(time.Millisecond)
				}
			}()
			for _, q := range queries {
				if s.SubmitFunc(q, collect) != SubmitQueued {
					t.Fatal("Block-policy Submit rejected a query on an open server")
				}
			}
			st := s.Close()
			<-done
			if st.Submitted != int64(len(queries)) || st.Served != int64(len(queries)) ||
				st.Shed != 0 || st.Pending != 0 {
				t.Fatalf("%s: accounting: %+v", label, st)
			}
			comparePerKeyword(t, label, got, want)
			for i := 0; i < inst.N; i++ {
				if a, b := s.Engine().Ledger().ExactSpent(i), led.ExactSpent(i); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("%s: advertiser %d: streamed spend %v != batch spend %v", label, i, a, b)
				}
			}
		}
	}
}

// TestQueueDepthGauge: ssa_engine_queue_depth reads the one queue set
// every mode serves from. With a shard parked inside a SubmitFunc
// callback and queries queued behind it, the gauge equals the summed
// per-shard Queued of a Stats snapshot.
func TestQueueDepthGauge(t *testing.T) {
	inst := workload.Generate(rand.New(rand.NewSource(33)), 20, 3, 4)
	s := NewServer(inst, Config{Engine: engine.Config{Shards: 2, QueueDepth: 8, Method: engine.MethodRH}})
	parked, release := make(chan struct{}), make(chan struct{})
	s.SubmitFunc(0, func(*engine.Outcome) {
		close(parked)
		<-release
	})
	<-parked
	for i := 0; i < 5; i++ {
		s.Submit(0) // keyword 0 lives on the parked shard
	}
	queued := 0
	for _, sh := range s.Stats().PerShard {
		queued += sh.Queued
	}
	gauge := -1.0
	for _, line := range strings.Split(string(s.Engine().Metrics().Registry.Render()), "\n") {
		if v, ok := strings.CutPrefix(line, "ssa_engine_queue_depth "); ok {
			gauge, _ = strconv.ParseFloat(v, 64)
		}
	}
	close(release)
	s.Close()
	if queued != 5 || gauge != float64(queued) {
		t.Fatalf("gauge %v, summed Stats().PerShard[i].Queued %d, want both 5", gauge, queued)
	}
}

// TestStreamChurnEquivalence is the churn contract, pinned under
// -race: scripted add/remove events are applied mid-stream with
// queries still in flight (no quiescing), and every post-churn
// outcome must be byte-identical to a freshly built engine over the
// post-churn population serving the same subsequences. The in-band
// epoch fence makes the phase split exact per keyword: everything
// submitted before a churn call runs against the old population,
// everything after against the new one.
func TestStreamChurnEquivalence(t *testing.T) {
	for _, method := range []engine.Method{engine.MethodRH, engine.MethodRHTALU} {
		inst0 := workload.Generate(rand.New(rand.NewSource(33)), 50, 5, 6)
		rng := rand.New(rand.NewSource(34))
		qrng := rand.New(rand.NewSource(35))

		newcomerA := workload.RandomAdvertiser(rng, inst0.Slots, inst0.Keywords)
		newcomerB := workload.RandomAdvertiser(rng, inst0.Slots, inst0.Keywords)
		inst1, err := inst0.WithAdvertiser(newcomerA)
		if err != nil {
			t.Fatal(err)
		}
		inst2, err := inst1.WithoutAdvertiser(7)
		if err != nil {
			t.Fatal(err)
		}
		inst3, err := inst2.WithAdvertiser(newcomerB)
		if err != nil {
			t.Fatal(err)
		}

		phases := []struct {
			inst    *workload.Instance
			queries []int
		}{
			{inst0, inst0.Queries(qrng, 300)},
			{inst1, inst1.Queries(qrng, 250)},
			{inst2, inst2.Queries(qrng, 250)},
			{inst3, inst3.Queries(qrng, 200)},
		}

		for _, shards := range []int{1, 3} {
			ecfg := engine.Config{Shards: shards, QueueDepth: 4, Method: method, ClickSeed: 23}
			sink, got := collectPerKeyword(inst0.Keywords)
			s := NewServer(inst0, Config{Engine: ecfg, Sink: sink})

			for i, ph := range phases {
				for _, q := range ph.queries {
					s.Submit(q)
				}
				// Churn immediately — queries from this phase are still
				// queued; the fence must split the phases exactly anyway.
				switch i {
				case 0:
					idx, err := s.AddAdvertiser(newcomerA)
					if err != nil || idx != inst0.N {
						t.Fatalf("AddAdvertiser: idx=%d err=%v", idx, err)
					}
				case 1:
					if err := s.RemoveAdvertiser(7); err != nil {
						t.Fatal(err)
					}
				case 2:
					if _, err := s.AddAdvertiser(newcomerB); err != nil {
						t.Fatal(err)
					}
				}
			}
			st := s.Close()

			if st.Epoch != 3 {
				t.Fatalf("method=%v shards=%d: epoch %d, want 3", method, shards, st.Epoch)
			}
			for i, ps := range st.PerShard {
				if ps.Epoch != 3 {
					t.Fatalf("method=%v shard %d drained at epoch %d, want 3", method, i, ps.Epoch)
				}
			}
			if !reflect.DeepEqual(s.Instance(), inst3) {
				t.Fatalf("method=%v shards=%d: final population differs from the scripted post-churn instance", method, shards)
			}
			if st.Advertisers != inst3.N {
				t.Fatalf("Advertisers = %d, want %d", st.Advertisers, inst3.N)
			}

			want := phasedReference(t, ecfg, phases)
			comparePerKeyword(t, method.String(), got, want)
		}
	}
}

// TestStreamChurnEquivalenceHeavy extends the churn contract to the
// Section III-F serving path: the epoch fence rebuilds heavyweight
// markets (persistent HeavyDeterminer state included) exactly as a
// fresh engine would build them.
func TestStreamChurnEquivalenceHeavy(t *testing.T) {
	inst0 := workload.GenerateHeavy(rand.New(rand.NewSource(36)), 24, 4, 3, 0.3, 0.4)
	rng := rand.New(rand.NewSource(37))
	qrng := rand.New(rand.NewSource(38))
	joiner := workload.RandomAdvertiser(rng, inst0.Slots, inst0.Keywords)
	joiner.Heavy = true
	inst1, err := inst0.WithAdvertiser(joiner)
	if err != nil {
		t.Fatal(err)
	}
	phases := []struct {
		inst    *workload.Instance
		queries []int
	}{
		{inst0, inst0.Queries(qrng, 120)},
		{inst1, inst1.Queries(qrng, 120)},
	}
	ecfg := engine.Config{Shards: 2, QueueDepth: 4, Method: engine.MethodHeavy, ClickSeed: 29}
	sink, got := collectPerKeyword(inst0.Keywords)
	s := NewServer(inst0, Config{Engine: ecfg, Sink: sink})
	for _, q := range phases[0].queries {
		s.Submit(q)
	}
	if _, err := s.AddAdvertiser(joiner); err != nil {
		t.Fatal(err)
	}
	for _, q := range phases[1].queries {
		s.Submit(q)
	}
	s.Close()
	want := phasedReference(t, ecfg, phases)
	comparePerKeyword(t, "heavy", got, want)
}

// TestStreamShedAccounting: under the Shed policy every submission is
// accounted exactly once — Submitted == Served + Shed after the drain
// — the rejected submissions are the ones Submit reported false, and
// saturating a 1-deep queue from a tight loop must actually shed.
func TestStreamShedAccounting(t *testing.T) {
	inst := workload.Generate(rand.New(rand.NewSource(39)), 300, 8, 4)
	s := NewServer(inst, Config{
		Engine:   engine.Config{Shards: 2, QueueDepth: 1, Method: engine.MethodRH, ClickSeed: 3},
		Overload: Shed,
	})
	const n = 4000
	qs := inst.Queries(rand.New(rand.NewSource(40)), n)
	rejected := 0
	for _, q := range qs {
		if !s.Submit(q) {
			rejected++
		}
	}
	st := s.Close()
	if st.Submitted != n {
		t.Fatalf("Submitted = %d, want %d", st.Submitted, n)
	}
	if st.Served+st.Shed != st.Submitted || st.Pending != 0 {
		t.Fatalf("shed accounting leak: served %d + shed %d != submitted %d (pending %d)",
			st.Served, st.Shed, st.Submitted, st.Pending)
	}
	if int64(rejected) != st.Shed {
		t.Fatalf("Submit reported %d rejections, stats counted %d shed", rejected, st.Shed)
	}
	if st.Shed == 0 {
		t.Fatal("tight-loop submission into 1-deep queues shed nothing")
	}
	if st.Served == 0 {
		t.Fatal("no auctions served")
	}
	var perShard int64
	for _, ps := range st.PerShard {
		perShard += int64(ps.Served) + ps.Shed
	}
	if perShard != st.Submitted {
		t.Fatalf("per-shard breakdown sums to %d, want %d", perShard, st.Submitted)
	}
}

// TestStreamCloseSemantics: Close drains everything queued, later
// Closes return the same flushed snapshot, and a closed server
// rejects submissions (uncounted) and churn (error).
func TestStreamCloseSemantics(t *testing.T) {
	inst := workload.Generate(rand.New(rand.NewSource(41)), 40, 4, 5)
	s := NewServer(inst, Config{Engine: engine.Config{Shards: 2, QueueDepth: 16, Method: engine.MethodRH, ClickSeed: 5}})
	qs := inst.Queries(rand.New(rand.NewSource(42)), 500)
	for _, q := range qs {
		s.Submit(q)
	}
	st := s.Close() // likely still queued work: drain must serve it all
	if st.Served != int64(len(qs)) || st.Pending != 0 {
		t.Fatalf("drain incomplete: served %d of %d (pending %d)", st.Served, len(qs), st.Pending)
	}
	if again := s.Close(); again != st {
		t.Fatal("second Close did not return the flushed snapshot")
	}
	if s.Submit(3) {
		t.Fatal("Submit accepted on a closed server")
	}
	if s.Stats().Submitted != st.Submitted {
		t.Fatal("post-close Submit was counted")
	}
	if s.SubmitText("zzz unroutable junk") {
		t.Fatal("SubmitText accepted on a closed server")
	}
	if s.Stats().Unrouted != st.Unrouted {
		t.Fatal("post-close SubmitText was counted in Unrouted")
	}
	if _, err := s.AddAdvertiser(workload.RandomAdvertiser(rand.New(rand.NewSource(43)), inst.Slots, inst.Keywords)); err == nil {
		t.Fatal("AddAdvertiser accepted on a closed server")
	}
	if err := s.RemoveAdvertiser(0); err == nil {
		t.Fatal("RemoveAdvertiser accepted on a closed server")
	}
}

// TestStreamTextRouting: SubmitText under a mixed routed/unrouted
// stream — unrouted text is counted in Unrouted, never queued, and
// the routed subsequence's outcomes are exactly the keyword-submitted
// ones.
func TestStreamTextRouting(t *testing.T) {
	inst := workload.Generate(rand.New(rand.NewSource(44)), 40, 4, 3)
	names := []string{"leather boot", "running shoe", "garden hose"}
	ecfg := engine.Config{Shards: 2, Method: engine.MethodRH, ClickSeed: 7, KeywordNames: names}
	sink, got := collectPerKeyword(inst.Keywords)
	s := NewServer(inst, Config{Engine: ecfg, Sink: sink})

	junk := []string{"quantum gravity", "", "zzz"}
	rng := rand.New(rand.NewSource(45))
	var routedKw []int
	wantUnrouted := 0
	for i := 0; i < 600; i++ {
		if rng.Intn(3) == 0 {
			if s.SubmitText(junk[rng.Intn(len(junk))]) {
				t.Fatal("unrouted text reported accepted")
			}
			wantUnrouted++
		} else {
			kw := rng.Intn(len(names))
			if !s.SubmitText(names[kw]) {
				t.Fatal("routed text rejected under Block policy")
			}
			routedKw = append(routedKw, kw)
		}
	}
	st := s.Close()
	if st.Unrouted != int64(wantUnrouted) {
		t.Fatalf("Unrouted = %d, want %d", st.Unrouted, wantUnrouted)
	}
	if st.Submitted != int64(len(routedKw)) || st.Served != int64(len(routedKw)) {
		t.Fatalf("routed accounting: submitted %d served %d, want %d", st.Submitted, st.Served, len(routedKw))
	}
	want := phasedReference(t, ecfg, []struct {
		inst    *workload.Instance
		queries []int
	}{{inst, routedKw}})
	comparePerKeyword(t, "text", got, want)
}

// TestStreamSteadyStateAllocs: the streaming auction path — Submit,
// channel hand-off, ServeOne in the persistent worker, rolling-window
// bookkeeping — performs zero heap allocations per query in steady
// state, extending the engine's allocation-free guarantee to the
// open-world layer.
func TestStreamSteadyStateAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	inst := workload.Generate(rand.New(rand.NewSource(46)), 300, 8, 6)
	s := NewServer(inst, Config{
		Engine: engine.Config{Shards: 2, QueueDepth: 64, Method: engine.MethodRH, ClickSeed: 9},
		Window: 256,
	})
	qs := inst.Queries(rand.New(rand.NewSource(47)), 4096)
	for _, q := range qs[:2048] {
		s.Submit(q)
	}
	next := 2048
	allocs := testing.AllocsPerRun(1500, func() {
		s.Submit(qs[next%len(qs)])
		next++
	})
	st := s.Close()
	if allocs != 0 {
		t.Fatalf("steady-state streamed auction allocates %.2f objects/op, want 0", allocs)
	}
	if st.Served != st.Submitted {
		t.Fatalf("drain lost queries: %d served of %d", st.Served, st.Submitted)
	}
}

// TestStreamWindowRing: the rolling window wraps, keeping only the
// newest completion stamps, and the age cutoff excludes stale entries
// from shards that have gone cold. (Latency percentiles left the ring
// in PR 10 — they now come from the telemetry histogram, pinned by
// TestStreamHistogramPercentiles.)
func TestStreamWindowRing(t *testing.T) {
	w := newWindow(4)
	for i := 1; i <= 6; i++ {
		w.add(int64(i * 1000))
	}
	if w.count() != 4 {
		t.Fatalf("count = %d, want 4", w.count())
	}
	// Samples 3..6 survive the wrap: 4 completions spanning 3000..6000
	// ns → 3 intervals over 3µs = 1e6/s.
	var st Stats
	st.summarize(w.appendTo(nil), 0)
	if want := 1e9 / 1000.0; st.WindowThroughput != want {
		t.Fatalf("window throughput = %v, want %v", st.WindowThroughput, want)
	}
	// Age cutoff: only completions at/after 5000 remain (5000, 6000).
	var recent Stats
	recent.summarize(w.appendTo(nil), 5000)
	if want := 1e9 / 1000.0; recent.WindowThroughput != want {
		t.Fatalf("cutoff throughput = %v, want %v", recent.WindowThroughput, want)
	}
	// Fully stale input yields zeroed figures.
	var stale Stats
	stale.summarize(w.appendTo(nil), 99999)
	if stale.WindowThroughput != 0 {
		t.Fatalf("stale-only window not zeroed: %+v", stale)
	}
}

// TestStreamHistogramPercentiles: the snapshot's latency percentiles
// are quantiles of the engine's telemetry histogram — nonzero once
// auctions have been served, with Max ≥ P99 ≥ P95 ≥ P50 > 0 and Max
// exact (every recorded latency is ≤ Max).
func TestStreamHistogramPercentiles(t *testing.T) {
	inst := workload.Generate(rand.New(rand.NewSource(57)), 200, 8, 5)
	s := NewServer(inst, Config{
		Engine: engine.Config{Shards: 2, QueueDepth: 32, Method: engine.MethodRH, ClickSeed: 3},
	})
	qs := inst.Queries(rand.New(rand.NewSource(58)), 3000)
	for _, q := range qs {
		s.Submit(q)
	}
	st := s.Close()
	if st.P50 <= 0 || st.P95 < st.P50 || st.P99 < st.P95 || st.Max < st.P99 {
		t.Fatalf("percentiles not ordered: p50=%v p95=%v p99=%v max=%v", st.P50, st.P95, st.P99, st.Max)
	}
	if got := s.Engine().Metrics().Latency.Count(); got != int64(st.Served) {
		t.Fatalf("histogram count %d != served %d", got, st.Served)
	}
}

// TestStreamSoak is the randomized race soak CI runs with -race and a
// longer -soak: concurrent submitters (keyword and text), a churner
// alternating admissions and evictions, and a stats poller all hammer
// a Shed-policy server; the drain must still account every query and
// land every shard on the final epoch.
func TestStreamSoak(t *testing.T) {
	inst := workload.Generate(rand.New(rand.NewSource(48)), 120, 6, 8)
	names := []string{"alpha boot", "beta shoe", "gamma hose", "delta lamp", "epsilon desk", "zeta chair", "eta stove", "theta rug"}
	s := NewServer(inst, Config{
		Engine:   engine.Config{Shards: 4, QueueDepth: 8, Method: engine.MethodRHTALU, ClickSeed: 11, KeywordNames: names},
		Overload: Shed,
		Window:   512,
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var rejected atomic.Int64

	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if rng.Intn(4) == 0 {
					s.SubmitText(names[rng.Intn(len(names))])
				} else if !s.Submit(rng.Intn(inst.Keywords)) {
					rejected.Add(1)
				}
			}
		}(int64(100 + w))
	}
	wg.Add(1)
	go func() { // churner: the server is the only population authority
		defer wg.Done()
		rng := rand.New(rand.NewSource(200))
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			if rng.Intn(2) == 0 {
				if _, err := s.AddAdvertiser(workload.RandomAdvertiser(rng, inst.Slots, inst.Keywords)); err != nil {
					t.Errorf("soak AddAdvertiser: %v", err)
					return
				}
			} else if n := s.Instance().N; n > 1 {
				if err := s.RemoveAdvertiser(rng.Intn(n)); err != nil {
					t.Errorf("soak RemoveAdvertiser: %v", err)
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() { // poller
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			st := s.Stats()
			if st.Pending < 0 || st.Served+st.Shed+st.Pending != st.Submitted {
				t.Errorf("live snapshot violated the accounting identity: %+v", st)
				return
			}
		}
	}()

	time.Sleep(*soakDur)
	close(stop)
	wg.Wait()
	st := s.Close()

	if st.Served+st.Shed != st.Submitted || st.Pending != 0 {
		t.Fatalf("soak accounting leak: %+v", st)
	}
	if st.Served == 0 {
		t.Fatal("soak served nothing")
	}
	for i, ps := range st.PerShard {
		if ps.Epoch != st.Epoch {
			t.Fatalf("shard %d drained at epoch %d, server at %d", i, ps.Epoch, st.Epoch)
		}
	}
	if st.Advertisers != s.Instance().N {
		t.Fatalf("Advertisers %d != instance N %d", st.Advertisers, s.Instance().N)
	}
	t.Logf("soak: submitted=%d served=%d shed=%d unrouted=%d epochs=%d advertisers=%d p99=%v",
		st.Submitted, st.Served, st.Shed, st.Unrouted, st.Epoch, st.Advertisers, st.P99)
}

// budgetedInstance draws a Section V population with attached budgets
// scaled so a meaningful fraction of advertisers exhaust their caps
// within a few thousand auctions.
func budgetedInstance(seed int64, n, k, keywords int, meanAuctions float64) *workload.Instance {
	inst := workload.Generate(rand.New(rand.NewSource(seed)), n, k, keywords)
	workload.AttachBudgets(rand.New(rand.NewSource(seed+1)), inst, meanAuctions)
	return inst
}

// TestStreamBudgetLedgerExactness: after a graceful drain the
// published ledger snapshot is exact — every worker's final flush has
// landed — and the ledger totals equal the per-market accounting sums
// bitwise, advertiser by advertiser. The snapshot totals feed the
// Stats budget counters, which must agree with the drained ledger.
func TestStreamBudgetLedgerExactness(t *testing.T) {
	inst := budgetedInstance(71, 80, 6, 7, 60)
	s := NewServer(inst, Config{
		Engine: engine.Config{Shards: 3, QueueDepth: 16, Method: engine.MethodRHTALU, ClickSeed: 9,
			Budget: budget.Config{Policy: budget.PolicyHard, RefreshEvery: 32}},
		BudgetFlush: 5 * time.Millisecond,
	})
	queries := inst.Queries(rand.New(rand.NewSource(72)), 6000)
	for _, q := range queries {
		s.Submit(q)
	}
	st := s.Close()
	if st.Served != int64(len(queries)) {
		t.Fatalf("served %d of %d", st.Served, len(queries))
	}

	led := s.Engine().Ledger()
	if led == nil {
		t.Fatal("budget-enabled server has no ledger")
	}
	var snapTotal float64
	exhausted := 0
	for i := 0; i < inst.N; i++ {
		var want float64
		for q := 0; q < inst.Keywords; q++ {
			want += s.Engine().KeywordMarket(q).Accounting().SpentTotal[i]
		}
		if got := led.ExactSpent(i); got != want {
			t.Fatalf("advertiser %d: ledger %v != Σ per-market spend %v", i, got, want)
		}
		// Drained snapshot: every lane flushed, so the published value
		// differs from exact only by float summation order.
		if snap := led.Spent(i); math.Abs(snap-led.ExactSpent(i)) > 1e-6 {
			t.Fatalf("advertiser %d: drained snapshot %v far from exact %v", i, snap, led.ExactSpent(i))
		}
		snapTotal += led.Spent(i)
		if led.Exhausted(i) {
			exhausted++
		}
	}
	if exhausted == 0 {
		t.Fatal("no advertiser exhausted its budget — the trace does not exercise enforcement")
	}
	if st.BudgetExhausted != exhausted {
		t.Fatalf("Stats.BudgetExhausted %d != ledger count %d", st.BudgetExhausted, exhausted)
	}
	if math.Abs(st.BudgetSpent-snapTotal) > 1e-6 {
		t.Fatalf("Stats.BudgetSpent %v != snapshot total %v", st.BudgetSpent, snapTotal)
	}
	if st.BudgetDenied == 0 {
		t.Fatal("no denials recorded despite exhausted advertisers")
	}
	t.Logf("drain: spent=%.1f exhausted=%d denied=%d", st.BudgetSpent, st.BudgetExhausted, st.BudgetDenied)
}

// TestStreamBudgetChurnFreshLedger: a churn rebuilds the ledger with
// the population, exactly as it rebuilds markets — the post-churn
// ledger covers the new advertiser count and starts from zero spend,
// and the drain exactness contract holds for the post-churn epoch.
func TestStreamBudgetChurnFreshLedger(t *testing.T) {
	inst := budgetedInstance(73, 30, 4, 5, 50)
	s := NewServer(inst, Config{
		Engine: engine.Config{Shards: 2, QueueDepth: 8, Method: engine.MethodRH, ClickSeed: 4,
			Budget: budget.Config{Policy: budget.PolicyHard, RefreshEvery: 8}},
	})
	for _, q := range inst.Queries(rand.New(rand.NewSource(74)), 800) {
		s.Submit(q)
	}
	oldLed := s.Engine().Ledger()
	a := workload.RandomAdvertiser(rand.New(rand.NewSource(75)), inst.Slots, inst.Keywords)
	a.Budget = 123
	idx, err := s.AddAdvertiser(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range inst.Queries(rand.New(rand.NewSource(76)), 800) {
		s.Submit(q)
	}
	s.Close()

	led := s.Engine().Ledger()
	if led == oldLed {
		t.Fatal("churn did not build a fresh ledger")
	}
	if led.N() != inst.N+1 {
		t.Fatalf("post-churn ledger covers %d advertisers, want %d", led.N(), inst.N+1)
	}
	if got := led.Budget(idx); got != 123 {
		t.Fatalf("newcomer budget %v, want 123", got)
	}
	for i := 0; i < led.N(); i++ {
		var want float64
		for q := 0; q < inst.Keywords; q++ {
			want += s.Engine().KeywordMarket(q).Accounting().SpentTotal[i]
		}
		if got := led.ExactSpent(i); got != want {
			t.Fatalf("post-churn advertiser %d: ledger %v != accounting %v", i, got, want)
		}
	}
}

// TestStreamCloseEmpty: a server closed without ever serving traffic
// must flush well-defined statistics — zero counts, zero percentiles,
// no NaN, no panic — and so must a live snapshot of an idle server.
// The rolling window is empty in both cases.
func TestStreamCloseEmpty(t *testing.T) {
	inst := workload.Generate(rand.New(rand.NewSource(77)), 20, 3, 4)
	s := NewServer(inst, Config{Engine: engine.Config{Shards: 2, ClickSeed: 1}})
	live := s.Stats()
	st := s.Close()
	for name, snap := range map[string]*Stats{"live": live, "final": st} {
		if snap.Submitted != 0 || snap.Served != 0 || snap.Shed != 0 || snap.Pending != 0 || snap.Unrouted != 0 {
			t.Fatalf("%s: idle server counted traffic: %+v", name, snap)
		}
		if snap.P50 != 0 || snap.P95 != 0 || snap.P99 != 0 || snap.Max != 0 {
			t.Fatalf("%s: empty window produced percentiles: %+v", name, snap)
		}
		for metric, v := range map[string]float64{
			"Throughput": snap.Throughput, "WindowThroughput": snap.WindowThroughput,
			"Revenue": snap.Revenue, "BudgetSpent": snap.BudgetSpent,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v != 0 {
				t.Fatalf("%s: %s = %v on an idle server, want 0", name, metric, v)
			}
		}
		if len(snap.PerShard) != s.Shards() {
			t.Fatalf("%s: %d shard entries, want %d", name, len(snap.PerShard), s.Shards())
		}
	}
	// Idempotent re-close returns the same snapshot.
	if again := s.Close(); again != st {
		t.Fatal("second Close returned a different snapshot")
	}
}

// TestStreamSoakBudget is the budget-enabled churn soak CI runs under
// -race alongside TestStreamSoak: concurrent submitters against a
// budgeted Shed-policy server with the periodic flusher ticking fast,
// a churner replacing the population (and hence the ledger) live, and
// a stats poller reading the budget counters throughout. The drain
// must preserve the admission identity and the post-churn ledger
// exactness.
func TestStreamSoakBudget(t *testing.T) {
	inst := budgetedInstance(78, 100, 6, 8, 40)
	s := NewServer(inst, Config{
		Engine: engine.Config{Shards: 4, QueueDepth: 8, Method: engine.MethodRHTALU, ClickSeed: 13,
			Budget: budget.Config{Policy: budget.PolicyPaced, RefreshEvery: 16, Horizon: 2000, Seed: 6}},
		Overload:    Shed,
		Window:      256,
		BudgetFlush: time.Millisecond,
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Submit(rng.Intn(inst.Keywords))
			}
		}(int64(300 + w))
	}
	wg.Add(1)
	go func() { // churner: budgeted newcomers in, random evictions out
		defer wg.Done()
		rng := rand.New(rand.NewSource(400))
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			if rng.Intn(2) == 0 {
				a := workload.RandomAdvertiser(rng, inst.Slots, inst.Keywords)
				a.Budget = workload.RandomBudget(rng, a.Target, 40)
				if _, err := s.AddAdvertiser(a); err != nil {
					t.Errorf("soak AddAdvertiser: %v", err)
					return
				}
			} else if n := s.Instance().N; n > 1 {
				if err := s.RemoveAdvertiser(rng.Intn(n)); err != nil {
					t.Errorf("soak RemoveAdvertiser: %v", err)
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() { // poller exercising the budget counters concurrently
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			st := s.Stats()
			if st.BudgetSpent < 0 || math.IsNaN(st.BudgetSpent) || st.BudgetDenied < 0 {
				t.Errorf("budget counters corrupt: %+v", st)
				return
			}
			if st.Pending < 0 || st.Served+st.Shed+st.Pending != st.Submitted {
				t.Errorf("live snapshot violated the accounting identity: %+v", st)
				return
			}
		}
	}()

	time.Sleep(*soakDur)
	close(stop)
	wg.Wait()
	st := s.Close()
	if st.Served+st.Shed != st.Submitted || st.Pending != 0 {
		t.Fatalf("soak accounting leak: %+v", st)
	}
	if st.Served == 0 {
		t.Fatal("soak served nothing")
	}
	led := s.Engine().Ledger()
	for i := 0; i < led.N(); i++ {
		var want float64
		for q := 0; q < s.Instance().Keywords; q++ {
			want += s.Engine().KeywordMarket(q).Accounting().SpentTotal[i]
		}
		if got := led.ExactSpent(i); got != want {
			t.Fatalf("post-soak advertiser %d: ledger %v != accounting %v", i, got, want)
		}
	}
	t.Logf("budget soak: served=%d shed=%d epochs=%d spent=%.1f denied=%d exhausted=%d",
		st.Served, st.Shed, st.Epoch, st.BudgetSpent, st.BudgetDenied, st.BudgetExhausted)
}
