package stream

import (
	"math/rand"
	"testing"

	"repro/internal/broadmatch"
	"repro/internal/engine"
	"repro/internal/racetest"
	"repro/internal/workload"
)

// broadIdentity asserts the broad-match accounting identity after a
// drain: Submitted == Served + Shed + Unrouted + Overmatched, exact.
func broadIdentity(t *testing.T, label string, st *Stats) {
	t.Helper()
	if st.Submitted != st.Served+st.Shed+st.Unrouted+st.Overmatched {
		t.Fatalf("%s: broad identity broken: submitted %d != served %d + shed %d + unrouted %d + overmatched %d",
			label, st.Submitted, st.Served, st.Shed, st.Unrouted, st.Overmatched)
	}
	if st.Pending != 0 {
		t.Fatalf("%s: pending %d after drain", label, st.Pending)
	}
}

// TestBroadmatchNeutralMatchesExactRouter pins the off switch through
// the streaming layer: with neutral knobs (threshold 1, squash 1,
// reserve 0) a broad server's per-keyword outcome sequences are
// byte-identical to an exact-routing server fed the same text stream,
// across RH/TALU × shards 1/3 — and both accounting identities hold
// after the drain. Run under -race in CI's broadmatch equivalence
// step.
func TestBroadmatchNeutralMatchesExactRouter(t *testing.T) {
	for _, method := range []engine.Method{engine.MethodRH, engine.MethodRHTALU} {
		for _, shards := range []int{1, 3} {
			inst := workload.Generate(rand.New(rand.NewSource(51)), 70, 5, 7)
			names := workload.BigramKeywordNames(inst.Keywords)
			// Exact bigram names route identically in both modes
			// (relevance 1, a single admitted candidate); the junk
			// queries are unrouted in both.
			qrng := rand.New(rand.NewSource(52))
			texts := make([]string, 900)
			for i := range texts {
				if qrng.Intn(10) == 0 {
					texts[i] = "no such tokens"
				} else {
					texts[i] = names[qrng.Intn(inst.Keywords)]
				}
			}
			ecfg := engine.Config{Shards: shards, QueueDepth: 8, Method: method, ClickSeed: 19, KeywordNames: names}
			bcfg := ecfg
			bcfg.Broadmatch = broadmatch.Config{Enabled: true, Threshold: 1, Squash: 1, Seed: 61}

			sinkA, gotA := collectPerKeyword(inst.Keywords)
			exact := NewServer(inst, Config{Engine: ecfg, Sink: sinkA})
			for _, s := range texts {
				exact.SubmitText(s)
			}
			stA := exact.Close()

			sinkB, gotB := collectPerKeyword(inst.Keywords)
			broad := NewServer(inst, Config{Engine: bcfg, Sink: sinkB})
			for _, s := range texts {
				broad.SubmitText(s)
			}
			stB := broad.Close()

			label := method.String() + "/shards=" + string(rune('0'+shards))
			comparePerKeyword(t, label, gotB, gotA)
			if stA.Submitted != stA.Served+stA.Shed {
				t.Fatalf("%s: exact identity broken: %+v", label, stA)
			}
			broadIdentity(t, label, stB)
			if stB.Overmatched != 0 {
				t.Fatalf("%s: neutral broad match overmatched %d", label, stB.Overmatched)
			}
			if stA.Unrouted != stB.Unrouted || stA.Served != stB.Served ||
				stA.Revenue != stB.Revenue || stA.Clicks != stB.Clicks {
				t.Fatalf("%s: stats diverged: exact %+v, broad %+v", label, stA, stB)
			}
		}
	}
}

// broadStreamRun drives one seeded broad-match server over a
// deterministic text stream and returns its per-keyword outcomes and
// final stats.
func broadStreamRun(t *testing.T, method engine.Method, shards int) ([][]*engine.Outcome, *Stats) {
	t.Helper()
	inst := workload.Generate(rand.New(rand.NewSource(53)), 70, 5, 7)
	names := workload.BigramKeywordNames(inst.Keywords)
	ecfg := engine.Config{
		Shards: shards, QueueDepth: 16, Method: method, ClickSeed: 23,
		KeywordNames: names,
		Broadmatch:   broadmatch.Config{Enabled: true, Threshold: 0.4, Squash: 0.5, Seed: 71},
		Reserve:      2,
	}
	texts := workload.TextQueries(rand.New(rand.NewSource(54)), inst.Keywords, 1200, 3, 1.2)
	sink, got := collectPerKeyword(inst.Keywords)
	s := NewServer(inst, Config{Engine: ecfg, Sink: sink})
	for _, q := range texts {
		s.SubmitText(q)
	}
	return got, s.Close()
}

// TestBroadmatchReplayDeterminism pins the seeded-run contract: two
// servers with identical broad-match configuration over the identical
// Zipf text stream produce byte-identical per-keyword outcome
// sequences and identical counters — match draws are hashes, not
// shared RNG state, so concurrency cannot perturb them.
func TestBroadmatchReplayDeterminism(t *testing.T) {
	for _, method := range []engine.Method{engine.MethodRH, engine.MethodRHTALU} {
		gotA, stA := broadStreamRun(t, method, 3)
		gotB, stB := broadStreamRun(t, method, 3)
		comparePerKeyword(t, "replay/"+method.String(), gotB, gotA)
		broadIdentity(t, "replay/"+method.String(), stA)
		if stA.Submitted != stB.Submitted || stA.Served != stB.Served ||
			stA.Unrouted != stB.Unrouted || stA.Overmatched != stB.Overmatched ||
			stA.Revenue != stB.Revenue || stA.Clicks != stB.Clicks {
			t.Fatalf("replay/%v: counters diverged: %+v vs %+v", method, stA, stB)
		}
		if stA.Overmatched == 0 {
			t.Fatalf("replay/%v: broad stream never overmatched — threshold too tight to test fan-out", method)
		}
		// Shard count is a pure performance knob under broad match too:
		// the router resolves one winner before sharding, so per-keyword
		// sequences cannot depend on the shard topology. (Aggregate
		// Revenue is summed in shard order and may differ in the last
		// ulp; the per-keyword comparison is the byte-level contract.)
		gotC, stC := broadStreamRun(t, method, 1)
		comparePerKeyword(t, "shards/"+method.String(), gotC, gotA)
		if stC.Served != stA.Served || stC.Clicks != stA.Clicks || stC.Filled != stA.Filled {
			t.Fatalf("shards/%v: counters diverged across shard counts: %+v vs %+v", method, stC, stA)
		}
	}
}

// TestBroadmatchShedIdentity pins the accounting identity when the
// Shed policy actually drops queries: a deliberately tiny queue and a
// burst of submissions force sheds, and the drained identity must
// still balance exactly.
func TestBroadmatchShedIdentity(t *testing.T) {
	inst := workload.Generate(rand.New(rand.NewSource(55)), 70, 5, 7)
	names := workload.BigramKeywordNames(inst.Keywords)
	ecfg := engine.Config{
		Shards: 2, QueueDepth: 2, Method: engine.MethodRH, ClickSeed: 29,
		KeywordNames: names,
		Broadmatch:   broadmatch.Config{Enabled: true, Threshold: 0.4, Squash: 0.5, Seed: 73},
	}
	texts := workload.TextQueries(rand.New(rand.NewSource(56)), inst.Keywords, 3000, 3, 1.2)
	s := NewServer(inst, Config{Engine: ecfg, Overload: Shed})
	shed := 0
	for _, q := range texts {
		if s.SubmitTextFunc(q, nil) == SubmitShed {
			shed++
		}
	}
	st := s.Close()
	broadIdentity(t, "shed", st)
	if int64(shed) != st.Shed {
		t.Fatalf("shed count mismatch: submit-side %d, stats %d", shed, st.Shed)
	}
	if st.Shed == 0 {
		t.Fatal("tiny queues never shed — the shed leg of the identity went untested")
	}
}

// TestBroadmatchSteadyStateAllocs pins the router-path allocation
// contract end to end: SubmitText through broad-match routing, the
// shard queue, the weighted auction, and the rolling window must not
// allocate once warm, under both winner-determination pipelines.
func TestBroadmatchSteadyStateAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	for _, method := range []engine.Method{engine.MethodRH, engine.MethodRHTALU} {
		t.Run(method.String(), func(t *testing.T) {
			inst := workload.Generate(rand.New(rand.NewSource(57)), 300, 8, 6)
			names := workload.BigramKeywordNames(inst.Keywords)
			s := NewServer(inst, Config{
				Engine: engine.Config{
					Shards: 2, QueueDepth: 64, Method: method, ClickSeed: 9,
					KeywordNames: names,
					Broadmatch:   broadmatch.Config{Enabled: true, Threshold: 0.4, Squash: 0.5, Seed: 81},
					Reserve:      3,
				},
				Window: 256,
			})
			texts := workload.TextQueries(rand.New(rand.NewSource(58)), inst.Keywords, 4096, 3, 1.2)
			for _, q := range texts[:2048] {
				s.SubmitText(q)
			}
			next := 2048
			allocs := testing.AllocsPerRun(1500, func() {
				s.SubmitText(texts[next%len(texts)])
				next++
			})
			st := s.Close()
			if allocs != 0 {
				t.Fatalf("steady-state broad-match submit allocates %.2f objects/op, want 0", allocs)
			}
			broadIdentity(t, "allocs", st)
		})
	}
}
