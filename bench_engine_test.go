package ssa

// Serving-engine profiling entry points, complementing the Figure
// 12/13 reproductions in bench_test.go:
//
//	go test -bench='EngineThroughput|MarketSteadyState' -benchmem -run xxx
//
// BenchmarkEngineThroughput sweeps shard counts on the Section V
// workload (n = 1000 advertisers, 15 slots, 10 keywords, method RH)
// through the batch loop; BenchmarkMarketSteadyStateRH/TALU time one
// sequential market's warm auction, and …HeavyParallel the §III-F
// pattern pool (CI's bench-multicore job checks its 4-core speedup).
// None of them is a record or a gate: timings are compared as
// parent/change pairs of bench/run.sh (scripts/benchpair.sh), and the
// allocation-free guarantees are the *SteadyStateAllocs tests.

import (
	"fmt"
	"runtime"
	"testing"
)

// benchShardCounts returns the shard sweep: 1, 2, 4, … capped at
// GOMAXPROCS, always including GOMAXPROCS itself.
func benchShardCounts() []int {
	maxp := runtime.GOMAXPROCS(0)
	var out []int
	for p := 1; p < maxp; p *= 2 {
		out = append(out, p)
	}
	return append(out, maxp)
}

func BenchmarkEngineThroughput(b *testing.B) {
	benchEngineThroughput(b, SimRH)
}

// BenchmarkEngineThroughputTALU is the shard sweep with the Section IV
// method on the serving path: every keyword market maintains its
// logical-update lists, bid-level buckets and trigger queues, and
// per-slot candidates come from the bid-level walk.
func BenchmarkEngineThroughputTALU(b *testing.B) {
	benchEngineThroughput(b, SimRHTALU)
}

func benchEngineThroughput(b *testing.B, method SimMethod) {
	const n, warmup = 1000, 2000
	inst := GenerateInstance(42, n, DefaultSlots, DefaultKeywords)
	for _, shards := range benchShardCounts() {
		b.Run(fmt.Sprintf("n=%d/workers=%d", n, shards), func(b *testing.B) {
			e := NewEngine(inst, EngineConfig{Shards: shards, Method: method, ClickSeed: 7})
			defer e.Close()
			e.Serve(QueryStream(inst, 9, warmup))
			queries := QueryStream(inst, 11, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			st := e.Serve(queries)
			b.StopTimer()
			b.ReportMetric(st.Throughput, "qps")
			b.ReportMetric(float64(st.P99.Nanoseconds()), "p99-ns")
		})
	}
}

// BenchmarkMarketSteadyStateRH measures one sequential market's
// steady-state auction under MethodRH — the explicit program step,
// per-slot selection over the bidders that reach the keyword's seeded
// floors (TestRHSurvivorCounts), the gathered reduced assignment, GSP
// pricing and accounting on the allocation-free serving hot path
// (TestMarketSteadyStateAllocs pins the 0 allocs/op).
func BenchmarkMarketSteadyStateRH(b *testing.B) {
	benchMarketSteadyState(b, SimRH)
}

// BenchmarkMarketSteadyStateTALU measures one sequential market's
// steady-state auction under MethodRHTALU: trigger firings, O(1)
// logical updates, per-slot walk of the bid-level buckets, workspace
// winner determination, GSP pricing, and the winners' recomputes. Its
// steady-state program evaluations are flat in n and each slot run
// reads a few dozen bucket entries whatever n is
// (TestTALULevelWalkCounts), so its large-n rows are expected to
// undercut BenchmarkMarketSteadyStateRH — a figure to report, not a
// gate (TestTALUSteadyStateAllocs pins the 0 allocs/op).
func BenchmarkMarketSteadyStateTALU(b *testing.B) {
	benchMarketSteadyState(b, SimRHTALU)
}

func benchMarketSteadyState(b *testing.B, method SimMethod) {
	const warmup = 2000
	for _, n := range []int{500, 1000, 5000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			inst := GenerateInstance(42, n, DefaultSlots, DefaultKeywords)
			w := NewSimWorldOpts(inst, SimWorldOpts{Method: method, ClickSeed: 7})
			queries := QueryStream(inst, 9, warmup+b.N)
			for _, q := range queries[:warmup] {
				w.Run(q)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Run(queries[warmup+i])
			}
		})
	}
}

// BenchmarkMarketSteadyStateHeavyParallel is the Section III-F steady
// state (k = 5, 32 patterns) with the market's determiner in
// worker-pool mode (EngineConfig.HeavyParallelism): par=1 is the
// sequential baseline, par=4 claims the 2^k patterns across four
// persistent workers. Outcomes are bit-identical across the two rows
// (TestMarketHeavyParallelismSteadyStateAllocs). The par=4 row only
// shows speedup on a host with ≥4 cores — CI's bench-multicore job,
// which demands ≥1.5× — and on fewer cores measures oversubscribed
// scheduling instead.
func BenchmarkMarketSteadyStateHeavyParallel(b *testing.B) {
	for _, par := range []int{1, 4} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			const n, warmup = 2000, 200
			inst := GenerateHeavyInstance(42, n, 5, DefaultKeywords, 0.2, 0.3)
			w := NewSimWorldOpts(inst, SimWorldOpts{
				Method: SimHeavy, Pricing: PricingGSP, ClickSeed: 7, HeavyParallelism: par,
			})
			queries := QueryStream(inst, 9, warmup+b.N)
			for _, q := range queries[:warmup] {
				w.Run(q)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Run(queries[warmup+i])
			}
		})
	}
}
