package ssa

// Telemetry contracts at the top of the stack: instrumenting the
// serving tiers must cost nothing per auction (TestObsSteadyStateAllocs
// — the registry writes are wait-free atomics and the tracer's
// unsampled branch is two instructions), and the metrics registry IS
// the accounting, not a parallel tally — every figure a drained
// Stats/Counters call reports must be readable back, identical, from
// the rendered exposition text (TestStatsViewMatchesRegistry).

import (
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/racetest"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/wire"
	"repro/internal/workload"
)

// promValue extracts one series' value from rendered exposition text.
// Floats are rendered with strconv 'g'/-1, so the parse round-trips
// bit for bit.
func promValue(t *testing.T, prom []byte, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(string(prom), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("series %s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("series %s absent from render", name)
	return 0
}

// TestObsSteadyStateAllocs: the fully instrumented hot paths — shard
// counters, the revenue float cell, the per-method latency histogram,
// stream admission counters, the networked tier's frame-kind lanes,
// and a live 1-in-8 trace sampler — still allocate nothing per
// auction once warm. RH and TALU cover both winner-determination
// pipelines through the streaming layer (and the sampler must have
// recorded into the ring); the render subtest scrapes a live serving
// stack's registry into its reused buffer; the server subtest measures
// the loopback round trip process-wide with a client RTT histogram
// recording on top.
func TestObsSteadyStateAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	for _, method := range []SimMethod{SimRH, SimRHTALU} {
		t.Run("stream/"+method.String(), func(t *testing.T) {
			inst := GenerateInstance(42, 500, DefaultSlots, DefaultKeywords)
			s := NewStreamServer(inst, StreamConfig{
				Engine: EngineConfig{
					Shards: 2, QueueDepth: 256, Method: method, ClickSeed: 7,
					TraceSample: 8,
				},
			})
			defer s.Close()
			queries := QueryStream(inst, 9, 4096)
			for _, q := range queries[:2048] {
				s.Submit(q)
			}
			for s.Stats().Pending > 0 {
				runtime.Gosched()
			}
			next := 2048
			allocs := testing.AllocsPerRun(1000, func() {
				s.Submit(queries[next%len(queries)])
				next++
			})
			if allocs != 0 {
				t.Fatalf("instrumented steady-state submit allocates %.2f objects/op, want 0", allocs)
			}
			if ring := s.Engine().TraceRing(); ring == nil || ring.Total() == 0 {
				t.Fatal("trace sampler recorded nothing")
			}
		})
	}
	t.Run("render", func(t *testing.T) {
		inst := GenerateInstance(42, 1000, DefaultSlots, DefaultKeywords)
		s := NewStreamServer(inst, StreamConfig{
			Engine: EngineConfig{Shards: 2, QueueDepth: 256, Method: SimRH, ClickSeed: 7},
		})
		defer s.Close()
		for _, q := range QueryStream(inst, 9, 2000) {
			s.Submit(q)
		}
		for s.Stats().Pending > 0 { // the count is process-wide: let the shards go idle
			runtime.Gosched()
		}
		reg := s.Engine().Metrics().Registry
		reg.Render() // grows the exposition buffer to its final size
		allocs := testing.AllocsPerRun(100, func() { reg.Render() })
		if allocs != 0 {
			t.Fatalf("rendering a live registry allocates %.2f objects/scrape, want 0", allocs)
		}
	})
	t.Run("server", func(t *testing.T) {
		inst := workload.Generate(rand.New(rand.NewSource(7)), 100, 5, 8)
		s, err := server.Listen("127.0.0.1:0", inst, server.Config{Stream: stream.Config{
			Engine: engine.Config{Shards: 2, QueueDepth: 64, Method: engine.MethodRH, ClickSeed: 5, TraceSample: 8},
		}})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		rtt := NewMetricsRegistry().Histogram("ssa_client_rtt_ns", "end-to-end round trip")
		c, err := client.Dial(s.Addr(), client.Options{RTT: rtt})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var out wire.Outcome
		for i := 0; i < 2048; i++ {
			if err := c.AuctionInto(i%inst.Keywords, &out); err != nil {
				t.Fatal(err)
			}
		}
		next := 0
		allocs := testing.AllocsPerRun(1500, func() {
			if err := c.AuctionInto(next%inst.Keywords, &out); err != nil {
				t.Fatal(err)
			}
			next++
		})
		if allocs != 0 {
			t.Fatalf("instrumented networked auction allocates %.2f objects/op, want 0", allocs)
		}
		if rtt.Count() == 0 {
			t.Fatal("client RTT histogram recorded nothing")
		}
	})
}

// TestStatsViewMatchesRegistry: drained accounting and the rendered
// registry must agree exactly — integer counters equal, revenue bit
// for bit — at every tier: the batch engine, the exact-routing
// stream, the broad-match stream (the 4-leg identity submitted ==
// served + shed + unrouted + overmatched, every leg scraped), and the
// networked server's connection-layer counters. Run under -race this
// also soaks the render path against live writers.
func TestStatsViewMatchesRegistry(t *testing.T) {
	t.Run("batch", func(t *testing.T) {
		inst := GenerateInstance(21, 300, 6, 8)
		queries := QueryStream(inst, 22, 4000)
		e := NewEngine(inst, EngineConfig{Shards: 3, QueueDepth: 32, Method: SimRHTALU, ClickSeed: 33})
		defer e.Close()
		// One drained Serve call: its Stats.Revenue sums the per-shard
		// accumulators in shard order, the same order the registry's
		// FloatCounter lanes sum in — bit-for-bit comparable. (Summing
		// several batch Stats re-associates the adds and may differ in
		// the last ulp; the integer counters are exact either way.)
		total := *e.Serve(queries)
		m := e.Metrics()
		if got := m.Auctions.Value(); got != int64(total.Auctions) {
			t.Fatalf("ssa_auctions_total %d != drained %d", got, total.Auctions)
		}
		prom := append([]byte(nil), m.Registry.Render()...)
		if got := promValue(t, prom, "ssa_auctions_total"); got != float64(total.Auctions) {
			t.Fatalf("rendered auctions %v != drained %d", got, total.Auctions)
		}
		if got := promValue(t, prom, "ssa_revenue_total"); got != total.Revenue {
			t.Fatalf("rendered revenue %v not bit-identical to drained %v", got, total.Revenue)
		}
		if got := promValue(t, prom, "ssa_clicks_total"); got != float64(total.Clicks) {
			t.Fatalf("rendered clicks %v != drained %d", got, total.Clicks)
		}
		if got := m.Latency.Count(); got != int64(total.Auctions) {
			t.Fatalf("latency histogram holds %d records for %d auctions", got, total.Auctions)
		}
	})
	t.Run("stream", func(t *testing.T) {
		inst := GenerateInstance(42, 300, DefaultSlots, DefaultKeywords)
		s := NewStreamServer(inst, StreamConfig{
			Engine:   EngineConfig{Shards: 3, QueueDepth: 8, Method: SimRH, ClickSeed: 7},
			Overload: OverloadShed,
		})
		reg := s.Engine().Metrics().Registry
		queries := QueryStream(inst, 9, 6000)
		for _, q := range queries {
			s.Submit(q)
			_ = reg.Render() // concurrent scrapes while shards serve
		}
		st := s.Close()
		prom := append([]byte(nil), reg.Render()...)
		if st.Submitted != st.Served+st.Shed {
			t.Fatalf("drained identity: %+v", st)
		}
		if got := promValue(t, prom, "ssa_stream_submitted_total"); got != float64(st.Submitted) {
			t.Fatalf("rendered submitted %v != drained %d", got, st.Submitted)
		}
		if got := promValue(t, prom, "ssa_auctions_total"); got != float64(st.Served) {
			t.Fatalf("rendered auctions %v != drained served %d", got, st.Served)
		}
		if got := promValue(t, prom, "ssa_stream_shed_total"); got != float64(st.Shed) {
			t.Fatalf("rendered shed %v != drained %d", got, st.Shed)
		}
		if got := promValue(t, prom, "ssa_revenue_total"); got != st.Revenue {
			t.Fatalf("rendered revenue %v not bit-identical to drained %v", got, st.Revenue)
		}
		var lanes int64
		for i, ps := range st.PerShard {
			lane := promValue(t, prom, `ssa_auctions_by_shard_total{shard="`+strconv.Itoa(i)+`"}`)
			if lane != float64(ps.Served) {
				t.Fatalf("shard %d lane %v != drained %d", i, lane, ps.Served)
			}
			lanes += int64(ps.Served)
		}
		if lanes != st.Served {
			t.Fatalf("shard lanes sum %d != served %d", lanes, st.Served)
		}
	})
	t.Run("broadmatch", func(t *testing.T) {
		inst := GenerateInstance(42, 300, DefaultSlots, DefaultKeywords)
		s := NewStreamServer(inst, StreamConfig{
			Engine: EngineConfig{
				Shards: 3, QueueDepth: 8, Method: SimRHTALU, ClickSeed: 7,
				KeywordNames: BigramKeywordNames(DefaultKeywords),
				Broadmatch:   BroadmatchConfig{Enabled: true, Threshold: 0.4, Squash: 0.5, Seed: 11},
				Reserve:      10,
			},
			Overload: OverloadShed,
		})
		reg := s.Engine().Metrics().Registry
		for _, q := range TextQueries(9, DefaultKeywords, 6000, 3, 1.2) {
			s.SubmitText(q)
		}
		st := s.Close()
		prom := append([]byte(nil), reg.Render()...)
		if st.Submitted != st.Served+st.Shed+st.Unrouted+st.Overmatched {
			t.Fatalf("drained 4-leg identity: %+v", st)
		}
		legs := map[string]int64{
			"ssa_stream_submitted_total":   st.Submitted,
			"ssa_auctions_total":           st.Served,
			"ssa_stream_shed_total":        st.Shed,
			"ssa_stream_unrouted_total":    st.Unrouted,
			"ssa_stream_overmatched_total": st.Overmatched,
		}
		for name, want := range legs {
			if got := promValue(t, prom, name); got != float64(want) {
				t.Fatalf("rendered %s %v != drained %d", name, got, want)
			}
		}
	})
	t.Run("network", func(t *testing.T) {
		inst := workload.Generate(rand.New(rand.NewSource(7)), 100, 5, 8)
		s, err := server.Listen("127.0.0.1:0", inst, server.Config{Stream: stream.Config{
			Engine: engine.Config{Shards: 2, QueueDepth: 64, Method: engine.MethodRH, ClickSeed: 5},
		}})
		if err != nil {
			t.Fatal(err)
		}
		c, err := client.Dial(s.Addr(), client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var out wire.Outcome
		const auctions = 3000
		for i := 0; i < auctions; i++ {
			if err := c.AuctionInto(i%inst.Keywords, &out); err != nil {
				t.Fatal(err)
			}
		}
		// The wire stats frame carries the same histogram the
		// registry renders: counts must match the served tally.
		v2, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if v2.HistCount != auctions {
			t.Fatalf("wire histogram count %d != %d auctions", v2.HistCount, auctions)
		}
		var bucketSum int64
		for _, bk := range v2.Buckets {
			bucketSum += bk.Count
		}
		if bucketSum != v2.HistCount {
			t.Fatalf("wire buckets sum %d != count %d", bucketSum, v2.HistCount)
		}
		s.Close()
		sub, served, shed, rejected, unrouted := s.Counters()
		if sub != served+shed+rejected {
			t.Fatalf("connection identity: sub=%d served=%d shed=%d rejected=%d", sub, served, shed, rejected)
		}
		prom := append([]byte(nil), s.Registry().Render()...)
		legs := map[string]int64{
			"ssa_server_submitted_total": sub,
			"ssa_server_served_total":    served,
			"ssa_server_shed_total":      shed,
			"ssa_server_rejected_total":  rejected,
			"ssa_server_unrouted_total":  unrouted,
		}
		for name, want := range legs {
			if got := promValue(t, prom, name); got != float64(want) {
				t.Fatalf("rendered %s %v != drained %d", name, got, want)
			}
		}
		if got := promValue(t, prom, "ssa_auctions_total"); got != float64(served) {
			t.Fatalf("engine auctions %v != connection served %d", got, served)
		}
	})
}
