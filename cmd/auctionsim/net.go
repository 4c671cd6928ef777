package main

// Networked modes: -serve puts the streaming server behind TCP
// (internal/server), -connect drives auctions against one from a
// separate process (internal/client) — together they are the
// multi-process load generator the CI network soak runs over
// loopback. Both modes print machine-parseable summary lines
// ("listening addr=", "net:", "connect:", "spendbits=") that the soak
// parent scrapes for its cross-process accounting identity and
// bitwise journal-recovery checks.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/wire"
)

// runServe listens for networked clients and blocks until a wire
// drain request completes, then prints the drained accounting —
// connection layer first (the four-way identity), stream layer
// underneath, budgets and journal last.
func runServe(o *options) {
	inst, cfg := engineConfig(o, o.keywords, o.auctions)
	s, err := server.Listen(o.serve, inst, server.Config{Stream: stream.Config{Engine: cfg, Overload: o.overload}})
	if err != nil {
		fatal("serve:", err)
	}
	fmt.Printf("auctionsim: serve mode, listening addr=%s n=%d k=%d keywords=%d method=%v pricing=%v overload=%v shards=%d\n",
		s.Addr(), o.n, o.slots, o.keywords, o.method, o.pricing, o.overload, s.Stream().Shards())
	if o.metricsAddr != "" {
		defer startMetrics(o.metricsAddr, s.Registry(), s.Stream().Engine().TraceRing()).Close()
	}

	<-s.Drained() // a client's wire drain request stops intake and drains the shards
	st := s.Close()

	// The CI soak asks for a post-drain registry render as a build
	// artifact: every counter at its final, reconcilable value.
	if out := os.Getenv("AUCTIONSIM_METRICS_OUT"); out != "" && o.metricsAddr != "" {
		if err := os.WriteFile(out, s.Registry().Render(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "auctionsim: metrics dump:", err)
		}
	}

	sub, served, shed, rejected, unrouted := s.Counters()
	fmt.Printf("net: submitted=%d served=%d shed=%d rejected=%d unrouted=%d (identity %v)\n",
		sub, served, shed, rejected, unrouted, sub == served+shed+rejected)
	e := s.Stream().Engine()
	printDrained(st, e)
	if led := e.Ledger(); led != nil {
		fmt.Printf("spendbits=%016x n=%d\n", spendFingerprint(led.N(), led.ExactSpent), led.N())
	}
}

// spendFingerprint hashes n advertisers' exact spend, bit for bit, in
// advertiser order. A recovery that lands on the same fingerprint as
// the ledger reconstructed every float64 exactly — this is what the
// network soak's parent process compares against journal.Recover.
func spendFingerprint(n int, spent func(i int) float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(spent(i)))
		h.Write(b[:])
	}
	return h.Sum64()
}

// recoveryFingerprint is spendFingerprint over a recovered journal
// state — the other half of the cross-process bitwise comparison.
func recoveryFingerprint(st *journal.LedgerState) uint64 {
	return spendFingerprint(int(st.N), st.Spent)
}

// runConnect opens -conns connections, drives -auctions auctions
// through them with -pipeline concurrent workers each, and prints
// client-side dispositions plus end-to-end latency percentiles. With
// -drain it finishes by requesting a graceful server drain and
// printing the server's final stats as the server reported them over
// the wire.
func runConnect(o *options) {
	o.conns, o.pipeline = max(o.conns, 1), max(o.pipeline, 1)
	// The end-to-end RTT histogram is shared across every connection
	// (records are atomic) and is where the printed percentiles come
	// from; with -metrics-addr it and the in-flight gauge, which sums
	// window occupancy at scrape time, are also exposed live.
	reg := obs.NewRegistry()
	rtt := reg.Histogram("ssa_client_rtt_ns", "end-to-end auction round-trip time, client-observed")
	cs := make([]*client.Conn, o.conns)
	reg.Gauge("ssa_client_inflight", "requests currently occupying pipeline window slots", func() float64 {
		n := 0
		for _, c := range cs {
			if c != nil {
				n += c.Inflight()
			}
		}
		return float64(n)
	})
	if o.metricsAddr != "" {
		defer startMetrics(o.metricsAddr, reg, nil).Close()
	}
	for i := range cs {
		c, err := client.Dial(o.connect, client.Options{Window: o.pipeline, Timeout: 30 * time.Second, RTT: rtt})
		if err != nil {
			fatal("connect:", err)
		}
		cs[i] = c
		defer c.Close()
	}

	workers := o.conns * o.pipeline
	var served, shed, rejected atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		per := o.auctions / workers
		if w < o.auctions%workers {
			per++
		}
		wg.Add(1)
		go func(w, per int) {
			defer wg.Done()
			c := cs[w%o.conns]
			rng := rand.New(rand.NewSource(o.seed + int64(w)))
			// Worker 0 fences the run with budget resets at even
			// intervals while the other workers keep submitting — the
			// soak's mid-traffic reset-fence pressure.
			resetEvery := 0
			if o.resets > 0 && w == 0 {
				resetEvery = per / (o.resets + 1)
			}
			var out wire.Outcome
			for i := 0; i < per; i++ {
				if resetEvery > 0 && i > 0 && i%resetEvery == 0 && i/resetEvery <= o.resets {
					if err := c.ResetBudgets(); err != nil {
						fatal("reset:", err)
					}
				}
				switch err := c.AuctionInto(rng.Intn(o.keywords), &out); {
				case err == nil:
					served.Add(1)
				case errors.Is(err, client.ErrShed):
					shed.Add(1)
				case errors.Is(err, client.ErrRejected):
					rejected.Add(1)
				default:
					fatal("auction:", err)
				}
			}
		}(w, per)
	}
	wg.Wait()
	elapsed := time.Since(start)

	p50, _, p99, _ := rtt.Snapshot().Percentiles()
	fmt.Printf("connect: done auctions=%d served=%d shed=%d rejected=%d conns=%d pipeline=%d elapsed=%v qps=%.0f p50=%v p99=%v\n",
		o.auctions, served.Load(), shed.Load(), rejected.Load(), o.conns, o.pipeline,
		elapsed.Round(time.Millisecond), float64(o.auctions)/elapsed.Seconds(),
		p50.Round(time.Microsecond), p99.Round(time.Microsecond))

	if o.drain {
		st, err := cs[0].Drain()
		if err != nil {
			fatal("drain:", err)
		}
		fmt.Printf("drain: submitted=%d served=%d shed=%d rejected=%d (identity %v) stream-served=%d epoch=%d\n",
			st.Submitted, st.Served, st.Shed, st.Rejected,
			st.Submitted == st.Served+st.Shed+st.Rejected, st.StreamServed, st.Epoch)
	}
}
