// Networked: the serving tier behind a real TCP socket.
//
// A NetServer wraps a StreamServer in the library's wire protocol —
// length-prefixed, CRC-checked binary frames — and a NetClient drives
// auctions through it exactly as a separate process would (auctionsim
// -serve / -connect are this example split across two OS processes).
// Concurrent callers pipeline onto one connection up to its window;
// text queries route through the keyword matcher server-side; churn
// and budget resets travel as control frames through the same ordered
// stream, so the stream layer's fence semantics hold over the network
// too. After the graceful wire drain, the connection-layer identity
// is exact: submitted == served + shed + rejected.
//
// The serving stack is also observable while it runs: every layer
// records into the server's metrics registry (wait-free, zero
// allocations on the auction path), ServeMetrics exposes it over
// HTTP as Prometheus text plus pprof, and the stats wire call
// ships the server's latency histogram to the client, which can then
// compute any percentile locally. The equivalent auctionsim flags are
// -metrics-addr (engine/stream/serve/connect modes) and
// -trace-sample (adds the /trace ring of sampled per-auction
// lifecycle timestamps).
//
// Run:  go run ./examples/networked
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"

	ssa "repro"
)

func main() {
	inst := ssa.GenerateInstance(1, 300, ssa.DefaultSlots, ssa.DefaultKeywords)

	// Serve on an ephemeral loopback port.
	srv, err := ssa.ListenNetServer("127.0.0.1:0", inst, ssa.NetServerConfig{
		Stream: ssa.StreamConfig{
			Engine: ssa.EngineConfig{Method: ssa.SimRHTALU, QueueDepth: 64, ClickSeed: 7},
		},
		Window: 16, // per-connection in-flight cap
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving on %s\n", srv.Addr())

	// Live telemetry: the server's registry behind HTTP. /metrics is
	// Prometheus text exposition, /debug/pprof the standard profiles.
	ms, err := ssa.ServeMetrics("127.0.0.1:0", srv.Registry(), nil)
	if err != nil {
		log.Fatal(err)
	}
	defer ms.Close()
	fmt.Printf("metrics on http://%s/metrics\n", ms.Addr())

	// One client connection, eight concurrent workers pipelining onto
	// it — the wire protocol correlates responses by request ID, so
	// synchronous calls from many goroutines overlap on the socket.
	c, err := ssa.DialNetClient(srv.Addr(), ssa.NetClientOptions{Window: 16})
	if err != nil {
		log.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var out ssa.NetOutcome
			for i := 0; i < 500; i++ {
				if err := c.AuctionInto((w+i)%inst.Keywords, &out); err != nil {
					log.Fatal(err)
				}
			}
		}(w)
	}
	wg.Wait()

	// One mid-run scrape: the registry is the accounting, readable
	// while shards serve.
	resp, err := http.Get("http://" + ms.Addr() + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range strings.Split(string(prom), "\n") {
		if strings.HasPrefix(line, "ssa_auctions_total ") ||
			strings.HasPrefix(line, "ssa_server_submitted_total ") {
			fmt.Println("scraped:", line)
		}
	}

	// The stats wire call carries the server's lifetime latency
	// histogram; rebuilding a snapshot from the sparse buckets lets
	// the client compute any percentile without a metrics endpoint.
	live, err := c.Stats()
	if err != nil {
		log.Fatal(err)
	}
	var hs ssa.LatencySnapshot
	live.Latency(&hs)
	fmt.Printf("server latency over the wire: p50=%dns p99=%dns max=%dns (%d auctions)\n",
		hs.Quantile(0.50), hs.Quantile(0.99), hs.Max, hs.Count)

	// Graceful drain over the wire: intake stops, every queued auction
	// is served, and the final stats come back on the draining
	// connection.
	final, err := c.Drain()
	if err != nil {
		log.Fatal(err)
	}
	c.Close()
	srv.Close()
	fmt.Printf("drained: submitted=%d served=%d shed=%d rejected=%d (identity %v)\n",
		final.Submitted, final.Served, final.Shed, final.Rejected,
		final.Submitted == final.Served+final.Shed+final.Rejected)
	fmt.Printf("revenue=%.0f clicks=%d over %d advertisers\n",
		final.Revenue, final.Clicks, final.Advertisers)
}
