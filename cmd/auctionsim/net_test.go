package main

// The network soak re-execs this test binary as one serving process
// plus several connecting processes over loopback — real sockets,
// real process isolation — and checks the two sides of the wire agree
// exactly: the server's connection-layer identity (submitted ==
// served + shed + rejected), the cross-process counter agreement
// (every client-side disposition equals the server's count), and
// bitwise journal recovery (the parent replays the journal the serve
// child wrote and must land on the same spend fingerprint the child
// printed from its in-memory ledger). TestMain dispatches the
// children, same as the crash soak.

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/journal"
)

const (
	netServeEnv    = "AUCTIONSIM_NET_SERVE"   // journal dir: run the serve child
	netConnectEnv  = "AUCTIONSIM_NET_CONNECT" // server addr: run a connect child
	netAuctionsEnv = "AUCTIONSIM_NET_AUCTIONS"
	netResetsEnv   = "AUCTIONSIM_NET_RESETS"
	netDrainEnv    = "AUCTIONSIM_NET_DRAIN"
	netSeedEnv     = "AUCTIONSIM_NET_SEED"

	netN        = 80
	netKeywords = 5
	netResets   = 2
)

// netServeChild is the serving process: a budgeted, journaling
// networked server on an ephemeral loopback port, run through main()
// with the flags an operator would pass. It regenerates the soak
// population from -seed (the connect children never see it; only the
// keyword range crosses the wire), prints the listening address (the
// parent scrapes the port), blocks until a connect child drains it,
// and prints the accounting the parent asserts on.
func netServeChild(dir string) {
	os.Args = []string{"auctionsim", "-serve", "127.0.0.1:0",
		"-n", strconv.Itoa(netN), "-slots", "4", "-keywords", strconv.Itoa(netKeywords), "-seed", "601",
		"-shards", "3", "-queue", "16", "-budget", "60", "-budget-refresh", "8", "-journal", dir,
		// The soak parent scrapes this endpoint mid-traffic and, via
		// AUCTIONSIM_METRICS_OUT, reads the post-drain render.
		"-metrics-addr", "127.0.0.1:0", "-trace-sample", "16"}
	main()
}

// netConnectChild is one load-generating process.
func netConnectChild(addr string) {
	os.Args = []string{"auctionsim", "-connect", addr, "-conns", "2", "-pipeline", "4",
		"-auctions", os.Getenv(netAuctionsEnv), "-keywords", strconv.Itoa(netKeywords),
		"-resets", os.Getenv(netResetsEnv), "-seed", os.Getenv(netSeedEnv)}
	if os.Getenv(netDrainEnv) == "1" {
		os.Args = append(os.Args, "-drain")
	}
	main()
}

// scrapeMetric GETs the serve child's /metrics endpoint and returns
// the named series' value — the live half of the soak's telemetry
// checks (the post-drain half reads the AUCTIONSIM_METRICS_OUT dump).
func scrapeMetric(t *testing.T, addr, name string) float64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("scrape %s: %v", addr, err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("scrape %s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("scrape: metric %s absent", name)
	return 0
}

// connectCounts is one connect child's parsed summary line.
type connectCounts struct {
	auctions, served, shed, rejected int64
}

func runConnectChild(t *testing.T, addr string, auctions, resets int, drain bool, seed int64) (connectCounts, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		netConnectEnv+"="+addr,
		netAuctionsEnv+"="+strconv.Itoa(auctions),
		netResetsEnv+"="+strconv.Itoa(resets),
		netSeedEnv+"="+strconv.FormatInt(seed, 10),
	)
	if drain {
		cmd.Env = append(cmd.Env, netDrainEnv+"=1")
	}
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("connect child: %v\n%s", err, out)
	}
	var cc connectCounts
	var connsN, pipelineN int64
	found := false
	for _, line := range strings.Split(string(out), "\n") {
		if _, err := fmt.Sscanf(line, "connect: done auctions=%d served=%d shed=%d rejected=%d conns=%d pipeline=%d",
			&cc.auctions, &cc.served, &cc.shed, &cc.rejected, &connsN, &pipelineN); err == nil {
			found = true
		}
	}
	if !found {
		t.Fatalf("connect child printed no summary:\n%s", out)
	}
	if cc.auctions != cc.served+cc.shed+cc.rejected {
		t.Fatalf("connect child identity: %+v", cc)
	}
	return cc, string(out)
}

// TestNetworkSoak: one serving process, two concurrent load
// processes, then a third that fences budget resets into live traffic
// and finally drains the server over the wire. Exact accounting must
// survive all three process boundaries.
func TestNetworkSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary and serves real network traffic")
	}
	dir := t.TempDir()

	// The serve child dumps its post-drain registry render here; CI
	// points AUCTIONSIM_METRICS_OUT at the workspace to upload it.
	metricsOut := os.Getenv("AUCTIONSIM_METRICS_OUT")
	if metricsOut == "" {
		metricsOut = filepath.Join(dir, "metrics.prom")
	}

	serve := exec.Command(os.Args[0])
	serve.Env = append(os.Environ(), netServeEnv+"="+dir, "AUCTIONSIM_METRICS_OUT="+metricsOut)
	serve.Stderr = os.Stderr
	stdout, err := serve.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := serve.Start(); err != nil {
		t.Fatal(err)
	}
	defer serve.Process.Kill()

	// Scrape the ephemeral wire and metrics addresses from the two
	// listening lines, then keep scanning: the drain summary arrives
	// after the last child exits.
	addrCh := make(chan string, 1)
	metricsCh := make(chan string, 1)
	var serveOut []string
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			serveOut = append(serveOut, line)
			if i := strings.Index(line, "listening addr="); i >= 0 {
				addr := line[i+len("listening addr="):]
				if j := strings.IndexByte(addr, ' '); j >= 0 {
					addr = addr[:j]
				}
				ch := addrCh
				if strings.HasPrefix(line, "metrics:") {
					ch = metricsCh
				}
				select {
				case ch <- addr:
				default:
				}
			}
		}
	}()
	var addr, metricsAddr string
	select {
	case addr = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatal("serve child never printed its listening address")
	}
	select {
	case metricsAddr = <-metricsCh:
	case <-time.After(30 * time.Second):
		t.Fatal("serve child never printed its metrics address")
	}

	// Two concurrent load processes.
	const loadAuctions = 3000
	var mu sync.Mutex
	var clients []connectCounts
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			cc, _ := runConnectChild(t, addr, loadAuctions, 0, false, seed)
			mu.Lock()
			clients = append(clients, cc)
			mu.Unlock()
		}(int64(700 + i*100))
	}
	// First live scrape lands while the load children are submitting.
	scrape1 := scrapeMetric(t, metricsAddr, "ssa_auctions_total")
	wg.Wait()
	if t.Failed() {
		return
	}
	// Second scrape after the first wave: the live counter must be
	// monotone, and it covers at least every auction a client already
	// saw answered (the response happens after the engine's count).
	scrape2 := scrapeMetric(t, metricsAddr, "ssa_auctions_total")
	if scrape2 < scrape1 || scrape2 <= 0 {
		t.Fatalf("live ssa_auctions_total not monotone: %v then %v", scrape1, scrape2)
	}
	var waveServed int64
	for _, c := range clients {
		waveServed += c.served
	}
	if scrape2 < float64(waveServed) {
		t.Fatalf("post-wave ssa_auctions_total %v below the %d auctions clients saw served", scrape2, waveServed)
	}

	// Third process: budget resets fenced into live traffic, then the
	// graceful wire drain.
	const drainAuctions = 1000
	cc, drainOut := runConnectChild(t, addr, drainAuctions, netResets, true, 900)
	clients = append(clients, cc)
	if !strings.Contains(drainOut, "(identity true)") {
		t.Fatalf("drain child's server-final stats flunked the identity:\n%s", drainOut)
	}

	// The drain lets the serve child finish; its exit closes stdout.
	if err := serve.Wait(); err != nil {
		t.Fatalf("serve child exit: %v", err)
	}
	<-scanDone

	// Cross-process counter agreement: the server's connection-layer
	// counts must equal the sum of every client-side disposition.
	var want connectCounts
	for _, c := range clients {
		want.auctions += c.auctions
		want.served += c.served
		want.shed += c.shed
		want.rejected += c.rejected
	}
	var got connectCounts
	var unrouted int64
	var spendbits uint64
	var fpN int
	foundNet, foundBits := false, false
	for _, line := range serveOut {
		if _, err := fmt.Sscanf(line, "net: submitted=%d served=%d shed=%d rejected=%d unrouted=%d",
			&got.auctions, &got.served, &got.shed, &got.rejected, &unrouted); err == nil {
			foundNet = true
		}
		if _, err := fmt.Sscanf(line, "spendbits=%x n=%d", &spendbits, &fpN); err == nil {
			foundBits = true
		}
	}
	if !foundNet || !foundBits {
		t.Fatalf("serve child summary incomplete (net=%v spendbits=%v):\n%s",
			foundNet, foundBits, strings.Join(serveOut, "\n"))
	}
	if got != want {
		t.Fatalf("cross-process counters: server %+v != clients %+v", got, want)
	}
	if got.auctions != int64(2*loadAuctions+drainAuctions) {
		t.Fatalf("submitted %d, want %d", got.auctions, 2*loadAuctions+drainAuctions)
	}

	// The post-drain registry render must reconcile exactly with the
	// printed connection-layer identity: the scraped counters ARE the
	// accounting, not a parallel tally.
	prom, err := os.ReadFile(metricsOut)
	if err != nil {
		t.Fatalf("serve child wrote no metrics dump: %v", err)
	}
	fromProm := func(name string) int64 {
		for _, line := range strings.Split(string(prom), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("metric %s: %v", name, err)
				}
				return int64(f)
			}
		}
		t.Fatalf("metric %s absent from dump:\n%s", name, prom)
		return 0
	}
	promCounts := connectCounts{
		auctions: fromProm("ssa_server_submitted_total"),
		served:   fromProm("ssa_server_served_total"),
		shed:     fromProm("ssa_server_shed_total"),
		rejected: fromProm("ssa_server_rejected_total"),
	}
	if promCounts != got {
		t.Fatalf("scraped counters %+v != printed drain identity %+v", promCounts, got)
	}

	// Bitwise journal recovery: replaying the journal the child wrote
	// must land exactly on the fingerprint of its in-memory ledger.
	rec, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.CorruptOffset != -1 {
		t.Fatalf("clean drain recovered corrupt at %d (%s)", rec.CorruptOffset, rec.CorruptReason)
	}
	if rec.State == nil {
		t.Fatal("recovered no state from the soak journal")
	}
	if int(rec.State.Epoch) != 1+netResets {
		t.Fatalf("recovered epoch %d, want %d (boot + %d wire resets)",
			rec.State.Epoch, 1+netResets, netResets)
	}
	if int(rec.State.N) != fpN {
		t.Fatalf("recovered %d advertisers, serve child fingerprinted %d", rec.State.N, fpN)
	}
	if fp := recoveryFingerprint(rec.State); fp != spendbits {
		t.Fatalf("recovered spend fingerprint %016x != serve child's ledger %016x", fp, spendbits)
	}
}
