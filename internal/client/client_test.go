package client

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/wire"
	"repro/internal/workload"
)

func listen(t *testing.T, cfg server.Config) (*server.Server, *workload.Instance) {
	t.Helper()
	inst := workload.Generate(rand.New(rand.NewSource(5)), 40, 4, 6)
	cfg.Stream.Engine.Method = engine.MethodRH
	s, err := server.Listen("127.0.0.1:0", inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, inst
}

func dial(t *testing.T, s *server.Server) *Conn {
	t.Helper()
	c, err := Dial(s.Addr(), Options{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestStatsCarriesServerHistogram: the one stats frame ships the
// server's latency histogram, so the snapshot a client rebuilds — and
// every quantile of it — equals the server-side obs.HistSnapshot, and
// Drain answers with the same frame.
func TestStatsCarriesServerHistogram(t *testing.T) {
	s, inst := listen(t, server.Config{Stream: stream.Config{Engine: engine.Config{Shards: 2}}})
	c := dial(t, s)
	var out wire.Outcome
	const auctions = 500
	for i := 0; i < auctions; i++ {
		if err := c.AuctionInto(i%inst.Keywords, &out); err != nil {
			t.Fatal(err)
		}
	}
	// Every call above returned, so the server is quiescent and its
	// histogram is stable.
	want := s.Stream().Engine().Metrics().Latency.Snapshot()
	live, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var got obs.HistSnapshot
	live.Latency(&got)
	if got != *want {
		t.Fatalf("rebuilt histogram differs from the server's: count %d vs %d, max %d vs %d", got.Count, want.Count, got.Max, want.Max)
	}
	p50, p95, p99, max := got.Percentiles()
	w50, w95, w99, wmax := want.Percentiles()
	if got.Count != auctions || p50 != w50 || p95 != w95 || p99 != w99 || max != wmax || p50 <= 0 {
		t.Fatalf("client quantiles %d/%d/%d/%d over %d auctions, server %d/%d/%d/%d", p50, p95, p99, max, got.Count, w50, w95, w99, wmax)
	}
	if live.Submitted != auctions || live.Served != auctions || live.StreamServed != auctions {
		t.Fatalf("live counters: %+v", live)
	}

	final, err := c.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if final.Submitted != live.Submitted || final.Served != live.Served || final.Revenue != live.Revenue ||
		final.HistCount != live.HistCount || final.HistSum != live.HistSum || final.HistMax != live.HistMax ||
		!reflect.DeepEqual(final.Buckets, live.Buckets) {
		t.Fatalf("drain frame differs from the live stats frame:\n live  %+v\n final %+v", live, final)
	}
	if err := c.AuctionInto(0, &out); !errors.Is(err, ErrRejected) || !strings.Contains(err.Error(), wire.ReasonDraining.String()) {
		t.Fatalf("auction on a drained server: %v, want ErrRejected (draining)", err)
	}
}

// TestShedAndRejectedMapping: a query the stream layer sheds surfaces
// as ErrShed, one refused at a full connection window as ErrRejected,
// and neither fails the connection.
func TestShedAndRejectedMapping(t *testing.T) {
	s, _ := listen(t, server.Config{
		Window: 1,
		Stream: stream.Config{Overload: stream.Shed, Engine: engine.Config{Shards: 1, QueueDepth: 2}},
	})
	parked, release := make(chan struct{}), make(chan struct{})
	if s.Stream().SubmitFunc(0, func(*engine.Outcome) {
		close(parked)
		<-release
	}) != stream.SubmitQueued {
		t.Fatal("parking query not queued")
	}
	<-parked

	// One call occupies the connection's single window slot, queued
	// behind the parked shard.
	c := dial(t, s)
	held := make(chan error, 1)
	go func() {
		var out wire.Outcome
		held <- c.AuctionInto(0, &out)
	}()
	for {
		if submitted, _, _, _, _ := s.Counters(); submitted == 1 {
			break
		}
		runtime.Gosched()
	}
	var out wire.Outcome
	if err := c.AuctionInto(0, &out); !errors.Is(err, ErrRejected) || !strings.Contains(err.Error(), wire.ReasonWindow.String()) {
		t.Fatalf("second call on a full window: %v, want ErrRejected (window full)", err)
	}

	// Fill the shard queue; a fresh connection's query is then shed.
	for s.Stream().Submit(0) {
	}
	c2 := dial(t, s)
	if err := c2.AuctionInto(0, &out); !errors.Is(err, ErrShed) {
		t.Fatalf("query at a full shard queue: %v, want ErrShed", err)
	}

	close(release)
	if err := <-held; err != nil {
		t.Fatalf("held call: %v", err)
	}
	if err := c.AuctionInto(0, &out); err != nil {
		t.Fatalf("connection unusable after a rejection: %v", err)
	}
	if err := c2.AuctionInto(0, &out); err != nil {
		t.Fatalf("connection unusable after a shed: %v", err)
	}
}

// TestDialOldProtocolPeer: a peer that answers the handshake with the
// previous protocol's magic is refused with an error naming both
// versions — promptly, not after a hang.
func TestDialOldProtocolPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		var magic [len(wire.Magic)]byte
		if _, err := io.ReadFull(nc, magic[:]); err != nil {
			return
		}
		nc.Write(append([]byte("SSAWIR01"), wire.HandshakeOK))
		io.Copy(io.Discard, nc) // stay open: the client must not wait for a close
	}()
	start := time.Now()
	c, err := Dial(ln.Addr().String(), Options{DialTimeout: 5 * time.Second})
	if err == nil {
		c.Close()
		t.Fatal("dial to an old-protocol peer succeeded")
	}
	if !strings.Contains(err.Error(), "SSAWIR01") || !strings.Contains(err.Error(), wire.Magic) {
		t.Fatalf("handshake error does not name both protocol versions: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("handshake mismatch took %v to report", d)
	}
}
