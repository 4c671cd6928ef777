package client

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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

// TestDialOldProtocolPeer: a peer that answers the handshake with a
// previous protocol's magic is refused with an error naming both
// versions — promptly, not after a hang.
func TestDialOldProtocolPeer(t *testing.T) {
	for _, old := range []string{"SSAWIR01", "SSAWIR02"} {
		t.Run(old, func(t *testing.T) {
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
				nc.Write(append([]byte(old), wire.HandshakeOK))
				io.Copy(io.Discard, nc) // stay open: the client must not wait for a close
			}()
			start := time.Now()
			c, err := Dial(ln.Addr().String(), Options{DialTimeout: 5 * time.Second})
			if err == nil {
				c.Close()
				t.Fatal("dial to an old-protocol peer succeeded")
			}
			if !strings.Contains(err.Error(), old) || !strings.Contains(err.Error(), wire.Magic) {
				t.Fatalf("handshake error does not name both protocol versions: %v", err)
			}
			if d := time.Since(start); d > 2*time.Second {
				t.Fatalf("handshake mismatch took %v to report", d)
			}
		})
	}
}

// rawPeer is a fake server built from raw frames: it accepts one
// connection, answers the handshake OK, and answers each decoded
// request with the frame reply returns — or with nothing when reply
// returns nil. reply runs on the peer's goroutine, one request at a
// time.
func rawPeer(t *testing.T, reply func(req *wire.Request) []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	go func() {
		defer close(done)
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		var magic [len(wire.Magic)]byte
		if _, err := io.ReadFull(nc, magic[:]); err != nil {
			return
		}
		if _, err := nc.Write(append([]byte(wire.Magic), wire.HandshakeOK)); err != nil {
			return
		}
		fr := wire.NewFrameReader(nc, 0)
		var req wire.Request
		for {
			p, err := fr.Next()
			if err != nil {
				return // the client closed the connection
			}
			if err := req.Decode(p); err != nil {
				t.Errorf("peer: %v", err)
				return
			}
			if b := reply(&req); b != nil {
				if _, err := nc.Write(b); err != nil {
					return
				}
			}
		}
	}()
	return ln.Addr().String()
}

// TestResponseMapping: every public call, answered with each response
// kind, gives its documented result — nil and the decoded value for
// its success kind, ErrShed, ErrRejected naming each reason,
// ErrUnrouted, the server's KindError message, and an error naming a
// kind the call never expects — and no result fails the connection.
func TestResponseMapping(t *testing.T) {
	type answer struct {
		kind   wire.Kind
		reason wire.RejectReason
	}
	next := make(chan answer, 1)
	addr := rawPeer(t, func(req *wire.Request) []byte {
		a := <-next
		switch a.kind {
		case wire.KindOutcome:
			return wire.AppendOutcomeResp(nil, req.ID, &engine.Outcome{
				Query: 3, Revenue: 1.5, AdvOf: []int{2},
				PricePerClick: []float64{1.5}, Clicked: []bool{true},
			})
		case wire.KindStatsResult:
			return wire.AppendStatsResp(nil, req.ID, &wire.ServerStats{
				Submitted: 9, HistCount: 9, Buckets: []wire.HistBucket{{Index: 4, Count: 9}},
			})
		case wire.KindAdded:
			return wire.AppendAddedResp(nil, req.ID, 41)
		case wire.KindRejected:
			return wire.AppendRejectedResp(nil, req.ID, a.reason)
		case wire.KindError:
			return wire.AppendErrorResp(nil, req.ID, "boom")
		default: // KindShed, KindOK, KindUnrouted
			return wire.AppendEmpty(nil, a.kind, req.ID)
		}
	})
	c, err := Dial(addr, Options{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	adv := workload.Advertiser{Value: []int{1}, ClickProb: []float64{0.5}}
	outcome := func(out *wire.Outcome, err error) error {
		if err == nil && (out.Query != 3 || out.Revenue != 1.5 || len(out.AdvOf) != 1) {
			return fmt.Errorf("decoded outcome %+v", *out)
		}
		return err
	}
	stats := func(st wire.ServerStats, err error) error {
		if err == nil && (st.Submitted != 9 || len(st.Buckets) != 1) {
			return fmt.Errorf("decoded stats %+v", st)
		}
		return err
	}
	calls := []struct {
		name        string
		want, never wire.Kind
		run         func() error
	}{
		{"AuctionInto", wire.KindOutcome, wire.KindAdded, func() error {
			var out wire.Outcome
			return outcome(&out, c.AuctionInto(3, &out))
		}},
		{"TextInto", wire.KindOutcome, wire.KindOK, func() error {
			var out wire.Outcome
			return outcome(&out, c.TextInto("red shoes", &out))
		}},
		{"Stats", wire.KindStatsResult, wire.KindOutcome, func() error { return stats(c.Stats()) }},
		{"Drain", wire.KindStatsResult, wire.KindOK, func() error { return stats(c.Drain()) }},
		{"ResetBudgets", wire.KindOK, wire.KindAdded, c.ResetBudgets},
		{"AddAdvertiser", wire.KindAdded, wire.KindOK, func() error {
			idx, err := c.AddAdvertiser(&adv)
			if err == nil && idx != 41 {
				return fmt.Errorf("decoded index %d", idx)
			}
			return err
		}},
		{"RemoveAdvertiser", wire.KindOK, wire.KindStatsResult, func() error { return c.RemoveAdvertiser(7) }},
	}
	rejected := func(r wire.RejectReason) func(error) bool {
		return func(err error) bool {
			return errors.Is(err, ErrRejected) && strings.Contains(err.Error(), r.String())
		}
	}
	for _, call := range calls {
		cases := []struct {
			answer answer
			ok     func(error) bool
		}{
			{answer{kind: call.want}, func(err error) bool { return err == nil }},
			{answer{kind: wire.KindShed}, func(err error) bool { return errors.Is(err, ErrShed) }},
			{answer{kind: wire.KindRejected, reason: wire.ReasonWindow}, rejected(wire.ReasonWindow)},
			{answer{kind: wire.KindRejected, reason: wire.ReasonDraining}, rejected(wire.ReasonDraining)},
			{answer{kind: wire.KindRejected, reason: wire.ReasonClosed}, rejected(wire.ReasonClosed)},
			{answer{kind: wire.KindUnrouted}, func(err error) bool { return errors.Is(err, ErrUnrouted) }},
			{answer{kind: wire.KindError}, func(err error) bool {
				return err != nil && strings.Contains(err.Error(), "server error: boom")
			}},
			{answer{kind: call.never}, func(err error) bool {
				return err != nil && strings.Contains(err.Error(), fmt.Sprintf("unexpected response kind 0x%02x", uint8(call.never)))
			}},
		}
		for _, tc := range cases {
			next <- tc.answer
			if err := call.run(); !tc.ok(err) {
				t.Errorf("%s answered kind 0x%02x (reason %d): got %v", call.name, uint8(tc.answer.kind), tc.answer.reason, err)
			}
			if err := c.Err(); err != nil {
				t.Fatalf("%s answered kind 0x%02x failed the connection: %v", call.name, uint8(tc.answer.kind), err)
			}
			next <- answer{kind: wire.KindOutcome}
			var out wire.Outcome
			if err := c.AuctionInto(3, &out); err != nil {
				t.Fatalf("connection unusable after %s answered kind 0x%02x: %v", call.name, uint8(tc.answer.kind), err)
			}
		}
	}
}

// TestTimeoutStalledPeer: a peer that answers every request but the
// last fails that call with ErrTimeout within a few Timeouts, and
// every earlier call succeeds — with one caller, and with two
// concurrent callers, where one call's completion must not clear the
// read deadline another call has just armed.
func TestTimeoutStalledPeer(t *testing.T) {
	const timeout = 200 * time.Millisecond
	for _, callers := range []int{1, 2} {
		t.Run(fmt.Sprintf("callers=%d", callers), func(t *testing.T) {
			const perCaller = 200
			answered := 0
			addr := rawPeer(t, func(req *wire.Request) []byte {
				if answered == callers*perCaller-1 {
					return nil // stall from the last request on
				}
				answered++
				return wire.AppendOutcomeResp(nil, req.ID, &engine.Outcome{Query: req.Q})
			})
			c, err := Dial(addr, Options{Timeout: timeout})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			var ok, timedOut atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < callers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var out wire.Outcome
					for i := 0; i < perCaller; i++ {
						start := time.Now()
						err := c.AuctionInto(i, &out)
						switch {
						case err == nil:
							ok.Add(1)
						case errors.Is(err, ErrTimeout):
							if d := time.Since(start); d > 3*timeout {
								t.Errorf("timed out after %v, want within %v", d, 3*timeout)
							}
							timedOut.Add(1)
							return
						default:
							t.Errorf("call %d: %v", i, err)
							return
						}
					}
				}()
			}
			finished := make(chan struct{})
			go func() {
				wg.Wait()
				close(finished)
			}()
			select {
			case <-finished:
			case <-time.After(10 * time.Second):
				c.Close() // wakes the stuck call with ErrClosed
				<-finished
				t.Fatal("a call outlived its timeout: the read deadline was lost")
			}
			if want := int64(callers*perCaller - 1); ok.Load() != want || timedOut.Load() != 1 {
				t.Fatalf("%d calls succeeded and %d timed out, want %d and 1", ok.Load(), timedOut.Load(), want)
			}
		})
	}
}
