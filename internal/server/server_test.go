package server_test

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/racetest"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/wire"
	"repro/internal/workload"
)

func listen(t *testing.T, inst *workload.Instance, cfg server.Config) *server.Server {
	t.Helper()
	s, err := server.Listen("127.0.0.1:0", inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func dial(t *testing.T, s *server.Server, opts client.Options) *client.Conn {
	t.Helper()
	c, err := client.Dial(s.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// checkIdentity asserts the connection-layer accounting identity
// after a drain: Submitted == Served + Shed + Rejected exactly.
func checkIdentity(t *testing.T, s *server.Server) (submitted, served, shed, rejected int64) {
	t.Helper()
	submitted, served, shed, rejected, _ = s.Counters()
	if submitted != served+shed+rejected {
		t.Fatalf("identity violated: submitted=%d != served=%d + shed=%d + rejected=%d",
			submitted, served, shed, rejected)
	}
	return
}

// TestServerBasic: a round trip through the full socket path — the
// outcome arrives with the query echoed and the accounting identity
// holds after drain.
func TestServerBasic(t *testing.T) {
	inst := workload.Generate(rand.New(rand.NewSource(1)), 60, 4, 8)
	s := listen(t, inst, server.Config{Stream: stream.Config{
		Engine: engine.Config{Shards: 2, QueueDepth: 32, Method: engine.MethodRH, ClickSeed: 7},
	}})
	c := dial(t, s, client.Options{Timeout: 10 * time.Second})

	var out wire.Outcome
	for i := 0; i < 200; i++ {
		q := i % inst.Keywords
		if err := c.AuctionInto(q, &out); err != nil {
			t.Fatalf("auction %d: %v", i, err)
		}
		if out.Query != q {
			t.Fatalf("auction %d: echoed query %d, want %d", i, out.Query, q)
		}
		if len(out.AdvOf) != inst.Slots || len(out.PricePerClick) != inst.Slots || len(out.Clicked) != inst.Slots {
			t.Fatalf("auction %d: slot arrays %d/%d/%d, want %d", i,
				len(out.AdvOf), len(out.PricePerClick), len(out.Clicked), inst.Slots)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != 200 || st.Served != 200 || st.Conns != 1 {
		t.Fatalf("stats: %+v", st)
	}
	s.Close()
	sub, served, _, _ := checkIdentity(t, s)
	if sub != 200 || served != 200 {
		t.Fatalf("submitted=%d served=%d, want 200/200", sub, served)
	}
}

// TestServerTextBatchControl: text routing (routed and unrouted),
// many auctions from concurrent callers on one connection, and churn
// + reset control requests over the wire.
func TestServerTextBatchControl(t *testing.T) {
	inst := workload.Generate(rand.New(rand.NewSource(2)), 40, 3, 4)
	s := listen(t, inst, server.Config{Stream: stream.Config{
		Engine: engine.Config{
			Shards: 2, QueueDepth: 16, Method: engine.MethodRHTALU, ClickSeed: 3,
			KeywordNames: []string{"red shoes", "blue shoes", "green hats", "umbrellas"},
		},
	}})
	c := dial(t, s, client.Options{Timeout: 10 * time.Second})

	var out wire.Outcome
	if err := c.TextInto("cheap red shoes online", &out); err != nil {
		t.Fatalf("routed text: %v", err)
	}
	if out.Query != 0 {
		t.Fatalf("routed text hit keyword %d, want 0", out.Query)
	}
	if err := c.TextInto("quantum chromodynamics", &out); !errors.Is(err, client.ErrUnrouted) {
		t.Fatalf("unrouted text: %v, want ErrUnrouted", err)
	}

	// Many auctions over one connection are concurrent pipelined
	// callers, one per query.
	qs := []int{0, 1, 2, 3, 0, 1}
	revenue := make([]float64, len(qs))
	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out wire.Outcome
			if err := c.AuctionInto(q, &out); err != nil {
				t.Errorf("pipelined auction %d: %v", i, err)
				return
			}
			revenue[i] = out.Revenue
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	var total float64
	for _, r := range revenue {
		total += r
	}
	if total <= 0 {
		t.Fatalf("pipelined revenue %v, want > 0", total)
	}

	add := workload.Advertiser{
		Value:     append([]int(nil), inst.Value[0]...),
		ClickProb: append([]float64(nil), inst.ClickProb[0]...),
		Target:    1,
	}
	idx, err := c.AddAdvertiser(&add)
	if err != nil {
		t.Fatal(err)
	}
	if idx != inst.N { // churn appends at the end
		t.Fatalf("added at index %d, want %d", idx, inst.N)
	}
	if err := c.RemoveAdvertiser(idx); err != nil {
		t.Fatal(err)
	}
	// Budgets are off: the reset must surface the stream layer's
	// error as a typed server error, not kill the connection.
	if err := c.ResetBudgets(); err == nil {
		t.Fatal("ResetBudgets with budgets off succeeded")
	}
	if err := c.AuctionInto(0, &out); err != nil {
		t.Fatalf("connection unusable after application error: %v", err)
	}

	s.Close()
	sub, served, _, _ := checkIdentity(t, s)
	_, _, _, _, unrouted := s.Counters()
	if unrouted != 1 {
		t.Fatalf("unrouted=%d, want 1", unrouted)
	}
	// text + pipelined auctions + post-error auction, all served
	if want := int64(1 + len(qs) + 1); sub != want || served != want {
		t.Fatalf("submitted=%d served=%d, want %d", sub, served, want)
	}
}

// TestServerMaxConns: the connection cap rejects surplus dials at the
// handshake with HandshakeFull, and a slot frees when a connection
// closes.
func TestServerMaxConns(t *testing.T) {
	inst := workload.Generate(rand.New(rand.NewSource(3)), 20, 3, 4)
	s := listen(t, inst, server.Config{
		MaxConns: 1,
		Stream:   stream.Config{Engine: engine.Config{Shards: 1, QueueDepth: 8, Method: engine.MethodRH}},
	})
	c1 := dial(t, s, client.Options{})
	if _, err := client.Dial(s.Addr(), client.Options{}); !errors.Is(err, client.ErrServerFull) {
		t.Fatalf("second dial: %v, want ErrServerFull", err)
	}
	c1.Close()
	// The slot frees asynchronously with connection teardown.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c2, err := client.Dial(s.Addr(), client.Options{})
		if err == nil {
			c2.Close()
			break
		}
		if !errors.Is(err, client.ErrServerFull) || time.Now().After(deadline) {
			t.Fatalf("redial after close: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerDrain: a wire drain returns final stats satisfying the
// identity, later dials are rejected with HandshakeDraining, and
// auctions on surviving connections are rejected with ReasonDraining.
func TestServerDrain(t *testing.T) {
	inst := workload.Generate(rand.New(rand.NewSource(4)), 30, 3, 5)
	s := listen(t, inst, server.Config{Stream: stream.Config{
		Engine: engine.Config{Shards: 2, QueueDepth: 16, Method: engine.MethodRH, ClickSeed: 1},
	}})
	load := dial(t, s, client.Options{Timeout: 10 * time.Second})
	ctl := dial(t, s, client.Options{Timeout: 30 * time.Second})

	var out wire.Outcome
	for i := 0; i < 50; i++ {
		if err := load.AuctionInto(i%inst.Keywords, &out); err != nil {
			t.Fatal(err)
		}
	}
	final, err := ctl.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if final.Submitted != final.Served+final.Shed+final.Rejected {
		t.Fatalf("drain stats identity: %+v", final)
	}
	if final.Served != 50 {
		t.Fatalf("drain served=%d, want 50", final.Served)
	}
	// The drain closed the listener, so a new dial is refused at the
	// TCP layer; ErrDraining covers the window where a connection was
	// accepted before the listener closed.
	if _, err := client.Dial(s.Addr(), client.Options{}); err == nil {
		t.Fatal("post-drain dial succeeded")
	}
	err = load.AuctionInto(0, &out)
	if !errors.Is(err, client.ErrRejected) {
		t.Fatalf("post-drain auction: %v, want ErrRejected", err)
	}
	select {
	case <-s.Drained():
	default:
		t.Fatal("Drained channel not closed after wire drain")
	}
	s.Close()
	checkIdentity(t, s)
}

// TestServerProtocolErrors: garbage and corruption at the socket
// level terminate the connection without disturbing the server —
// wrong magic, a corrupted frame CRC, and an oversized declared
// length all end in a closed connection, and a healthy client still
// serves afterwards.
func TestServerProtocolErrors(t *testing.T) {
	inst := workload.Generate(rand.New(rand.NewSource(5)), 20, 3, 4)
	s := listen(t, inst, server.Config{Stream: stream.Config{
		Engine: engine.Config{Shards: 1, QueueDepth: 8, Method: engine.MethodRH},
	}})

	expectClosed := func(t *testing.T, nc net.Conn) {
		t.Helper()
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 256)
		for {
			if _, err := nc.Read(buf); err != nil {
				if err == io.EOF {
					return
				}
				t.Fatalf("want EOF from server, got %v", err)
			}
		}
	}

	t.Run("bad magic", func(t *testing.T) {
		nc, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		nc.Write([]byte("NOTMAGIC"))
		expectClosed(t, nc)
	})
	t.Run("bad crc", func(t *testing.T) {
		nc, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		nc.Write([]byte(wire.Magic))
		hs := make([]byte, len(wire.Magic)+1)
		if _, err := io.ReadFull(nc, hs); err != nil {
			t.Fatal(err)
		}
		frame := wire.AppendAuctionReq(nil, 1, 0)
		frame[len(frame)-1] ^= 0xFF
		nc.Write(frame)
		expectClosed(t, nc)
	})
	t.Run("oversized frame", func(t *testing.T) {
		nc, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		nc.Write([]byte(wire.Magic))
		hs := make([]byte, len(wire.Magic)+1)
		if _, err := io.ReadFull(nc, hs); err != nil {
			t.Fatal(err)
		}
		nc.Write([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0})
		expectClosed(t, nc)
	})

	c := dial(t, s, client.Options{Timeout: 5 * time.Second})
	var out wire.Outcome
	if err := c.AuctionInto(0, &out); err != nil {
		t.Fatalf("server unhealthy after protocol abuse: %v", err)
	}
}

// TestServerIdentityUnderShed: concurrent pipelined clients hammer a
// deliberately tiny server under the Shed policy — sheds and window
// rejections both occur — and after drain the identity is exact, and
// the client-side disposition counts agree with the server's
// counters exactly (nothing lost crossing the socket).
func TestServerIdentityUnderShed(t *testing.T) {
	inst := workload.Generate(rand.New(rand.NewSource(6)), 40, 3, 6)
	s := listen(t, inst, server.Config{
		Window: 4,
		Stream: stream.Config{
			Overload: stream.Shed,
			Engine:   engine.Config{Shards: 2, QueueDepth: 4, Method: engine.MethodRH, ClickSeed: 2},
		},
	})
	const conns, workers, perWorker = 3, 4, 300
	var served, shed, rejected atomic.Int64
	var wg sync.WaitGroup
	for ci := 0; ci < conns; ci++ {
		c := dial(t, s, client.Options{Window: 8, Timeout: 30 * time.Second})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				var out wire.Outcome
				for i := 0; i < perWorker; i++ {
					err := c.AuctionInto(rng.Intn(inst.Keywords), &out)
					switch {
					case err == nil:
						served.Add(1)
					case errors.Is(err, client.ErrShed):
						shed.Add(1)
					case errors.Is(err, client.ErrRejected):
						rejected.Add(1)
					default:
						t.Errorf("auction: %v", err)
						return
					}
				}
			}(int64(ci*workers + w))
		}
	}
	wg.Wait()
	s.Close()
	sub, srvServed, srvShed, srvRejected := checkIdentity(t, s)
	if sub != conns*workers*perWorker {
		t.Fatalf("submitted=%d, want %d", sub, conns*workers*perWorker)
	}
	if served.Load() != srvServed || shed.Load() != srvShed || rejected.Load() != srvRejected {
		t.Fatalf("client-side counts served=%d shed=%d rejected=%d disagree with server %d/%d/%d",
			served.Load(), shed.Load(), rejected.Load(), srvServed, srvShed, srvRejected)
	}
	// The stream layer's own identity must also hold beneath.
	st := s.Stream().Stats()
	if st.Submitted != st.Served+st.Shed {
		t.Fatalf("stream identity: %+v", st)
	}
}

// TestServerSteadyStateAllocs: the full loopback round trip — client
// encode, socket write, server decode, shard queue, auction, outcome
// encode on the shard goroutine, socket write back, client decode and
// copy-out — allocates nothing per auction once warm, under both
// winner-determination pipelines. AllocsPerRun counts process-wide,
// so the server's goroutines are measured too.
func TestServerSteadyStateAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	for _, method := range []engine.Method{engine.MethodRH, engine.MethodRHTALU} {
		t.Run(method.String(), func(t *testing.T) {
			inst := workload.Generate(rand.New(rand.NewSource(7)), 100, 5, 8)
			s := listen(t, inst, server.Config{Stream: stream.Config{
				Engine: engine.Config{Shards: 2, QueueDepth: 64, Method: method, ClickSeed: 5},
			}})
			c := dial(t, s, client.Options{})
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
				t.Fatalf("steady-state networked auction allocates %.2f objects/op, want 0", allocs)
			}
		})
	}
}
