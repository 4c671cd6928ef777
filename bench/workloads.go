package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"
)

// Sizing shared by every workload: the reference host has two cores,
// so the engine runs two shards and the harness never drives it with
// more than two load-generating goroutines or two connections.
const (
	procs      = 2
	shards     = 2
	queueDepth = 256
	// textQueueDepth is the open loop's shard-queue capacity. A shed
	// query is a failed operation, and a driver compares failure counts
	// between runs of the same code, so a host hiccup must not produce
	// one: when this VM's vCPUs are taken away for a third of a second
	// the generator catches up with a burst of ~1000 arrivals, which
	// overflowed a 256-deep queue (6 sheds in 750,000 arrivals). 8192
	// holds about five seconds of one shard's arrivals; only a program
	// that falls behind the arrival rate for that long still sheds.
	textQueueDepth = 8192
	// churnEvery is the period, in seconds, of text_budget_churn's
	// scripted population writes.
	churnEvery = 2.0
)

// spec is one workload: the population, the serving configuration and
// the loop that drives it. rate fixes the number of timed operations
// per second of --seconds — an operation count, not a duration, so the
// auction work (and the outcome fingerprint) is the same on both sides
// of a later comparison. For the closed loops it is calibrated so the
// timed window lasts about --seconds on the reference host; for the
// open loop it is the arrival rate itself.
type spec struct {
	name, why          string
	n, slots, keywords int
	method             Method
	conns, callers     int  // networked: connections × callers per connection
	batch              int  // queries per Engine.Serve call (batch loop)
	text               bool // open loop of free-text queries with churn, budgets, journal
	rate               float64
	warmup             int
	peel               int // queries replayed through each peel level
}

var specs = []*spec{
	{
		name: "rh_net",
		why:  "Section V market (n=1000, RH) over one pipelined connection: winner determination dominates the RTT",
		n:    1000, slots: 15, keywords: 10, method: MethodRH,
		conns: 1, callers: 2, rate: 5200, warmup: 4000, peel: 10000,
	},
	{
		name: "talu_batch",
		why:  "Figure 13 market (n=5000, RH+TALU) through the in-process batch loop: only the section IV path works, no transport",
		n:    5000, slots: 15, keywords: 10, method: MethodRHTALU,
		batch: 1024, rate: 8000, warmup: 4096, peel: 10240,
	},
	{
		name: "thin_net",
		why:  "tiny auction (n=64, 4 slots) over two connections: client, wire, server and queue hand-off are what is measured",
		n:    64, slots: 4, keywords: 10, method: MethodRHTALU,
		conns: 2, callers: 1, rate: 63000, warmup: 20000, peel: 100000,
	},
	{
		name: "text_budget_churn",
		why:  "open loop at 3000/s of skewed free text with broad match, hard budgets, a journal and churn: writes beside reads",
		n:    1000, slots: 15, keywords: 10, method: MethodRHTALU,
		text: true, rate: 3000, warmup: 1000, peel: 10000,
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// ops is the number of timed operations (auctions, or text arrivals)
// for a run of the given nominal length; scale shrinks it for tests.
func (sp *spec) ops(seconds, scale float64) int {
	n := int(math.Round(sp.rate * seconds * scale))
	if sp.batch > 0 {
		n = max(1, int(math.Round(float64(n)/float64(sp.batch)))) * sp.batch
	}
	return max(n, 2*procs)
}

func (sp *spec) scaled(n int, scale float64) int {
	n = int(math.Round(float64(n) * scale))
	if sp.batch > 0 {
		return max(1, n/sp.batch) * sp.batch
	}
	return max(n, 8)
}

// Serving levels, outermost first. A workload's own loop enters at
// top(); the peel pass replays the same queries at each deeper one.
const (
	levelClient = iota // server.Listen + client.Dial: Conn.AuctionInto
	levelStream        // stream.NewServer: SubmitFunc / SubmitTextFunc
	levelEngine        // engine.New: ServeOneWeighted / Serve
)

func (sp *spec) top() int {
	switch {
	case sp.conns > 0:
		return levelClient
	case sp.text:
		return levelStream
	default:
		return levelEngine
	}
}

// inputs is everything the program under test receives, all of it
// derived from the seed: the population, the warm-up and timed query
// streams, and for the open loop the arrival schedule and the
// churn/reset script.
type inputs struct {
	inst      *Instance
	clickSeed int64
	queries   []int           // keyword workloads: warm-up then timed
	texts     []string        // text workload: warm-up then timed
	due       []time.Duration // arrival offset of timed text i
	control   []controlEvent  // sorted by after
}

// controlEvent is one scripted write on the open loop: a churn event
// or (reset) the midpoint ResetBudgets, due once `after` timed
// queries have been sent.
type controlEvent struct {
	after int
	churn *ChurnEvent
	reset bool
}

func makeInputs(sp *spec, seed int64, warmup, ops int, churnPeriod float64) *inputs {
	in := &inputs{
		inst:      generate(rand.New(rand.NewSource(seed)), sp.n, sp.slots, sp.keywords),
		clickSeed: seed + 1,
	}
	if !sp.text {
		in.queries = in.inst.Queries(rand.New(rand.NewSource(seed+2)), warmup+ops)
		return in
	}
	attachBudgets(rand.New(rand.NewSource(seed+3)), in.inst, 3000)
	in.texts = textQueries(rand.New(rand.NewSource(seed+2)), sp.keywords, warmup+ops, 3, 1.2)
	arr := rand.New(rand.NewSource(seed + 4))
	in.due = make([]time.Duration, ops)
	var now float64
	for i := range in.due {
		now += arr.ExpFloat64() / sp.rate
		in.due[i] = time.Duration(now * float64(time.Second))
	}
	// An add or a remove every churnPeriod seconds, the first half a
	// period in, and one budget reset at half time.
	at := func(t float64) int {
		return sort.Search(ops, func(i int) bool { return in.due[i].Seconds() >= t })
	}
	length := in.due[ops-1].Seconds()
	churns := scriptChurn(rand.New(rand.NewSource(seed+5)), in.inst, max(1, int(math.Round(length/churnPeriod))), ops)
	for k, ev := range churns {
		if k == len(churns)/2 {
			in.control = append(in.control, controlEvent{after: at(length / 2), reset: true})
		}
		in.control = append(in.control, controlEvent{after: at((float64(k) + 0.5) * churnPeriod), churn: &ev})
	}
	return in
}

// engineConfig is the serving configuration of sp. traceSample > 0
// turns on the engine's existing 1-in-N trace ring (traced pass only).
func engineConfig(sp *spec, in *inputs, traceSample int, jw *JournalWriter) EngineConfig {
	cfg := EngineConfig{
		Shards:      shards,
		QueueDepth:  queueDepth,
		Method:      sp.method,
		ClickSeed:   in.clickSeed,
		TraceSample: traceSample,
	}
	if sp.text {
		cfg.QueueDepth = textQueueDepth
		cfg.KeywordNames = bigramKeywordNames(sp.keywords)
		cfg.Broadmatch = BroadConfig{Enabled: true, Threshold: 0.4, Squash: 0.5, Seed: 11}
		cfg.Reserve = 10
		cfg.Budget = BudgetConfig{Policy: PolicyHard, RefreshEvery: 64}
		cfg.Journal = jw
	}
	return cfg
}

func streamConfig(sp *spec, cfg EngineConfig) StreamConfig {
	sc := StreamConfig{Engine: cfg}
	if sp.text {
		// The open loop must never wait on the program, so a full queue
		// (textQueueDepth) sheds; a shed query counts as a failed
		// operation. The budget flush fence keeps the serving default.
		sc.Overload = OverloadShed
	}
	return sc
}

// stack is one running instance of the program under test: whichever
// of the networked tier, the stream server under it and the engine
// under that the level it was built at includes.
type stack struct {
	sp    *spec
	cfg   EngineConfig
	net   *NetServer
	str   *StreamServer
	eng   *Engine
	conns []*Conn
	jw    *JournalWriter
	jdir  string

	buildWall time.Duration // wall time of the level's constructor
}

// buildStack constructs the program at the given level over in.inst.
// A journaled configuration gets a fresh directory under outDir, which
// stays until removeJournal.
func buildStack(sp *spec, in *inputs, level, traceSample int, outDir string) (*stack, error) {
	st := &stack{sp: sp}
	if sp.text {
		var err error
		if st.jw, st.jdir, err = tempJournal(outDir); err != nil {
			return nil, err
		}
	}
	st.cfg = engineConfig(sp, in, traceSample, st.jw)
	t0 := time.Now()
	switch level {
	case levelClient:
		srv, err := listen("127.0.0.1:0", in.inst, NetConfig{Stream: streamConfig(sp, st.cfg)})
		if err != nil {
			st.removeJournal()
			return nil, fmt.Errorf("listen: %w", err)
		}
		st.net, st.str, st.eng = srv, srv.Stream(), srv.Stream().Engine()
		st.buildWall = time.Since(t0)
		for c := 0; c < max(1, sp.conns); c++ {
			conn, err := dial(srv.Addr(), ConnOptions{})
			if err != nil {
				st.close()
				return nil, fmt.Errorf("dial: %w", err)
			}
			st.conns = append(st.conns, conn)
		}
	case levelStream:
		st.str = newStreamServer(in.inst, streamConfig(sp, st.cfg))
		st.eng = st.str.Engine()
		st.buildWall = time.Since(t0)
	default:
		st.eng = newEngine(in.inst, st.cfg)
		st.buildWall = time.Since(t0)
	}
	return st, nil
}

// close drains and tears the stack down, outermost layer first, and
// returns the stream layer's final statistics (nil below it). The
// journal directory stays until removeJournal, so a caller can replay
// it first.
func (st *stack) close() *StreamStats {
	for _, c := range st.conns {
		c.Close()
	}
	st.conns = nil
	switch {
	case st.net != nil:
		return st.net.Close()
	case st.str != nil:
		return st.str.Close()
	default:
		st.eng.Close()
		return nil
	}
}

// tempJournal opens a journal in a fresh directory under outDir; the
// caller removes the directory when done with it.
func tempJournal(outDir string) (*JournalWriter, string, error) {
	dir, err := os.MkdirTemp(outDir, "journal-")
	if err != nil {
		return nil, "", err
	}
	jw, err := openJournal(dir, JournalOptions{Fsync: FsyncNever})
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", fmt.Errorf("open journal: %w", err)
	}
	return jw, dir, nil
}

func (st *stack) removeJournal() {
	if st.jdir != "" {
		os.RemoveAll(st.jdir)
	}
}

// markets builds the standalone per-keyword markets an engine over the
// same inputs would hold — the peel's innermost level and the oracle of
// the warm-up replay check. led may be nil (no budget enforcement).
func buildMarkets(sp *spec, in *inputs, cfg EngineConfig, led *Ledger) []*Market {
	ms := make([]*Market, sp.keywords)
	for q := range ms {
		o := MarketOpts{Method: cfg.Method, ClickSeed: keywordSeed(cfg.ClickSeed, q), Reserve: cfg.Reserve}
		if led != nil {
			o.Lane = led.Lane(q)
		}
		ms[q] = newMarketOpts(in.inst, o)
	}
	return ms
}
