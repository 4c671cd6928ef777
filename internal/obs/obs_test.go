package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestBucketMapping: every representative value maps into a bucket
// whose bounds contain it, indices are monotone in the value, and the
// bucket's relative width never exceeds the documented 1/subCount
// error bound.
func TestBucketMapping(t *testing.T) {
	vals := []int64{0, 1, 2, 31, 32, 33, 63, 64, 65, 100, 1000, 12345,
		1 << 20, 1<<20 + 7, 1 << 40, 1<<62 + 12345, math.MaxInt64}
	prev := -1
	prevV := int64(-1)
	for _, v := range vals {
		idx := bucketOf(v)
		if idx < 0 || idx >= numBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, idx)
		}
		if v > prevV && idx < prev {
			t.Fatalf("bucket index not monotone: bucketOf(%d)=%d < bucketOf(%d)=%d", v, idx, prevV, prev)
		}
		upper := bucketUpper(idx)
		if v > upper {
			t.Fatalf("value %d above its bucket upper %d (idx %d)", v, upper, idx)
		}
		if idx > 0 {
			lower := bucketUpper(idx-1) + 1
			if v < lower {
				t.Fatalf("value %d below its bucket lower %d (idx %d)", v, lower, idx)
			}
			if v >= 2*subCount {
				if rel := float64(upper-v) / float64(v); rel > 1.0/subCount {
					t.Fatalf("value %d: bucket upper %d exceeds the %v error bound (rel %v)",
						v, upper, 1.0/subCount, rel)
				}
			}
		}
		prev, prevV = idx, v
	}
	// Negative values clamp rather than panic.
	if bucketOf(-5) != 0 {
		t.Fatalf("negative value did not clamp to bucket 0")
	}
	if got := bucketUpper(numBuckets - 1); got != math.MaxInt64 {
		t.Fatalf("last bucket upper = %d, want MaxInt64", got)
	}
}

// TestHistogramQuantiles: recorded samples reproduce their exact
// quantiles (rank int(q*(count-1)) of the sorted sample) within the
// bucket error bound, and Max is exact.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(7))
	samples := make([]int64, 0, 5000)
	for i := 0; i < 5000; i++ {
		v := int64(rng.ExpFloat64() * 2e6) // latency-shaped, ~2ms mean
		samples = append(samples, v)
		h.Record(v)
	}
	sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })
	snap := h.Snapshot()
	if snap.Count != int64(len(samples)) {
		t.Fatalf("count = %d, want %d", snap.Count, len(samples))
	}
	if snap.Max != samples[len(samples)-1] {
		t.Fatalf("max = %d, want %d", snap.Max, samples[len(samples)-1])
	}
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		exact := samples[int(q*float64(len(samples)-1))]
		got := snap.Quantile(q)
		if got < exact {
			t.Fatalf("q%v = %d below the exact order statistic %d", q, got, exact)
		}
		if exact >= 2*subCount {
			if rel := float64(got-exact) / float64(exact); rel > 1.0/subCount {
				t.Fatalf("q%v = %d vs exact %d: relative error %v above bound %v",
					q, got, exact, rel, 1.0/subCount)
			}
		}
	}
	var empty HistSnapshot
	if empty.Quantile(0.99) != 0 {
		t.Fatal("empty snapshot quantile must be 0")
	}
}

// TestHistSnapshotSub: the difference of two snapshots is the
// histogram of what was recorded between them — the per-call view a
// batch Serve reports. Max is exact when the window set a new
// lifetime maximum and a bucket bound below it otherwise.
func TestHistSnapshotSub(t *testing.T) {
	var h, window Histogram
	for _, v := range []int64{100, 5_000_000, 70} {
		h.Record(v)
	}
	before := h.Snapshot()
	for _, v := range []int64{900, 40, 1500, 900} {
		h.Record(v)
		window.Record(v)
	}
	d := h.Snapshot()
	d.Sub(before)
	want := window.Snapshot()
	if d.Counts != want.Counts || d.Count != want.Count || d.Sum != want.Sum {
		t.Fatalf("delta count=%d sum=%d, want %d/%d", d.Count, d.Sum, want.Count, want.Sum)
	}
	if d.Max < want.Max || d.Max > want.Max+want.Max/subCount {
		t.Fatalf("delta max %d not within a bucket above the window's true max %d", d.Max, want.Max)
	}
	if got, exact := d.Quantile(0.5), want.Quantile(0.5); got != exact {
		t.Fatalf("delta p50 %d, want %d", got, exact)
	}

	h.Record(9_000_000) // a new lifetime maximum inside the next window
	d2 := h.Snapshot()
	d2.Sub(before)
	if d2.Max != 9_000_000 {
		t.Fatalf("delta max %d, want the exact new maximum", d2.Max)
	}
	same := h.Snapshot()
	same.Sub(h.Snapshot())
	if same.Count != 0 || same.Max != 0 || same.Quantile(0.99) != 0 {
		t.Fatalf("empty window: %d observations, max %d", same.Count, same.Max)
	}
}

// TestHistogramMerge: merging two snapshots equals the snapshot of
// recording both sample sets into one histogram.
func TestHistogramMerge(t *testing.T) {
	var a, b, both Histogram
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 1000; i++ {
		v := int64(rng.Intn(1 << 20))
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		both.Record(v)
	}
	sa, sb, sboth := a.Snapshot(), b.Snapshot(), both.Snapshot()
	sa.Merge(sb)
	if *sa != *sboth {
		t.Fatal("merged snapshot differs from jointly recorded snapshot")
	}
}

// TestCounterLanes: per-lane adds aggregate exactly, and concurrent
// writers on distinct lanes lose nothing.
func TestCounterLanes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "t", 4)
	f := r.FloatCounter("test_rev_total", "t", 4)
	var wg sync.WaitGroup
	for lane := 0; lane < 4; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				c.Inc(lane)
				f.Add(lane, 0.5)
			}
		}(lane)
	}
	wg.Wait()
	if c.Value() != 40000 {
		t.Fatalf("counter = %d, want 40000", c.Value())
	}
	if f.Value() != 20000 {
		t.Fatalf("float counter = %v, want 20000", f.Value())
	}
	if c.Lane(2) != 10000 {
		t.Fatalf("lane 2 = %d, want 10000", c.Lane(2))
	}
}

// TestFloatCounterBitExact: a lane's accumulation is bit-for-bit the
// same as a local float64 accumulator fed the same sequence, and
// Value sums lanes in index order — the property the stream layer's
// Revenue view depends on.
func TestFloatCounterBitExact(t *testing.T) {
	r := NewRegistry()
	f := r.FloatCounter("rev_total", "t", 3)
	rng := rand.New(rand.NewSource(9))
	locals := make([]float64, 3)
	for i := 0; i < 5000; i++ {
		lane := rng.Intn(3)
		x := rng.Float64() * 3.7
		f.Add(lane, x)
		locals[lane] += x
	}
	var want float64
	for i, l := range locals {
		if got := f.Lane(i); got != l {
			t.Fatalf("lane %d = %v, want bitwise %v", i, got, l)
		}
		want += l
	}
	if got := f.Value(); got != want {
		t.Fatalf("Value = %v, want bitwise %v", got, want)
	}
}

// TestRegistryRender: the Prometheus text output carries every
// registered family with parseable values, per-lane series render
// under the rewritten family name, and a second render reuses the
// buffer without allocating.
func TestRegistryRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ssa_things_total", "things processed", 2)
	c.RenderLanes("shard", nil)
	c.Add(0, 3)
	c.Add(1, 4)
	f := r.FloatCounter("ssa_money_total", "money", 1)
	f.Add(0, 1.5)
	r.Gauge("ssa_depth", "queue depth", func() float64 { return 42 })
	h := r.Histogram("ssa_lat_ns", "latency")
	h.Record(100)
	h.Record(200000)

	out := string(r.Render())
	for _, want := range []string{
		"# TYPE ssa_things_total counter\nssa_things_total 7\n",
		`ssa_things_by_shard_total{shard="0"} 3`,
		`ssa_things_by_shard_total{shard="1"} 4`,
		"ssa_money_total 1.5",
		"ssa_depth 42",
		"# TYPE ssa_lat_ns histogram",
		`ssa_lat_ns_bucket{le="+Inf"} 2`,
		"ssa_lat_ns_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// Cumulative le counts are monotone and end at the count.
	var last int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "ssa_lat_ns_bucket") {
			continue
		}
		v, err := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
		if err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("bucket counts not cumulative: %d after %d", v, last)
		}
		last = v
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Render() }); allocs != 0 {
		t.Fatalf("steady-state render allocates %.2f objects/op, want 0", allocs)
	}
}

// TestRegistryDuplicatePanics: registering the same name twice is a
// wiring bug and must fail loudly.
func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "x", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("dup_total", "x", 1)
}

// TestTraceRing: wraparound retains the newest capacity events in
// order, sequence numbers are global, and the JSON dump is valid and
// ordered.
func TestTraceRing(t *testing.T) {
	ring := NewTraceRing(16)
	if ring.Cap() != 16 {
		t.Fatalf("cap = %d, want 16", ring.Cap())
	}
	for i := 0; i < 40; i++ {
		ev := TraceEvent{Keyword: int32(i), Start: int64(1000 + i)}
		ring.Append(&ev)
	}
	if ring.Total() != 40 || ring.Len() != 16 {
		t.Fatalf("total %d len %d, want 40/16", ring.Total(), ring.Len())
	}
	var buf bytes.Buffer
	if err := ring.DumpJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]int64
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("dump is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(events) != 16 {
		t.Fatalf("dumped %d events, want 16", len(events))
	}
	for i, ev := range events {
		wantSeq := int64(24 + i)
		if ev["seq"] != wantSeq || ev["keyword"] != wantSeq {
			t.Fatalf("event %d: seq=%d keyword=%d, want %d (oldest-first order)",
				i, ev["seq"], ev["keyword"], wantSeq)
		}
	}
}

// TestTracerDeterministic: the 1-in-N sampler fires on exactly the
// arrivals ≡ 1 (mod N), independent of wall clock.
func TestTracerDeterministic(t *testing.T) {
	tr := NewTracer(NewTraceRing(16), 8)
	var sampled []int
	for i := 1; i <= 64; i++ {
		if tr.Sample() {
			sampled = append(sampled, i)
		}
	}
	if len(sampled) != 8 {
		t.Fatalf("sampled %d of 64 at 1-in-8, want 8", len(sampled))
	}
	for k, i := range sampled {
		if i != 8*k+1 {
			t.Fatalf("sample %d at arrival %d, want %d", k, i, 8*k+1)
		}
	}
	all := NewTracer(NewTraceRing(16), 1)
	for i := 0; i < 5; i++ {
		if !all.Sample() {
			t.Fatal("1-in-1 tracer must sample everything")
		}
	}
	var nilTracer *Tracer
	if nilTracer.Sample() {
		t.Fatal("nil tracer must never sample")
	}
}

// TestHTTPEndpoint: /metrics serves the exposition, /trace dumps the
// ring, and the pprof index responds — all on one mux.
func TestHTTPEndpoint(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ssa_hits_total", "hits", 1)
	c.Add(0, 9)
	ring := NewTraceRing(16)
	ring.Append(&TraceEvent{Keyword: 3})
	srv, err := Serve("127.0.0.1:0", r, ring)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if out := get("/metrics"); !strings.Contains(out, "ssa_hits_total 9") {
		t.Fatalf("/metrics missing counter:\n%s", out)
	}
	if out := get("/trace"); !strings.Contains(out, `"keyword":3`) {
		t.Fatalf("/trace missing event:\n%s", out)
	}
	if out := get("/debug/pprof/"); !strings.Contains(out, "goroutine") {
		t.Fatalf("pprof index unexpected:\n%s", out)
	}
}

// TestObsPrimitiveAllocs: the write-side primitives — counter add,
// float add, histogram record, sampler check, ring append — allocate
// nothing.
func TestObsPrimitiveAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a_total", "a", 2)
	f := r.FloatCounter("b_total", "b", 2)
	h := r.Histogram("c_ns", "c")
	tr := NewTracer(NewTraceRing(64), 4)
	var ev TraceEvent
	allocs := testing.AllocsPerRun(2000, func() {
		c.Inc(1)
		f.Add(0, 1.25)
		h.Record(123456)
		if tr.Sample() {
			ev.Start = 1
			tr.Ring.Append(&ev)
		}
	})
	if allocs != 0 {
		t.Fatalf("obs primitives allocate %.2f objects/op, want 0", allocs)
	}
}
