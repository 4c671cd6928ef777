package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/workload"
)

// frames builds a stream of complete frames for reader tests.
func frames(bufs ...[]byte) []byte {
	var all []byte
	for _, b := range bufs {
		all = append(all, b...)
	}
	return all
}

// TestRequestRoundTrip: every request kind encodes to one frame and
// decodes back to the same values through a reused Request.
func TestRequestRoundTrip(t *testing.T) {
	adv := workload.Advertiser{
		Value:      []int{3, 0, 7},
		InitialBid: []int{2, 0, 5},
		ClickProb:  []float64{0.75, 0.25},
		Target:     2,
		Budget:     123.5,
		Heavy:      true,
	}
	stream := frames(
		AppendAuctionReq(nil, 1, 42),
		AppendTextReq(nil, 2, "cheap flights"),
		AppendEmpty(nil, KindStats, 4),
		AppendEmpty(nil, KindReset, 5),
		AppendEmpty(nil, KindDrain, 6),
		AppendAddReq(nil, 7, &adv),
		AppendRemoveReq(nil, 8, 9),
	)
	fr := NewFrameReader(bytes.NewReader(stream), 0)
	var req Request
	next := func() *Request {
		t.Helper()
		p, err := fr.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if err := req.Decode(p); err != nil {
			t.Fatalf("Decode: %v", err)
		}
		return &req
	}

	if r := next(); r.Kind != KindAuction || r.ID != 1 || r.Q != 42 {
		t.Fatalf("auction: %+v", r)
	}
	if r := next(); r.Kind != KindText || r.ID != 2 || string(r.Text) != "cheap flights" {
		t.Fatalf("text: %+v", r)
	}
	if r := next(); r.Kind != KindStats || r.ID != 4 {
		t.Fatalf("stats: %+v", r)
	}
	if r := next(); r.Kind != KindReset || r.ID != 5 {
		t.Fatalf("reset: %+v", r)
	}
	if r := next(); r.Kind != KindDrain || r.ID != 6 {
		t.Fatalf("drain: %+v", r)
	}
	r := next()
	if r.Kind != KindAdd || r.ID != 7 {
		t.Fatalf("add: %+v", r)
	}
	a := &r.Adv
	if a.Target != adv.Target || a.Budget != adv.Budget || a.Heavy != adv.Heavy {
		t.Fatalf("add scalar fields: %+v", a)
	}
	for i := range adv.Value {
		if a.Value[i] != adv.Value[i] || a.InitialBid[i] != adv.InitialBid[i] {
			t.Fatalf("add arrays at %d: %+v", i, a)
		}
	}
	for i := range adv.ClickProb {
		if a.ClickProb[i] != adv.ClickProb[i] {
			t.Fatalf("add clickprob at %d: %+v", i, a)
		}
	}
	if r := next(); r.Kind != KindRemove || r.ID != 8 || r.Q != 9 {
		t.Fatalf("remove: %+v", r)
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("want clean EOF at stream end, got %v", err)
	}
}

// TestResponseRoundTrip: every response kind round-trips bit-exactly,
// including the Float64bits encoding of revenue and prices.
func TestResponseRoundTrip(t *testing.T) {
	out := &engine.Outcome{
		Query:         11,
		AdvOf:         []int{4, -1, 2},
		PricePerClick: []float64{1.25, 0, math.Nextafter(3, 4)},
		Clicked:       []bool{true, false, true},
		Revenue:       4.25,
	}
	st := &ServerStats{
		Submitted: 100, Served: 90, Shed: 6, Rejected: 4, Unrouted: 3, Conns: 2,
		StreamSubmitted: 96, StreamServed: 90, StreamShed: 6, StreamPending: 0,
		Revenue: 1234.5, Clicks: 77, Filled: 300, TotalSlots: 400,
		Epoch: 5, Advertisers: 40, BudgetSpent: 17.25, BudgetExhausted: 2,
		BudgetDenied: 9, WindowThroughput: 1e6,
		HistCount: 90, HistSum: 123456, HistMax: 9000,
		Buckets: []HistBucket{{Index: 3, Count: 50}, {Index: obs.NumBuckets - 1, Count: 40}},
	}
	stream := frames(
		AppendOutcomeResp(nil, 1, out),
		AppendEmpty(nil, KindShed, 2),
		AppendRejectedResp(nil, 3, ReasonDraining),
		AppendStatsResp(nil, 5, st),
		AppendEmpty(nil, KindOK, 6),
		AppendAddedResp(nil, 7, 41),
		AppendErrorResp(nil, 8, "boom"),
		AppendEmpty(nil, KindUnrouted, 9),
	)
	fr := NewFrameReader(bytes.NewReader(stream), 0)
	var resp Response
	next := func() *Response {
		t.Helper()
		p, err := fr.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if err := resp.Decode(p); err != nil {
			t.Fatalf("Decode: %v", err)
		}
		return &resp
	}

	r := next()
	if r.Kind != KindOutcome || r.ID != 1 {
		t.Fatalf("outcome: %+v", r)
	}
	if r.Out.Query != out.Query || math.Float64bits(r.Out.Revenue) != math.Float64bits(out.Revenue) {
		t.Fatalf("outcome scalars: %+v", r.Out)
	}
	for j := range out.AdvOf {
		if r.Out.AdvOf[j] != out.AdvOf[j] ||
			math.Float64bits(r.Out.PricePerClick[j]) != math.Float64bits(out.PricePerClick[j]) ||
			r.Out.Clicked[j] != out.Clicked[j] {
			t.Fatalf("outcome slot %d: %+v", j, r.Out)
		}
	}
	if r := next(); r.Kind != KindShed || r.ID != 2 {
		t.Fatalf("shed: %+v", r)
	}
	if r := next(); r.Kind != KindRejected || r.ID != 3 || r.Reason != ReasonDraining {
		t.Fatalf("rejected: %+v", r)
	}
	if r := next(); r.Kind != KindStatsResult || r.ID != 5 || !reflect.DeepEqual(r.Stats, *st) {
		t.Fatalf("stats: %+v", r)
	}
	if r := next(); r.Kind != KindOK || r.ID != 6 {
		t.Fatalf("ok: %+v", r)
	}
	if r := next(); r.Kind != KindAdded || r.ID != 7 || r.Index != 41 {
		t.Fatalf("added: %+v", r)
	}
	if r := next(); r.Kind != KindError || r.ID != 8 || r.Msg != "boom" {
		t.Fatalf("error: %+v", r)
	}
	if r := next(); r.Kind != KindUnrouted || r.ID != 9 {
		t.Fatalf("unrouted: %+v", r)
	}
}

// TestOutcomeCopyFrom: CopyFrom deep-copies, so mutating the source
// afterwards leaves the copy untouched.
func TestOutcomeCopyFrom(t *testing.T) {
	src := Outcome{Query: 3, Revenue: 1.5, AdvOf: []int{1, 2},
		PricePerClick: []float64{0.5, 0.25}, Clicked: []bool{true, false}}
	var dst Outcome
	dst.CopyFrom(&src)
	src.AdvOf[0] = 99
	src.PricePerClick[0] = 99
	src.Clicked[0] = false
	if dst.AdvOf[0] != 1 || dst.PricePerClick[0] != 0.5 || !dst.Clicked[0] {
		t.Fatalf("CopyFrom aliases the source: %+v", dst)
	}
}

// TestFrameCorruption: torn headers, torn payloads, oversized length
// fields, checksum mismatches, and trailing garbage inside a payload
// all error with a reason — none panic, and none are silently
// accepted.
func TestFrameCorruption(t *testing.T) {
	good := AppendAuctionReq(nil, 7, 3)
	cases := []struct {
		name string
		data []byte
		max  int
		want string
	}{
		{"torn header", good[:5], 0, "torn frame header"},
		{"torn payload", good[:len(good)-2], 0, "torn frame payload"},
		{"oversized length", func() []byte {
			b := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(b, 1<<30)
			return b
		}(), 0, "exceeds limit"},
		{"over reader limit", good, 4, "exceeds limit"},
		{"bad crc", func() []byte {
			b := append([]byte(nil), good...)
			b[len(b)-1] ^= 0x40
			return b
		}(), 0, "checksum mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fr := NewFrameReader(bytes.NewReader(tc.data), tc.max)
			_, err := fr.Next()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// TestPayloadCorruption: structurally valid frames whose payloads are
// malformed decode to errors, never panics — truncated bodies,
// element counts that overrun the payload, trailing bytes, and
// direction confusion (decoding a response as a request).
func TestPayloadCorruption(t *testing.T) {
	reframe := func(payload []byte) []byte {
		b := beginFrame(nil)
		b = append(b, payload...)
		return endFrame(b, 0)
	}
	read := func(t *testing.T, data []byte) []byte {
		t.Helper()
		p, err := NewFrameReader(bytes.NewReader(data), 0).Next()
		if err != nil {
			t.Fatalf("framing should be valid here: %v", err)
		}
		return p
	}

	t.Run("truncated body", func(t *testing.T) {
		full := read(t, AppendAuctionReq(nil, 1, 5))
		var req Request
		if err := req.Decode(full[:len(full)-2]); err == nil {
			t.Fatal("truncated auction body decoded without error")
		}
	})
	t.Run("keyword count overrun", func(t *testing.T) {
		p := []byte{byte(KindAdd)}
		p = binary.LittleEndian.AppendUint64(p, 1)
		p = binary.LittleEndian.AppendUint32(p, 0)       // target
		p = binary.LittleEndian.AppendUint64(p, 0)       // budget bits
		p = append(p, 0)                                 // heavy
		p = binary.LittleEndian.AppendUint32(p, 1<<31-1) // keyword count ≫ payload
		var req Request
		if err := req.Decode(read(t, reframe(p))); err == nil ||
			!strings.Contains(err.Error(), "overruns") {
			t.Fatalf("want overrun error, got %v", err)
		}
	})
	t.Run("outcome slot overrun", func(t *testing.T) {
		p := []byte{byte(KindOutcome)}
		p = binary.LittleEndian.AppendUint64(p, 1)
		p = binary.LittleEndian.AppendUint32(p, 0)
		p = binary.LittleEndian.AppendUint64(p, 0)
		p = binary.LittleEndian.AppendUint16(p, 1<<16-1)
		var resp Response
		if err := resp.Decode(read(t, reframe(p))); err == nil ||
			!strings.Contains(err.Error(), "overruns") {
			t.Fatalf("want overrun error, got %v", err)
		}
	})
	t.Run("histogram bucket overrun", func(t *testing.T) {
		full := read(t, AppendStatsResp(nil, 1, &ServerStats{}))
		p := append([]byte(nil), full...)
		binary.LittleEndian.PutUint32(p[len(p)-4:], 1<<31-1) // count ≫ payload
		var resp Response
		if err := resp.Decode(p); err == nil || !strings.Contains(err.Error(), "overruns") {
			t.Fatalf("want overrun error, got %v", err)
		}
	})
	t.Run("histogram bucket index out of range", func(t *testing.T) {
		st := &ServerStats{Buckets: []HistBucket{{Index: obs.NumBuckets, Count: 1}}}
		var resp Response
		if err := resp.Decode(read(t, AppendStatsResp(nil, 1, st))); err == nil ||
			!strings.Contains(err.Error(), "out of range") {
			t.Fatalf("want out-of-range error, got %v", err)
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		full := read(t, AppendEmpty(nil, KindStats, 2))
		var req Request
		if err := req.Decode(append(append([]byte(nil), full...), 0xAA)); err == nil ||
			!strings.Contains(err.Error(), "trailing") {
			t.Fatalf("want trailing-bytes error, got %v", err)
		}
	})
	t.Run("response as request", func(t *testing.T) {
		full := read(t, AppendEmpty(nil, KindShed, 3))
		var req Request
		if err := req.Decode(full); err == nil ||
			!strings.Contains(err.Error(), "unknown request kind") {
			t.Fatalf("want unknown-kind error, got %v", err)
		}
	})
	t.Run("empty payload", func(t *testing.T) {
		var req Request
		if err := req.Decode(nil); err == nil {
			t.Fatal("empty request payload decoded without error")
		}
		var resp Response
		if err := resp.Decode(nil); err == nil {
			t.Fatal("empty response payload decoded without error")
		}
	})
}

// TestDecodeReuse: repeated decodes into the same structs reuse the
// grown slices — after a warmup decode of the largest shape, further
// decodes of same-or-smaller payloads allocate nothing.
func TestDecodeReuse(t *testing.T) {
	out := &engine.Outcome{
		Query:         1,
		AdvOf:         []int{1, 2, 3, 4},
		PricePerClick: []float64{1, 2, 3, 4},
		Clicked:       []bool{true, true, false, false},
		Revenue:       10,
	}
	p := AppendOutcomeResp(nil, 9, out)[frameHeader:]
	var resp Response
	if err := resp.Decode(p); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := resp.Decode(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm response decode allocates %.1f objects/op, want 0", allocs)
	}
}
