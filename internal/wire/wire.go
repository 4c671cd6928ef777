// Package wire is the binary serving protocol: the length-prefixed,
// CRC-checksummed frame format and the request/response payload
// encodings that internal/server speaks on the accept side and
// internal/client speaks on the dial side.
//
// # Frame format
//
// Every message after the connection handshake is one frame,
// borrowing the exact physical idiom of internal/journal's records:
//
//	u32 payloadLen (LE) | u32 CRC32-IEEE(payload) (LE) | payload
//
// A FrameReader rejects frames whose declared length exceeds its
// limit (a corrupted or hostile length field never provokes a huge
// allocation), detects torn headers and torn payloads (short reads
// mid-frame), and verifies the checksum before handing the payload
// out. Like journal recovery, every corruption is an error with a
// reason — never a panic — which FuzzWireDecode pins.
//
// # Handshake
//
// The dialer opens with the 8-byte Magic ("SSAWIR03" — version in the
// name, bumped for incompatible changes; 02 merged the two stats
// frames of 01 into one that carries the latency histogram, 03
// dropped the batch request and its aggregate response, whose kind
// bytes 0x03 and 0x84 stay unassigned). The server answers with the
// same magic followed by one status byte: HandshakeOK admits the
// connection, HandshakeFull (per-server connection cap) and
// HandshakeDraining (graceful drain in progress) reject it. Only
// after an OK handshake do frames flow.
//
// # Payloads
//
// A payload is `u8 kind | u64 requestID (LE) | body`. Request kinds
// occupy 0x01..0x7f, response kinds 0x81..0xff, so a decoder can tell
// the direction from the kind byte alone. The request ID is opaque to
// the server and echoed verbatim in the matching response — the
// client uses it to correlate pipelined requests. All integers are
// little-endian and all float64s travel as math.Float64bits, so a
// decoded outcome is bit-exact against the serving market's — the
// property the loopback equivalence tests assert.
//
// Encoders are append-style (Append*Req/Append*Resp, and AppendEmpty
// for every kind without a body) writing complete frames into
// caller-owned buffers, and decoders fill reusable
// Request/Response structs whose slices are grown once and reused —
// together they keep the steady-state serve path on both ends of the
// socket at zero heap allocations per auction.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Magic opens every connection in both directions; the trailing 03 is
// the protocol version.
const Magic = "SSAWIR03"

// Handshake status bytes, sent by the server after the magic echo.
const (
	// HandshakeOK admits the connection.
	HandshakeOK byte = 0
	// HandshakeFull rejects: the server is at its connection cap.
	HandshakeFull byte = 1
	// HandshakeDraining rejects: a graceful drain is in progress.
	HandshakeDraining byte = 2
)

// MaxFrame is the default per-frame payload limit. Nothing the
// protocol carries legitimately approaches it; it exists so a
// corrupted length field fails fast instead of allocating.
const MaxFrame = 1 << 20

// frameHeader is the fixed per-frame prefix: u32 len + u32 crc.
const frameHeader = 8

// Kind tags a payload. Requests are < 0x80, responses ≥ 0x80.
type Kind uint8

const (
	// KindAuction runs one auction for a routed keyword.
	// Body: u32 keyword.
	KindAuction Kind = 0x01
	// KindText routes free text through the keyword index and runs
	// the matched keyword's auction. Body: u16 len | bytes.
	KindText Kind = 0x02
	// 0x03 is unassigned (protocol 02's batch request).

	// KindStats requests a live server statistics snapshot. No body.
	KindStats Kind = 0x04
	// KindReset performs a live budget reset ("next day" fence). No
	// body.
	KindReset Kind = 0x05
	// KindDrain begins a graceful drain: intake stops, queued
	// auctions finish, and the response carries the final stats. No
	// body.
	KindDrain Kind = 0x06
	// KindAdd admits an advertiser into the live population (an
	// epoch-fence churn). Body: the serialized advertiser.
	KindAdd Kind = 0x07
	// KindRemove evicts advertiser i. Body: u32 index.
	KindRemove Kind = 0x08

	// KindOutcome answers an auction with the full outcome.
	// Body: u32 query | u64 revenueBits | u16 slots |
	// slots × (u32 advertiser (two's-complement int32; -1 = unfilled)
	// | u64 priceBits | u8 clicked).
	KindOutcome Kind = 0x81
	// KindShed answers an auction dropped by the stream layer's Shed
	// overload policy. No body.
	KindShed Kind = 0x82
	// KindRejected answers a request refused at the connection layer.
	// Body: u8 reason.
	KindRejected Kind = 0x83
	// 0x84 is unassigned (protocol 02's batch result).

	// KindStatsResult carries a ServerStats snapshot: the counter
	// words, then the serving latency histogram.
	// Body: statsFields × u64 | u64 count | u64 sumNs | u64 maxNs |
	// u32 nonzeroBuckets | nonzeroBuckets × (u32 index | u64 count).
	KindStatsResult Kind = 0x85
	// KindOK acknowledges a bodiless success (reset, remove). No body.
	KindOK Kind = 0x86
	// KindAdded acknowledges KindAdd. Body: u32 new advertiser index.
	KindAdded Kind = 0x87
	// KindError reports a request-level failure; the connection stays
	// usable. Body: u16 len | message bytes.
	KindError Kind = 0x88
	// KindUnrouted answers a KindText that matched no catalog
	// keyword. No body.
	KindUnrouted Kind = 0x89
)

// RejectReason explains a KindRejected response.
type RejectReason uint8

const (
	// ReasonWindow: Shed overload policy and the per-connection
	// in-flight window was full.
	ReasonWindow RejectReason = 1
	// ReasonDraining: the server is draining; no new auctions.
	ReasonDraining RejectReason = 2
	// ReasonClosed: the stream layer underneath had already closed.
	ReasonClosed RejectReason = 3
)

// String implements fmt.Stringer.
func (r RejectReason) String() string {
	switch r {
	case ReasonWindow:
		return "window full"
	case ReasonDraining:
		return "draining"
	case ReasonClosed:
		return "closed"
	default:
		return fmt.Sprintf("RejectReason(%d)", uint8(r))
	}
}

// ---------------------------------------------------------------------------
// Frame writing

// beginFrame reserves the 8-byte header; endFrame back-fills it once
// the payload is in place. start is len(dst) before beginFrame.
func beginFrame(dst []byte) []byte {
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
}

func endFrame(dst []byte, start int) []byte {
	payload := dst[start+frameHeader:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst
}

func appendHeader(dst []byte, kind Kind, id uint64) []byte {
	dst = append(dst, byte(kind))
	return binary.LittleEndian.AppendUint64(dst, id)
}

// ---------------------------------------------------------------------------
// Frame reading

// FrameReader reads frames off a byte stream. The payload returned by
// Next is valid only until the following Next call (the backing
// buffer is reused).
type FrameReader struct {
	r   io.Reader
	buf []byte
	max int
	// hdr is the header scratch; a local array would escape through
	// the io.Reader interface and cost one allocation per frame.
	hdr [frameHeader]byte
}

// NewFrameReader wraps r; maxPayload ≤ 0 selects MaxFrame. r should
// already be buffered if syscall-per-frame matters (the server and
// client both hand in a bufio.Reader).
func NewFrameReader(r io.Reader, maxPayload int) *FrameReader {
	if maxPayload <= 0 {
		maxPayload = MaxFrame
	}
	return &FrameReader{r: r, max: maxPayload}
}

// Next reads one frame and returns its checksum-verified payload. A
// cleanly closed stream at a frame boundary returns io.EOF; a stream
// cut mid-frame, an oversized declared length, or a checksum mismatch
// return descriptive errors (never a panic).
func (fr *FrameReader) Next() ([]byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("wire: torn frame header: %w", err)
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(fr.hdr[:4])
	want := binary.LittleEndian.Uint32(fr.hdr[4:])
	if int64(n) > int64(fr.max) {
		return nil, fmt.Errorf("wire: frame payload length %d exceeds limit %d", n, fr.max)
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	p := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, p); err != nil {
		return nil, fmt.Errorf("wire: torn frame payload: %w", err)
	}
	if got := crc32.ChecksumIEEE(p); got != want {
		return nil, fmt.Errorf("wire: frame checksum mismatch: computed %08x, header says %08x", got, want)
	}
	return p, nil
}

// PeekID extracts the kind and request ID from a payload without
// decoding the body — the client's dispatch step.
func PeekID(p []byte) (Kind, uint64, error) {
	if len(p) < 9 {
		return 0, 0, fmt.Errorf("wire: payload too short for header: %d bytes", len(p))
	}
	return Kind(p[0]), binary.LittleEndian.Uint64(p[1:]), nil
}

// ---------------------------------------------------------------------------
// Request encoding

// AppendAuctionReq appends a complete KindAuction frame.
func AppendAuctionReq(dst []byte, id uint64, q int) []byte {
	start := len(dst)
	dst = beginFrame(dst)
	dst = appendHeader(dst, KindAuction, id)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(q))
	return endFrame(dst, start)
}

// AppendTextReq appends a complete KindText frame.
func AppendTextReq(dst []byte, id uint64, query string) []byte {
	start := len(dst)
	dst = beginFrame(dst)
	dst = appendHeader(dst, KindText, id)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(query)))
	dst = append(dst, query...)
	return endFrame(dst, start)
}

// AppendEmpty appends a complete frame of a kind that carries no body:
// the requests KindStats, KindReset and KindDrain, and the responses
// KindShed, KindOK and KindUnrouted.
func AppendEmpty(dst []byte, kind Kind, id uint64) []byte {
	start := len(dst)
	dst = beginFrame(dst)
	dst = appendHeader(dst, kind, id)
	return endFrame(dst, start)
}

// AppendAddReq appends a complete KindAdd frame carrying a. Layout:
// u32 target | u64 budgetBits | u8 heavy | u32 keywords |
// keywords × u32 value | keywords × u32 initialBid |
// u32 slots | slots × u64 clickProbBits.
func AppendAddReq(dst []byte, id uint64, a *workload.Advertiser) []byte {
	start := len(dst)
	dst = beginFrame(dst)
	dst = appendHeader(dst, KindAdd, id)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(a.Target))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(a.Budget))
	if a.Heavy {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(a.Value)))
	for _, v := range a.Value {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	if a.InitialBid == nil {
		// Resolve the nil convention (bid = value/2) at encode time so
		// the decoder always reads exactly len(Value) bids.
		for _, v := range a.Value {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(v/2))
		}
	} else {
		for _, b := range a.InitialBid {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(b))
		}
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(a.ClickProb)))
	for _, p := range a.ClickProb {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p))
	}
	return endFrame(dst, start)
}

// AppendRemoveReq appends a complete KindRemove frame.
func AppendRemoveReq(dst []byte, id uint64, i int) []byte {
	start := len(dst)
	dst = beginFrame(dst)
	dst = appendHeader(dst, KindRemove, id)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(i))
	return endFrame(dst, start)
}

// ---------------------------------------------------------------------------
// Response encoding

// AppendOutcomeResp appends a complete KindOutcome frame serializing
// out bit-exactly (revenue and prices as Float64bits).
func AppendOutcomeResp(dst []byte, id uint64, out *engine.Outcome) []byte {
	start := len(dst)
	dst = beginFrame(dst)
	dst = appendHeader(dst, KindOutcome, id)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(out.Query))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(out.Revenue))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(out.AdvOf)))
	for j := range out.AdvOf {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(out.AdvOf[j])))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(out.PricePerClick[j]))
		if out.Clicked[j] {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return endFrame(dst, start)
}

// AppendRejectedResp appends a complete KindRejected frame.
func AppendRejectedResp(dst []byte, id uint64, reason RejectReason) []byte {
	start := len(dst)
	dst = beginFrame(dst)
	dst = appendHeader(dst, KindRejected, id)
	dst = append(dst, byte(reason))
	return endFrame(dst, start)
}

// AppendAddedResp appends a complete KindAdded frame.
func AppendAddedResp(dst []byte, id uint64, index int) []byte {
	start := len(dst)
	dst = beginFrame(dst)
	dst = appendHeader(dst, KindAdded, id)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(index))
	return endFrame(dst, start)
}

// AppendErrorResp appends a complete KindError frame. Messages longer
// than 64 KiB are truncated.
func AppendErrorResp(dst []byte, id uint64, msg string) []byte {
	if len(msg) > 1<<16-1 {
		msg = msg[:1<<16-1]
	}
	start := len(dst)
	dst = beginFrame(dst)
	dst = appendHeader(dst, KindError, id)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(msg)))
	dst = append(dst, msg...)
	return endFrame(dst, start)
}

// AppendStatsResp appends a complete KindStatsResult frame: every
// ServerStats counter as one u64 in struct order (floats as bits,
// counters zero-extended), then the histogram's totals and its
// nonzero (bucket index, count) pairs.
func AppendStatsResp(dst []byte, id uint64, st *ServerStats) []byte {
	start := len(dst)
	dst = beginFrame(dst)
	dst = appendHeader(dst, KindStatsResult, id)
	for _, v := range [statsFields]uint64{
		uint64(st.Submitted), uint64(st.Served), uint64(st.Shed),
		uint64(st.Rejected), uint64(st.Unrouted), uint64(st.Conns),
		uint64(st.StreamSubmitted), uint64(st.StreamServed),
		uint64(st.StreamShed), uint64(st.StreamPending),
		math.Float64bits(st.Revenue), uint64(st.Clicks),
		uint64(st.Filled), uint64(st.TotalSlots), uint64(st.Epoch),
		uint64(st.Advertisers), math.Float64bits(st.BudgetSpent),
		uint64(st.BudgetExhausted), uint64(st.BudgetDenied),
		math.Float64bits(st.WindowThroughput),
		uint64(st.HistCount), uint64(st.HistSum), uint64(st.HistMax),
	} {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(st.Buckets)))
	for _, b := range st.Buckets {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(b.Index))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(b.Count))
	}
	return endFrame(dst, start)
}

// statsFields is the number of fixed u64 words in a KindStatsResult
// body, ahead of the bucket list.
const statsFields = 23

// ---------------------------------------------------------------------------
// Shared payload structs

// Outcome is the wire-side mirror of engine.Outcome: one auction's
// result, slices indexed by slot. Decoding reuses the slices, so a
// decoded Outcome is valid until the next decode into the same
// struct; CopyFrom deep-copies into caller-owned storage.
type Outcome struct {
	Query         int
	Revenue       float64
	AdvOf         []int
	PricePerClick []float64
	Clicked       []bool
}

// CopyFrom deep-copies src into o, reusing o's slices.
func (o *Outcome) CopyFrom(src *Outcome) {
	o.Query = src.Query
	o.Revenue = src.Revenue
	o.AdvOf = append(o.AdvOf[:0], src.AdvOf...)
	o.PricePerClick = append(o.PricePerClick[:0], src.PricePerClick...)
	o.Clicked = append(o.Clicked[:0], src.Clicked...)
}

// ServerStats is the snapshot a KindStatsResult carries — answering
// both a live stats request and a drain: the connection layer's
// admission counters (the identity Submitted == Served + Shed +
// Rejected holds exactly once the server has drained), the stream
// layer's view beneath it, and the serving latency histogram (total
// count, sum and max in nanoseconds plus the nonzero buckets of the
// obs.Histogram bucket scheme), from which a client reconstructs any
// quantile — see Latency.
type ServerStats struct {
	// Connection layer.
	Submitted int64 // auction-kind requests admitted past decode
	Served    int64 // answered with a KindOutcome
	Shed      int64 // dropped by the stream Shed policy
	Rejected  int64 // refused at the connection layer (window/drain)
	Unrouted  int64 // text that matched no keyword (not in Submitted)
	Conns     int64 // currently admitted connections

	// Stream layer.
	StreamSubmitted  int64
	StreamServed     int64
	StreamShed       int64
	StreamPending    int64
	Revenue          float64
	Clicks           int64
	Filled           int64
	TotalSlots       int64
	Epoch            int64
	Advertisers      int64
	BudgetSpent      float64
	BudgetExhausted  int64
	BudgetDenied     int64
	WindowThroughput float64

	// Serving latency histogram.
	HistCount int64
	HistSum   int64
	HistMax   int64
	Buckets   []HistBucket
}

// SetLatency fills the histogram fields from a snapshot, reusing
// Buckets.
func (st *ServerStats) SetLatency(hs *obs.HistSnapshot) {
	st.HistCount, st.HistSum, st.HistMax = hs.Count, hs.Sum, hs.Max
	st.Buckets = st.Buckets[:0]
	for i, c := range hs.Counts {
		if c != 0 {
			st.Buckets = append(st.Buckets, HistBucket{Index: i, Count: c})
		}
	}
}

// Latency rebuilds the server's latency histogram into hs, whose
// quantiles then equal the server-side snapshot's exactly.
func (st *ServerStats) Latency(hs *obs.HistSnapshot) {
	*hs = obs.HistSnapshot{Count: st.HistCount, Sum: st.HistSum, Max: st.HistMax}
	for _, b := range st.Buckets {
		hs.Counts[b.Index] = b.Count
	}
}

// HistBucket is one nonzero bucket of a wire-carried histogram
// snapshot: the obs package's bucket index and its count.
type HistBucket struct {
	Index int
	Count int64
}

// ---------------------------------------------------------------------------
// Decoding

// reader is a bounds-checked cursor over a payload: every read either
// succeeds or sets the sticky fail flag and returns zero — decoders
// check fail once at the end, so a truncated or hostile payload can
// never index out of range.
type reader struct {
	p    []byte
	off  int
	fail bool
}

func (r *reader) u8() uint8 {
	if r.off+1 > len(r.p) {
		r.fail = true
		return 0
	}
	v := r.p[r.off]
	r.off++
	return v
}

func (r *reader) u16() uint16 {
	if r.off+2 > len(r.p) {
		r.fail = true
		return 0
	}
	v := binary.LittleEndian.Uint16(r.p[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if r.off+4 > len(r.p) {
		r.fail = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.p[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.off+8 > len(r.p) {
		r.fail = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.p[r.off:])
	r.off += 8
	return v
}

func (r *reader) bytes(n int) []byte {
	if n < 0 || r.off+n > len(r.p) {
		r.fail = true
		return nil
	}
	v := r.p[r.off : r.off+n]
	r.off += n
	return v
}

// remaining reports how many bytes the cursor has left — decoders use
// it to validate declared element counts before looping, so a hostile
// count can never drive a huge allocation.
func (r *reader) remaining() int { return len(r.p) - r.off }

func (r *reader) done() error {
	if r.fail {
		return fmt.Errorf("wire: truncated payload (%d bytes)", len(r.p))
	}
	if r.off != len(r.p) {
		return fmt.Errorf("wire: %d trailing bytes after payload", len(r.p)-r.off)
	}
	return nil
}

// Request is a decoded request payload. Decode reuses Text and the
// Adv slices, so a Request is valid until the next Decode into it.
type Request struct {
	Kind Kind
	ID   uint64
	Q    int                 // KindAuction, KindRemove
	Text []byte              // KindText
	Adv  workload.Advertiser // KindAdd
}

// Decode parses one request payload into req. Any malformed input —
// truncated, trailing bytes, counts that overrun the payload, or a
// response/unknown kind — returns an error and never panics.
func (req *Request) Decode(p []byte) error {
	r := reader{p: p}
	req.Kind = Kind(r.u8())
	req.ID = r.u64()
	if r.fail {
		return fmt.Errorf("wire: payload too short for request header: %d bytes", len(p))
	}
	switch req.Kind {
	case KindAuction, KindRemove:
		req.Q = int(int32(r.u32()))
	case KindText:
		n := int(r.u16())
		req.Text = append(req.Text[:0], r.bytes(n)...)
	case KindStats, KindReset, KindDrain:
		// No body.
	case KindAdd:
		a := &req.Adv
		a.Target = int(int32(r.u32()))
		a.Budget = math.Float64frombits(r.u64())
		a.Heavy = r.u8() != 0
		k := int(r.u32())
		if k > r.remaining()/8 { // value + bid arrays, 4 bytes each
			return fmt.Errorf("wire: advertiser keyword count %d overruns payload", k)
		}
		a.Value = a.Value[:0]
		for i := 0; i < k; i++ {
			a.Value = append(a.Value, int(int32(r.u32())))
		}
		a.InitialBid = a.InitialBid[:0]
		for i := 0; i < k; i++ {
			a.InitialBid = append(a.InitialBid, int(int32(r.u32())))
		}
		sl := int(r.u32())
		if sl > r.remaining()/8 {
			return fmt.Errorf("wire: advertiser slot count %d overruns payload", sl)
		}
		a.ClickProb = a.ClickProb[:0]
		for i := 0; i < sl; i++ {
			a.ClickProb = append(a.ClickProb, math.Float64frombits(r.u64()))
		}
	default:
		return fmt.Errorf("wire: unknown request kind 0x%02x", uint8(req.Kind))
	}
	return r.done()
}

// Response is a decoded response payload. Decode reuses the Out
// slices, so a Response is valid until the next Decode into it. Msg
// (KindError) is freshly allocated — the error path is not a hot
// path.
type Response struct {
	Kind   Kind
	ID     uint64
	Reason RejectReason // KindRejected
	Out    Outcome      // KindOutcome
	Stats  ServerStats  // KindStatsResult (Buckets reused)
	Index  int          // KindAdded
	Msg    string       // KindError
}

// Decode parses one response payload into resp, with the same
// never-panic contract as Request.Decode.
func (resp *Response) Decode(p []byte) error {
	r := reader{p: p}
	resp.Kind = Kind(r.u8())
	resp.ID = r.u64()
	if r.fail {
		return fmt.Errorf("wire: payload too short for response header: %d bytes", len(p))
	}
	switch resp.Kind {
	case KindOutcome:
		o := &resp.Out
		o.Query = int(int32(r.u32()))
		o.Revenue = math.Float64frombits(r.u64())
		n := int(r.u16())
		if n > r.remaining()/13 { // 4 + 8 + 1 bytes per slot
			return fmt.Errorf("wire: outcome slot count %d overruns payload", n)
		}
		o.AdvOf = o.AdvOf[:0]
		o.PricePerClick = o.PricePerClick[:0]
		o.Clicked = o.Clicked[:0]
		for i := 0; i < n; i++ {
			o.AdvOf = append(o.AdvOf, int(int32(r.u32())))
			o.PricePerClick = append(o.PricePerClick, math.Float64frombits(r.u64()))
			o.Clicked = append(o.Clicked, r.u8() != 0)
		}
	case KindShed, KindOK, KindUnrouted:
		// No body.
	case KindRejected:
		resp.Reason = RejectReason(r.u8())
	case KindStatsResult:
		st := &resp.Stats
		st.Submitted = int64(r.u64())
		st.Served = int64(r.u64())
		st.Shed = int64(r.u64())
		st.Rejected = int64(r.u64())
		st.Unrouted = int64(r.u64())
		st.Conns = int64(r.u64())
		st.StreamSubmitted = int64(r.u64())
		st.StreamServed = int64(r.u64())
		st.StreamShed = int64(r.u64())
		st.StreamPending = int64(r.u64())
		st.Revenue = math.Float64frombits(r.u64())
		st.Clicks = int64(r.u64())
		st.Filled = int64(r.u64())
		st.TotalSlots = int64(r.u64())
		st.Epoch = int64(r.u64())
		st.Advertisers = int64(r.u64())
		st.BudgetSpent = math.Float64frombits(r.u64())
		st.BudgetExhausted = int64(r.u64())
		st.BudgetDenied = int64(r.u64())
		st.WindowThroughput = math.Float64frombits(r.u64())
		st.HistCount = int64(r.u64())
		st.HistSum = int64(r.u64())
		st.HistMax = int64(r.u64())
		n := int(r.u32())
		if n > r.remaining()/12 { // 4 + 8 bytes per bucket
			return fmt.Errorf("wire: histogram bucket count %d overruns payload", n)
		}
		st.Buckets = st.Buckets[:0]
		for i := 0; i < n; i++ {
			idx := int(int32(r.u32()))
			cnt := int64(r.u64())
			if idx < 0 || idx >= obs.NumBuckets {
				return fmt.Errorf("wire: histogram bucket index %d out of range [0,%d)", idx, obs.NumBuckets)
			}
			st.Buckets = append(st.Buckets, HistBucket{Index: idx, Count: cnt})
		}
	case KindAdded:
		resp.Index = int(int32(r.u32()))
	case KindError:
		n := int(r.u16())
		resp.Msg = string(r.bytes(n))
	default:
		return fmt.Errorf("wire: unknown response kind 0x%02x", uint8(resp.Kind))
	}
	return r.done()
}
