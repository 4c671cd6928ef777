package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/workload"
)

// fuzzSeeds builds the seed inputs shared by FuzzWireDecode's f.Add
// calls and the checked-in corpus under testdata/fuzz/FuzzWireDecode:
// one valid frame of several kinds, a multi-frame stream, and the
// corruption shapes the decoder must reject without panicking — torn
// header, torn payload, oversized declared length, and a flipped CRC.
func fuzzSeeds() [][]byte {
	adv := workload.Advertiser{
		Value: []int{3, 1}, InitialBid: []int{2, 1},
		ClickProb: []float64{0.5}, Target: 1, Budget: 10,
	}
	out := &engine.Outcome{
		Query: 2, AdvOf: []int{1, -1}, PricePerClick: []float64{1.5, 0},
		Clicked: []bool{true, false}, Revenue: 1.5,
	}
	st := &ServerStats{Submitted: 5, Served: 4, Shed: 1, HistCount: 4, HistSum: 900, HistMax: 400,
		Buckets: []HistBucket{{Index: 40, Count: 3}, {Index: 200, Count: 1}}}
	stream := AppendAuctionReq(nil, 1, 7)
	stream = AppendTextReq(stream, 2, "shoes")
	stream = AppendOutcomeResp(stream, 4, out)
	stream = AppendStatsResp(stream, 5, st)

	torn := AppendEmpty(nil, KindDrain, 6)
	badCRC := AppendAddReq(nil, 7, &adv)
	badCRC[len(badCRC)-1] ^= 0x01
	oversized := AppendRemoveReq(nil, 8, 1)
	binary.LittleEndian.PutUint32(oversized, 1<<28)

	return [][]byte{
		AppendAuctionReq(nil, 1, 0),
		AppendAddReq(nil, 9, &adv),
		AppendRejectedResp(nil, 10, ReasonWindow),
		AppendErrorResp(nil, 11, "bad request"),
		AppendAddedResp(nil, 12, 3),
		stream,
		torn[:len(torn)-3],
		badCRC,
		oversized,
		{},
	}
}

// FuzzWireDecode pins the frame decoder's crash-safety contract, the
// same one FuzzJournalRecover pins for the spend journal: arbitrary
// bytes — torn frames, oversized length fields, corrupted checksums,
// and structurally valid frames with hostile payloads — must either
// decode or error with a reason. Never a panic, never an out-of-range
// index, never an attacker-sized allocation (the reader limit and the
// per-count overrun checks bound every allocation by the input size).
func FuzzWireDecode(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data), 1<<16)
		var req Request
		var resp Response
		for {
			p, err := fr.Next()
			if err != nil {
				break
			}
			// A valid frame's payload may still be garbage; both
			// decoders must handle it. Decode twice to cover request
			// and response interpretations of the same bytes.
			_ = req.Decode(p)
			_ = resp.Decode(p)
		}
		// And the decoders must survive unframed garbage directly.
		_ = req.Decode(data)
		_ = resp.Decode(data)
	})
}

// TestRegenerateFuzzCorpus rewrites the checked-in seed corpus under
// testdata/fuzz/FuzzWireDecode from fuzzSeeds. It only runs when
// WIRE_REGEN_CORPUS=1 — normally it just asserts the corpus exists,
// so an accidentally deleted corpus fails loudly instead of silently
// weakening the CI fuzz-smoke step.
func TestRegenerateFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzWireDecode")
	if os.Getenv("WIRE_REGEN_CORPUS") != "1" {
		ents, err := os.ReadDir(dir)
		if err != nil || len(ents) == 0 {
			t.Fatalf("seed corpus missing at %s (regenerate with WIRE_REGEN_CORPUS=1): %v", dir, err)
		}
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range fuzzSeeds() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s)
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
