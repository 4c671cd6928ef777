package main

import (
	"math"
	"math/bits"
)

// hist is the benchmark's own latency ruler: a fixed-size log-bucket
// histogram over nanosecond values with 128 sub-buckets per octave,
// so a bucket is at most 1/128 (0.78%) wide relative to its lower
// edge and a reported quantile is within 1% of the exact one. It is
// deliberately not obs.Histogram: the ruler must not change when the
// program's telemetry does. Recording is two shifts, one add and no
// allocation; a hist is owned by one goroutine and merged afterwards.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
	max    int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// Octaves 7..41 (values up to 2^42 ns ≈ 73 min) plus the exact
	// range [0, 128).
	histBuckets = (42-histSubBits)*histSub + histSub
)

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // v in [2^e, 2^(e+1))
	idx := (e-histSubBits+1)*histSub + int((uint64(v)>>(e-histSubBits))&(histSub-1))
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// histBounds returns bucket idx's value range [lo, hi).
func histBounds(idx int) (lo, hi float64) {
	if idx < histSub {
		return float64(idx), float64(idx + 1)
	}
	e := idx/histSub + histSubBits - 1
	sub := idx % histSub
	width := math.Ldexp(1, e-histSubBits)
	lo = math.Ldexp(1, e) + float64(sub)*width
	return lo, lo + width
}

func (h *hist) record(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
	if ns > h.max {
		h.max = ns
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile in nanoseconds, interpolating by
// rank inside the bucket that holds it (so two runs never report the
// same digits merely because they share a bucket). 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < cum+float64(c) {
			lo, hi := histBounds(i)
			if float64(h.max) < hi {
				hi = float64(h.max)
			}
			if hi < lo {
				hi = lo
			}
			return lo + (hi-lo)*(rank-cum+0.5)/float64(c)
		}
		cum += float64(c)
	}
	return float64(h.max)
}

// us returns the q-quantile in microseconds.
func (h *hist) us(q float64) float64 { return h.quantile(q) / 1e3 }
