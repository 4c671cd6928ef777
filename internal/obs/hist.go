package obs

import (
	"math/bits"
	"strconv"
	"sync/atomic"
	"time"
)

// Histogram bucket scheme: HDR-style log-scale over non-negative
// int64 values (nanoseconds on every serving path), with 2^subBits
// sub-buckets per power-of-two octave.
//
//   - Values below subCount (32) land in their own exact bucket.
//   - A value v >= 32 with floor(log2 v) = subBits+e lands in bucket
//     e*subCount + (v >> e): the octave is addressed by its top
//     subBits+1 mantissa bits, so every bucket spans at most
//     upper/lower = 1 + 1/subCount of its range.
//
// The quantile error bound follows directly: a reported quantile is
// the upper bound of its bucket, at most 1/subCount = 3.125% above
// any value the bucket holds. The largest int64 maps to bucket 1887,
// so the whole histogram is numBuckets (1888) atomic words — 15 KiB,
// allocated once at registration.
const (
	subBits    = 5
	subCount   = 1 << subBits // 32 sub-buckets per octave
	numBuckets = (63-subBits)*subCount + subCount

	// NumBuckets is the bucket count of every Histogram — exported so
	// the wire layer can bound-check transported snapshots.
	NumBuckets = numBuckets
)

// bucketOf maps a value to its bucket index. Negative values clamp
// to bucket 0 (latencies are non-negative; a clamped outlier is
// better than a panic on a clock step).
func bucketOf(v int64) int {
	if v < subCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 - subBits
	return e*subCount + int(v>>uint(e))
}

// bucketUpper returns the largest value mapping to bucket idx — the
// value a quantile read reports for it.
func bucketUpper(idx int) int64 {
	if idx < 2*subCount {
		return int64(idx)
	}
	e := uint(idx/subCount - 1)
	m := int64(idx%subCount + subCount)
	return (m+1)<<e - 1
}

// Histogram is a fixed-bucket log-scale histogram: Record is one
// atomic add on the value's bucket plus an atomic add on the running
// sum (and a rare CAS when a new maximum appears) — wait-free in the
// fast path, allocation-free always, safe for any number of
// concurrent writers. Snapshots are mergeable by elementwise
// addition.
type Histogram struct {
	name, help string
	buckets    [numBuckets]atomic.Int64
	count      atomic.Int64
	sum        atomic.Int64
	max        atomic.Int64
}

// Record adds one observation.
func (h *Histogram) Record(v int64) {
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of observations recorded so far.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Max returns the exact largest observation recorded so far (0 when
// empty).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Snapshot allocates and fills a snapshot (control path).
func (h *Histogram) Snapshot() *HistSnapshot {
	s := new(HistSnapshot)
	h.SnapshotInto(s)
	return s
}

// SnapshotInto copies the current state into s, overwriting it. The
// copy is not atomic across buckets — concurrent Records may or may
// not be included — but every included observation is counted exactly
// once, and after writers quiesce a snapshot is exact.
func (h *Histogram) SnapshotInto(s *HistSnapshot) {
	// Count is read first and the buckets after: a concurrent Record
	// bumps the bucket before it would be missing from Count, so
	// Quantile's rank (computed from Count) never walks past the
	// buckets' total.
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
}

// HistSnapshot is one histogram observation set: per-bucket counts
// plus total count, sum, and exact max. Snapshots merge by Merge and
// travel the wire as (index, count) pairs of the nonzero buckets.
type HistSnapshot struct {
	Counts [numBuckets]int64
	Count  int64
	Sum    int64
	Max    int64
}

// Merge adds other into s elementwise (Max by maximum).
func (s *HistSnapshot) Merge(other *HistSnapshot) {
	for i := range s.Counts {
		s.Counts[i] += other.Counts[i]
	}
	s.Count += other.Count
	s.Sum += other.Sum
	if other.Max > s.Max {
		s.Max = other.Max
	}
}

// Sub turns s into the observations recorded after the earlier
// snapshot before was taken — the per-call view of a lifetime
// histogram. Max stays exact when the window set a new lifetime
// maximum; otherwise it is the upper bound of the window's highest
// occupied bucket, clamped to the lifetime maximum.
func (s *HistSnapshot) Sub(before *HistSnapshot) {
	top := -1
	for i := range s.Counts {
		s.Counts[i] -= before.Counts[i]
		if s.Counts[i] > 0 {
			top = i
		}
	}
	s.Count -= before.Count
	s.Sum -= before.Sum
	switch {
	case top < 0:
		s.Max = 0
	case s.Max == before.Max && bucketUpper(top) < s.Max:
		s.Max = bucketUpper(top)
	}
}

// Percentiles returns the p50/p95/p99 quantiles and the maximum of a
// nanosecond histogram — the one latency summary every Stats view
// (batch, stream, wire) reports.
func (s *HistSnapshot) Percentiles() (p50, p95, p99, max time.Duration) {
	return time.Duration(s.Quantile(0.50)), time.Duration(s.Quantile(0.95)),
		time.Duration(s.Quantile(0.99)), time.Duration(s.Max)
}

// Quantile returns the q-quantile (0 <= q <= 1) at rank
// int(q*(count-1)) of the sorted sample: the upper bound of the
// bucket holding that rank, clamped to the exact Max. Empty snapshots
// report 0.
func (s *HistSnapshot) Quantile(q float64) int64 {
	if s.Count <= 0 {
		return 0
	}
	rank := int64(q * float64(s.Count-1))
	var cum int64
	for i := range s.Counts {
		cum += s.Counts[i]
		if cum > rank {
			u := bucketUpper(i)
			if u > s.Max {
				u = s.Max
			}
			return u
		}
	}
	return s.Max
}

// appendProm renders the snapshot in Prometheus histogram text format
// (nonzero buckets only; cumulative counts remain correct).
func (s *HistSnapshot) appendProm(b []byte, name, help string) []byte {
	b = head(b, name, help, "histogram")
	var cum int64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		cum += c
		b = append(b, name...)
		b = append(b, `_bucket{le="`...)
		b = strconv.AppendInt(b, bucketUpper(i), 10)
		b = append(b, `"} `...)
		b = strconv.AppendInt(b, cum, 10)
		b = append(b, '\n')
	}
	b = append(b, name...)
	b = append(b, `_bucket{le="+Inf"} `...)
	b = strconv.AppendInt(b, cum, 10)
	b = append(b, '\n')
	b = append(b, name...)
	b = append(b, "_sum "...)
	b = strconv.AppendInt(b, s.Sum, 10)
	b = append(b, '\n')
	b = append(b, name...)
	b = append(b, "_count "...)
	b = strconv.AppendInt(b, s.Count, 10)
	b = append(b, '\n')
	return b
}
