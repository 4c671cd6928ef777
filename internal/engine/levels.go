package engine

import (
	"slices"

	"repro/internal/logical"
	"repro/internal/topk"
	"repro/internal/workload"
)

// levelBuckets is one keyword's bid lists, kept for integer bids: per
// slot, one bucket per (logical-update group, stored bid level), each
// holding its advertisers' ranks in the slot's click order (click
// probability descending, ties by ascending id), ascending. A member's
// effective bid is its stored level plus its group's shared
// adjustment, so a logical update moves no bucket. A bidder whose group
// changed moves, by a binary search and a memmove per slot, when the
// keyword's next auction syncs the buckets. Ranks compare as plain
// integers within one contiguous bucket, so neither the search nor the
// walk reads the click matrix out of order.
//
// Effective bids stay in [0, width), so a group's occupied stored
// levels are distinct modulo width and each group needs only a ring of
// width buckets: bucket b = group·width + (stored mod width).
//
// Every slot holds the same members in each bucket (only their order
// differs), so one layout — offset, size and capacity per bucket —
// serves all k per-slot arenas. A full bucket moves to the arena's
// free tail with doubled capacity; when the tail runs out, every bucket
// is repacked with slack. The arenas are sized so that the repack
// always fits, and nothing allocates after the build.
type levelBuckets struct {
	k, n   int
	width  int
	stride int     // each slot's arena length
	ranks  []int32 // slot j's bucket b is ranks[j·stride+off[b]:][:size[b]]

	off, size, cap []int32
	top            int32   // first arena entry past every bucket's capacity
	scratch        []int32 // one arena's worth, for the repack
	fill           []int32 // per bucket, for build

	// where[i] is advertiser i's bucket as the arenas hold it; stale[i]
	// marks an advertiser whose group changed since the last sync, and
	// pending lists the marked advertisers.
	where   []int32
	stale   []bool
	pending []int32
}

// newLevelBuckets builds keyword q's buckets from its groups as they
// stand (see build).
func newLevelBuckets(inst *workload.Instance, q int, groups []*logical.Group, member []int8, order [][]topk.Item) *levelBuckets {
	n, k := inst.N, inst.Slots
	width := 1
	for i := 0; i < n; i++ {
		width = max(width, inst.Value[i][q]+1, inst.InitialBid[i][q]+1)
	}
	nb := len(groups) * width
	lb := &levelBuckets{
		k: k, n: n, width: width,
		// A repack gives bucket b size+size/4+2 entries, at most
		// n + n/4 + 2·nb in all.
		stride:  n + n/2 + 3*nb,
		off:     make([]int32, nb),
		size:    make([]int32, nb),
		cap:     make([]int32, nb),
		fill:    make([]int32, nb),
		where:   make([]int32, n),
		stale:   make([]bool, n),
		pending: make([]int32, 0, n),
	}
	lb.ranks = make([]int32, k*lb.stride)
	lb.scratch = make([]int32, lb.stride)
	lb.build(groups, member, order)
	return lb
}

// build places every advertiser by its group and stored level and
// fills each slot's buckets in the slot's click order.
func (lb *levelBuckets) build(groups []*logical.Group, member []int8, order [][]topk.Item) {
	clear(lb.size)
	for i := range lb.where {
		b := lb.bucketOf(groups, member, i)
		lb.where[i] = b
		lb.size[b]++
	}
	lb.layout()
	for j := 0; j < lb.k; j++ {
		arena := lb.arena(j)
		clear(lb.fill)
		for r, it := range order[j] {
			b := lb.where[it.ID]
			arena[lb.off[b]+lb.fill[b]] = int32(r)
			lb.fill[b]++
		}
	}
}

// markStale records that advertiser i's group changed; the buckets
// catch up at the next sync.
func (lb *levelBuckets) markStale(i int) {
	if !lb.stale[i] {
		lb.stale[i] = true
		lb.pending = append(lb.pending, int32(i))
	}
}

// sync brings the buckets up to date with the groups before a walk: it
// moves each stale advertiser whose bucket changed, or builds afresh
// when more than n/rebuildShare are stale — a build touches k·n
// entries, a move k buckets. A stale bidder found back in its old
// bucket costs nothing.
func (lb *levelBuckets) sync(groups []*logical.Group, member []int8, order [][]topk.Item, rank []int32) {
	if len(lb.pending)*rebuildShare > lb.n {
		lb.build(groups, member, order)
	} else {
		for _, i := range lb.pending {
			if to := lb.bucketOf(groups, member, int(i)); to != lb.where[i] {
				lb.move(int(i), lb.where[i], to, rank)
				lb.where[i] = to
			}
		}
	}
	for _, i := range lb.pending {
		lb.stale[i] = false
	}
	lb.pending = lb.pending[:0]
}

// rebuildShare = 32 beat moves alone on a fresh n = 20 000 market's
// first 1 000 auctions, where most bidders change group (≈ 1.0–1.2 vs
// 1.2–1.6 ms per auction on a 2-vCPU host).
const rebuildShare = 32

// bucketOf returns the bucket advertiser i belongs in now.
func (lb *levelBuckets) bucketOf(groups []*logical.Group, member []int8, i int) int32 {
	g := int(member[i])
	eff, ok := groups[g].Effective(i)
	if !ok {
		panic("engine: bidder missing from its group")
	}
	return lb.bucket(g, int(eff), int(groups[g].Adjustment()))
}

// bucket returns the bucket of a member of group g whose effective bid
// is level while the group's adjustment is adj.
func (lb *levelBuckets) bucket(g, level, adj int) int32 {
	if level < 0 || level >= lb.width {
		panic("engine: effective bid outside the keyword's level ring")
	}
	return int32(g*lb.width + ring(level-adj, lb.width))
}

// ring reduces x modulo w into [0, w).
func ring(x, w int) int {
	x %= w
	if x < 0 {
		x += w
	}
	return x
}

func (lb *levelBuckets) arena(j int) []int32 {
	return lb.ranks[j*lb.stride : (j+1)*lb.stride]
}

// slot returns bucket b's members' slot-j click ranks, ascending.
func (lb *levelBuckets) slot(j int, b int32) []int32 {
	return lb.ranks[j*lb.stride+int(lb.off[b]):][:lb.size[b]]
}

// move takes advertiser id from bucket from to bucket to in every
// slot; rank is the slot-major click-rank matrix (see clickData).
func (lb *levelBuckets) move(id int, from, to int32, rank []int32) {
	if lb.size[to] == lb.cap[to] {
		lb.grow(to)
	}
	for j := 0; j < lb.k; j++ {
		r := rank[j*lb.n+id]
		src := lb.slot(j, from)
		p, found := slices.BinarySearch(src, r)
		if !found {
			panic("engine: bidder missing from its level bucket")
		}
		copy(src[p:], src[p+1:])
		dst := lb.slot(j, to)
		p, _ = slices.BinarySearch(dst, r)
		dst = dst[:len(dst)+1]
		copy(dst[p+1:], dst[p:])
		dst[p] = r
	}
	lb.size[from]--
	lb.size[to]++
}

// grow makes room for one more member in the full bucket b.
func (lb *levelBuckets) grow(b int32) {
	c := 2*lb.cap[b] + 4
	if int(lb.top+c) > lb.stride {
		lb.repack()
		return
	}
	for j := 0; j < lb.k; j++ {
		arena := lb.arena(j)
		copy(arena[lb.top:], arena[lb.off[b]:][:lb.size[b]])
	}
	lb.off[b], lb.cap[b] = lb.top, c
	lb.top += c
}

// repack lays every bucket out afresh with slack, reclaiming the holes
// that grow left behind.
func (lb *levelBuckets) repack() {
	for j := 0; j < lb.k; j++ {
		arena := lb.arena(j)
		copy(lb.scratch, arena)
		at := int32(0)
		for b, sz := range lb.size {
			copy(arena[at:], lb.scratch[lb.off[b]:][:sz])
			at += slack(sz)
		}
	}
	lb.layout()
}

// layout assigns each bucket its repacked offset and capacity.
func (lb *levelBuckets) layout() {
	at := int32(0)
	for b, sz := range lb.size {
		lb.off[b], lb.cap[b] = at, slack(sz)
		at += lb.cap[b]
	}
	lb.top = at
}

// slack is the capacity a repack gives a bucket of sz members.
func slack(sz int32) int32 { return sz + sz/4 + 2 }

// view returns, for the groups' current adjustments, each group's ring
// shift (shift[g] maps an effective level to group g's ring slot, see
// at) and the highest level any bucket occupies (−1 when none does).
func (lb *levelBuckets) view(groups []*logical.Group) (shift [3]int, top int) {
	for g := range shift {
		shift[g] = ring(-int(groups[g].Adjustment()), lb.width)
	}
	for top = lb.width - 1; top >= 0; top-- {
		if lb.size[lb.at(0, top, shift)]+lb.size[lb.at(1, top, shift)]+lb.size[lb.at(2, top, shift)] > 0 {
			break
		}
	}
	return shift, top
}

// at returns group g's bucket for effective level under the ring
// shifts shift (shift[g] = −adjustment mod width).
func (lb *levelBuckets) at(g, level int, shift [3]int) int32 {
	r := level + shift[g]
	if r >= lb.width {
		r -= lb.width
	}
	return int32(g*lb.width + r)
}
