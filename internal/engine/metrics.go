package engine

import (
	"time"

	"repro/internal/budget"
	"repro/internal/obs"
)

// Metrics is the engine's slice of the telemetry registry: one lane
// per shard for the serving counters (each shard goroutine writes
// only its own cache-line-padded lane, so instrumentation adds a
// handful of wait-free atomic operations per auction and no
// contention), plus the per-method auction latency histogram the
// shard workers record into.
//
// The counters are the authoritative serving account: stream.Stats is
// a view over them (Served, Revenue, Clicks, Filled, TotalSlots read
// the lanes in shard order, reproducing the legacy per-shard
// accumulation bit for bit), and the batch Stats' per-batch totals
// reconcile against them in TestStatsViewMatchesRegistry.
type Metrics struct {
	Registry *obs.Registry

	// Per-shard serving counters; lane = shard id.
	Auctions *obs.Counter
	Revenue  *obs.FloatCounter
	Clicks   *obs.Counter
	Filled   *obs.Counter
	Slots    *obs.Counter

	// Latency is the per-auction service latency histogram (dequeue to
	// outcome, nanoseconds) of the configured method — the source of
	// every Stats view's p50/p95/p99/max.
	Latency *obs.Histogram
}

// methodMetricName maps a Method to its Prometheus-safe lowercase
// token (metric names admit [a-z0-9_] only).
func methodMetricName(m Method) string {
	switch m {
	case MethodLP:
		return "lp"
	case MethodH:
		return "h"
	case MethodRH:
		return "rh"
	case MethodRHTALU:
		return "rhtalu"
	case MethodRHParallel:
		return "rh_parallel"
	case MethodHeavy:
		return "heavy"
	default:
		return "unknown"
	}
}

// newMetrics builds and registers the engine's instruments. Called
// once from New, before any serving, so every hot-path handle is
// preregistered (registration is the only allocating step).
func newMetrics(e *Engine) *Metrics {
	reg := obs.NewRegistry()
	shards := e.cfg.Shards
	m := &Metrics{
		Registry: reg,
		Auctions: reg.Counter("ssa_auctions_total",
			"auctions served, across batch and streaming paths", shards).
			RenderLanes("shard", nil),
		Revenue: reg.FloatCounter("ssa_revenue_total",
			"total revenue charged across all served auctions", shards),
		Clicks: reg.Counter("ssa_clicks_total",
			"clicked impressions", shards),
		Filled: reg.Counter("ssa_filled_slots_total",
			"slots filled by a winner", shards),
		Slots: reg.Counter("ssa_slots_total",
			"slots offered (filled or not)", shards),
		Latency: reg.Histogram("ssa_auction_latency_"+methodMetricName(e.cfg.Method)+"_ns",
			"per-auction service latency, nanoseconds, method "+e.cfg.Method.String()),
	}
	reg.Gauge("ssa_engine_queue_depth",
		"entries waiting in the shard queues (batch, stream and server traffic alike)", func() float64 {
			var n int
			for _, ch := range e.queues {
				n += len(ch)
			}
			return float64(n)
		})
	if e.cfg.Budget.Policy != budget.PolicyOff {
		reg.Gauge("ssa_budget_spent",
			"published budget spend of the current ledger", func() float64 {
				if led := e.Ledger(); led != nil {
					spent, _, _ := led.Totals()
					return spent
				}
				return 0
			})
		reg.Gauge("ssa_budget_exhausted",
			"budgeted advertisers at or over their cap (published)", func() float64 {
				if led := e.Ledger(); led != nil {
					_, ex, _ := led.Totals()
					return float64(ex)
				}
				return 0
			})
		reg.Gauge("ssa_budget_denied",
			"published budget-gate denials of the current ledger", func() float64 {
				if led := e.Ledger(); led != nil {
					_, _, denied := led.Totals()
					return float64(denied)
				}
				return 0
			})
	}
	if w := e.cfg.Journal; w != nil {
		fsync := reg.Histogram("ssa_journal_fsync_ns",
			"journal fsync latency, nanoseconds")
		w.SetFsyncRecorder(fsync)
		reg.Gauge("ssa_journal_records",
			"spend records appended this journal session", func() float64 {
				return float64(w.Stats().Records)
			})
		reg.Gauge("ssa_journal_snapshots",
			"snapshot compactions performed this session", func() float64 {
				return float64(w.Stats().Snapshots)
			})
		reg.Gauge("ssa_journal_bytes",
			"journal bytes since the last snapshot", func() float64 {
				return float64(w.Stats().JournalBytes)
			})
		reg.Gauge("ssa_journal_stale_dropped",
			"stale lane flushes dropped after epoch changes", func() float64 {
				return float64(w.Stats().StaleDropped)
			})
		reg.Gauge("ssa_journal_snapshot_age_seconds",
			"seconds since the last snapshot was written", func() float64 {
				ns := w.LastSnapshotNanos()
				if ns == 0 {
					return 0
				}
				return time.Since(time.Unix(0, ns)).Seconds()
			})
	}
	return m
}

// observe accounts one served auction into shard's lanes — the
// registry twin of Totals.Add, counting exactly the same quantities.
func (m *Metrics) observe(shard int, out *Outcome) {
	m.Auctions.Inc(shard)
	m.Revenue.Add(shard, out.Revenue)
	var clicks, filled int64
	for j := range out.AdvOf {
		if out.AdvOf[j] >= 0 {
			filled++
		}
		if out.Clicked[j] {
			clicks++
		}
	}
	m.Slots.Add(shard, int64(len(out.AdvOf)))
	m.Filled.Add(shard, filled)
	m.Clicks.Add(shard, clicks)
}

// Metrics returns the engine's telemetry instruments; never nil.
func (e *Engine) Metrics() *Metrics { return e.met }

// TraceRing returns the per-auction trace ring, or nil when tracing
// is disabled (Config.TraceSample == 0).
func (e *Engine) TraceRing() *obs.TraceRing {
	if e.tracer == nil {
		return nil
	}
	return e.tracer.Ring
}
