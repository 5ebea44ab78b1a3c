package wazi

import (
	"time"

	"github.com/wazi-index/wazi/internal/obs"
	"github.com/wazi-index/wazi/internal/storage"
)

// ShardedObs bundles the observability instruments a Sharded index feeds on
// its hot paths. The instruments are plain obs value objects owned by the
// index; the serving layer registers them with its metrics registry under
// stable names, and the bench harness reads them directly. All fields are
// histograms or counters whose methods are nil-safe, and the whole bundle
// may be absent (WithoutObservability), in which case the query paths pay
// only a nil check.
type ShardedObs struct {
	// FanoutWidth observes, per range/count/kNN query, how many shards the
	// fan-out targeted after pruning — for kNN, how many shards the
	// radius-bounded search actually visited (unit: shards, not seconds).
	FanoutWidth *obs.Histogram
	// FanoutPruned counts shards skipped by MBR/occupancy pruning.
	FanoutPruned *obs.Counter
	// ShardScan observes per-shard scan latency in seconds.
	ShardScan *obs.Histogram
	// PageRead observes disk page-file read latency in seconds; it is
	// attached to the DiskStore of every shard index the Sharded builds,
	// loads, or rebuilds (RAM-backed shards never feed it).
	PageRead *obs.Histogram
	// Rebuild observes drift/compaction rebuild durations in seconds.
	Rebuild *obs.Histogram
	// Migration observes live repartition-migration durations in seconds.
	Migration *obs.Histogram
	// WALFsync observes write-ahead-log fsync latency in seconds — the
	// price of the durability acknowledgement under group/always sync.
	WALFsync *obs.Histogram
}

// fanoutBuckets sizes the fan-out width histogram: widths are small
// integers bounded by the shard count (≤64).
func fanoutBuckets() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64}
}

func newShardedObs() *ShardedObs {
	return &ShardedObs{
		FanoutWidth:  obs.NewHistogram(fanoutBuckets()),
		FanoutPruned: &obs.Counter{},
		ShardScan:    obs.NewHistogram(obs.DefBuckets()),
		PageRead:     obs.NewHistogram(obs.DefBuckets()),
		Rebuild:      obs.NewHistogram(obs.DefBuckets()),
		Migration:    obs.NewHistogram(obs.DefBuckets()),
		WALFsync:     obs.NewHistogram(obs.DefBuckets()),
	}
}

// Obs returns the index's observability instruments, or nil when built
// WithoutObservability. The serving layer registers the bundle at startup.
func (s *Sharded) Obs() *ShardedObs { return s.obs }

// PoolCounters returns the fan-out worker pool's cumulative task count and
// the subset that ran inline on the querying goroutine.
func (s *Sharded) PoolCounters() (ran, inline int64) { return s.pool.Counters() }

// observeFanout records one fan-out decision: width shards targeted out of
// total. Nil-safe.
func (o *ShardedObs) observeFanout(total, width int) {
	if o == nil {
		return
	}
	o.FanoutWidth.Observe(float64(width))
	o.FanoutPruned.Add(int64(total - width))
}

// observeScan records one shard scan's latency. Nil-safe.
func (o *ShardedObs) observeScan(d time.Duration) {
	if o == nil {
		return
	}
	o.ShardScan.Observe(d.Seconds())
}

// WithoutObservability disables the per-query instruments (fan-out and
// latency histograms). Traces handed in via View.WithTrace still work. This
// exists for the obs-overhead benchmark, which measures the instrumented
// hot path against this configuration.
func WithoutObservability() ShardedOption {
	return func(c *shardedConfig) { c.noObs = true }
}

// attachStoreObs points a freshly built or loaded shard index's disk store
// at the shared page-read histogram. No-op for RAM-backed shards or when
// observability is off.
func (s *Sharded) attachStoreObs(idx *Index) {
	if s.obs == nil || idx == nil {
		return
	}
	if ds, ok := idx.z.Store().(*storage.DiskStore); ok {
		ds.SetReadObs(s.obs.PageRead)
	}
}

// snapReadIO sums the cumulative page-file read counters across the disk
// stores of a snapshot's shards. Traced queries take before/after deltas to
// attribute cache-miss page I/O to themselves; concurrent faulting can fold
// a neighbor's read into the delta, so the attribution is monitoring-grade.
func snapReadIO(snap *shardedSnapshot) (reads, nanos int64) {
	for _, ss := range snap.shards {
		if ss.idx == nil {
			continue
		}
		if ds, ok := ss.idx.z.Store().(*storage.DiskStore); ok {
			r, n := ds.ReadIO()
			reads += r
			nanos += n
		}
	}
	return reads, nanos
}

// traceIO starts page-I/O attribution for a traced query against snap; the
// returned func closes the "pagestore" span. Returns nil when tr is nil —
// the caller guards the defer — so un-traced queries never touch the store
// counters.
func (s *Sharded) traceIO(snap *shardedSnapshot, tr *obs.QueryTrace) func() {
	if tr == nil {
		return nil
	}
	t0 := time.Now()
	r0, n0 := snapReadIO(snap)
	return func() {
		r1, n1 := snapReadIO(snap)
		if dr := r1 - r0; dr > 0 {
			tr.AddSpan("pagestore", t0, time.Duration(n1-n0),
				map[string]int64{"reads": dr})
		}
	}
}

// scanStart opens the timing of one shard scan: it returns the start time
// and whether any scan instrument is live (the shared latency histogram or a
// per-query trace). Callers pair it with endScan, skipped when live is
// false. The pair is deliberately not a returned closure — a closure per
// shard scan is a heap allocation on the hottest path in the system, which
// the kernel-allocs experiment ratchets to zero.
func (s *Sharded) scanStart(tr *obs.QueryTrace) (t0 time.Time, live bool) {
	if tr == nil && s.obs == nil {
		return time.Time{}, false
	}
	return time.Now(), true
}

// endScan closes a scan opened by scanStart: latency into the shared
// histogram and, when traced, a per-shard "shard_scan" span stamped with the
// result count.
func (s *Sharded) endScan(tr *obs.QueryTrace, si int, t0 time.Time, results int) {
	d := time.Since(t0)
	s.obs.observeScan(d)
	if tr != nil {
		tr.AddSpan("shard_scan", t0, d,
			map[string]int64{"shard": int64(si), "results": int64(results)})
	}
}
