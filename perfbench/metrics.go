package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// metric declares one reported metric. The end-to-end and per-layer
// lists below are the source of BENCHMARK.json's metric lists;
// TestDeclarationsMatchBenchmarkJSON keeps the two equal. Units and
// directions are declared here, never inferred from names.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// workloads the metric describes; nil means every workload. On any
	// other workload the metric is still reported, as 0.
	workloads []string
}

const (
	lower  = "lower"
	higher = "higher"
)

var (
	allReads = []string{"serve-read-zipf", "scan-disk-batch"}
	rangeWl  = []string{"serve-read-zipf", "ingest-wal"}
	zipfOnly = []string{"serve-read-zipf"}
	ingestWl = []string{"ingest-wal"}
	scanOnly = []string{"scan-disk-batch"}
)

// endToEnd are reported with --trace 0: what a user of the service sees.
var endToEnd = []metric{
	{"setup_s", "s", lower, nil},
	{"throughput_ops_s", "ops/s", higher, nil},
	{"latency_mean_us", "us", lower, nil},
	{"latency_p99_us", "us", lower, nil},
	{"index_mb", "MB", lower, nil},
}

// perLayer are reported with --trace 1.
var perLayer = []metric{
	{"e2e.latency_us.range.p50", "us", lower, rangeWl},
	{"e2e.latency_us.range.p99", "us", lower, rangeWl},
	{"e2e.latency_us.knn.p50", "us", lower, zipfOnly},
	{"e2e.latency_us.knn.p99", "us", lower, zipfOnly},
	{"e2e.latency_us.point.p50", "us", lower, zipfOnly},
	{"e2e.latency_us.point.p99", "us", lower, zipfOnly},
	{"e2e.latency_us.insert.p50", "us", lower, ingestWl},
	{"e2e.latency_us.insert.p99", "us", lower, ingestWl},
	{"e2e.latency_us.batch.p50", "us", lower, scanOnly},
	{"e2e.latency_us.batch.p99", "us", lower, scanOnly},
	{"e2e.error_rate", "fraction", lower, nil},
	{"transport.us.p50", "us", lower, nil},
	{"server.handler_us.range.p50", "us", lower, rangeWl},
	{"server.handler_us.range.p99", "us", lower, rangeWl},
	{"server.handler_us.knn.p50", "us", lower, zipfOnly},
	{"server.handler_us.knn.p99", "us", lower, zipfOnly},
	{"server.handler_us.point.p50", "us", lower, zipfOnly},
	{"server.handler_us.point.p99", "us", lower, zipfOnly},
	{"server.handler_us.insert.p50", "us", lower, ingestWl},
	{"server.handler_us.insert.p99", "us", lower, ingestWl},
	{"server.handler_us.batch.p50", "us", lower, scanOnly},
	{"server.handler_us.batch.p99", "us", lower, scanOnly},
	{"server.self_us.range.p50", "us", lower, rangeWl},
	{"server.self_us.knn.p50", "us", lower, zipfOnly},
	{"server.self_us.insert.p50", "us", lower, ingestWl},
	{"server.self_us.batch.p50", "us", lower, scanOnly},
	{"server.reads_per_pass", "count", higher, allReads},
	{"sharded.call_us.range.p50", "us", lower, rangeWl},
	{"sharded.call_us.range.p99", "us", lower, rangeWl},
	{"sharded.call_us.knn.p50", "us", lower, zipfOnly},
	{"sharded.call_us.knn.p99", "us", lower, zipfOnly},
	{"sharded.call_us.point.p50", "us", lower, zipfOnly},
	{"sharded.call_us.point.p99", "us", lower, zipfOnly},
	{"sharded.call_us.insert.p50", "us", lower, ingestWl},
	{"sharded.call_us.insert.p99", "us", lower, ingestWl},
	{"sharded.call_us.count.p50", "us", lower, scanOnly},
	{"sharded.call_us.count.p99", "us", lower, scanOnly},
	{"sharded.rebuilds", "count", lower, nil},
	{"sharded.repartitions", "count", lower, nil},
	{"sharded.backlog_max", "count", lower, ingestWl},
	{"shard.fanout_per_op", "count", lower, nil},
	{"shard.page_imbalance", "ratio", lower, nil},
	{"core.call_us.range.p50", "us", lower, rangeWl},
	{"core.call_us.knn.p50", "us", lower, zipfOnly},
	{"core.call_us.count.p50", "us", lower, scanOnly},
	{"core.points_scanned_per_op", "count", lower, nil},
	{"core.pages_per_op", "count", lower, nil},
	{"core.bb_checked_per_op", "count", lower, nil},
	{"core.lookahead_jumps_per_op", "count", higher, nil},
	{"core.useful_frac", "fraction", higher, nil},
	{"storage.cache_hit_frac", "fraction", higher, scanOnly},
	{"storage.misses_per_op", "count", lower, scanOnly},
	{"storage.evictions_per_op", "count", lower, scanOnly},
	{"wal.fsyncs_per_write", "count", lower, ingestWl},
	{"wal.bytes_per_write", "B", lower, ingestWl},
	{"process.allocs_per_op", "count", lower, nil},
	{"process.alloc_bytes_per_op", "B", lower, nil},
	{"process.gc_per_kop", "count", lower, nil},
	{"trace.overhead_frac", "fraction", lower, nil},
}

// report collects one run's metric values, each with the sample count
// behind it (0 for values that are not sample statistics).
type report struct {
	decl    []metric
	values  map[string]float64
	samples map[string]int
	short   []string // p99s left out for want of samples
}

func newReport(decl []metric) *report {
	return &report{decl: decl, values: map[string]float64{}, samples: map[string]int{}}
}

func (r *report) set(name string, v float64, samples int) {
	if !slices.ContainsFunc(r.decl, func(m metric) bool { return m.name == name }) {
		panic("perfbench: undeclared metric " + name)
	}
	r.values[name] = v
	r.samples[name] = samples
}

// dist is a sample of durations.
type dist []time.Duration

// quantile returns the nearest-rank q-quantile.
func (d dist) quantile(q float64) time.Duration {
	s := slices.Clone(d)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// tailOK reports whether at least ten samples lie beyond the nearest-rank
// q-quantile.
func tailOK(n int, q float64) bool {
	return n-int(math.Ceil(q*float64(n))) >= 10
}

// mean returns the mean of d, which must not be empty.
func (d dist) mean() time.Duration {
	var sum time.Duration
	for _, v := range d {
		sum += v
	}
	return sum / time.Duration(len(d))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// setLatency records the p50 of d under p50 and the p99 under p99, each
// unless its name is empty. A p99 needs at least ten samples beyond it;
// without them it is left unreported and listed in short. An empty sample
// records nothing: the workload issues no op of that kind.
func (r *report) setLatency(p50, p99 string, d dist) {
	if len(d) == 0 {
		return
	}
	if p50 != "" {
		r.set(p50, us(d.quantile(0.50)), len(d))
	}
	if p99 == "" {
		return
	}
	if !tailOK(len(d), 0.99) {
		r.short = append(r.short, fmt.Sprintf("%s (n=%d)", p99, len(d)))
		return
	}
	r.set(p99, us(d.quantile(0.99)), len(d))
}

// setPercentiles records prefix.p50 and prefix.p99 of d.
func (r *report) setPercentiles(prefix string, d dist) {
	r.setLatency(prefix+".p50", prefix+".p99", d)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
