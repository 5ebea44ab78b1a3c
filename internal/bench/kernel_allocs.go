package bench

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	wazi "github.com/wazi-index/wazi"
	"github.com/wazi-index/wazi/internal/bench/harness"
	"github.com/wazi-index/wazi/internal/dataset"
	"github.com/wazi-index/wazi/internal/workload"
)

// kernelSink defeats dead-code elimination of the measured query loops.
var kernelSink int

// KernelAllocs proves the zero-allocation query kernel: steady-state
// RangeQuery/RangeCount/KNN through the Append APIs must not allocate — not
// on a single Index, not through the Sharded fan-out with its pooled
// per-query arenas, and (since the zero-copy disk read path) not on the
// disk backend's warm block-cache hit path either, where every page resolve
// is a pinned borrowed view instead of a decoded copy. The experiment
// measures itself (runtime MemStats deltas around batches of queries,
// minimum over several batches so a stray background allocation cannot
// inflate the steady state) and reports the counts in an exact-class table,
// which `waziexp ratchet` holds to the committed baseline of zero — a hard
// gate, since any appearance from zero is an infinite relative regression.
// Latencies land in a separate latency-class table so cross-machine runs
// can gate allocations without gating timing.
func KernelAllocs(cfg Config) []Table {
	cfg.fill()
	r := cfg.Regions[0]
	data := dataset.Generate(r, cfg.Scale, cfg.Seed)
	train := workload.Skewed(r, cfg.Queries, MidSelectivity, cfg.Seed+21)
	qs := workload.Skewed(r, cfg.Queries, MidSelectivity, cfg.Seed+31)
	const k = 10

	idx, err := wazi.NewWorkloadAware(data, train,
		wazi.WithLeafSize(cfg.LeafSize), wazi.WithSeed(cfg.Seed))
	if err != nil {
		panic(err)
	}
	sh, err := wazi.NewSharded(data, train,
		wazi.WithShards(8),
		wazi.WithIndexOptions(wazi.WithLeafSize(cfg.LeafSize), wazi.WithSeed(cfg.Seed)),
		wazi.WithoutAutoRebuild(),
	)
	if err != nil {
		panic(err)
	}
	defer sh.Close()

	// Disk-backed twins. The cache comfortably holds the working set and
	// the measured batch runs after a priming pass, so the measured rows
	// are pure block-cache hits — the path the ratchet holds to zero.
	diskDir, err := os.MkdirTemp("", "wazi-kernel-allocs")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(diskDir)
	// Leaves average well under the LeafSize cap, so size the cache on a
	// pessimistic leaf count; a refault during the bracketed pass would
	// show up as an allocation and fail the zero ratchet.
	diskCache := cfg.Scale/8 + 256
	diskIdx, err := wazi.NewWorkloadAware(data, train,
		wazi.WithLeafSize(cfg.LeafSize), wazi.WithSeed(cfg.Seed),
		wazi.WithStorage(wazi.Storage{
			Path:       filepath.Join(diskDir, "index.pages"),
			CachePages: diskCache,
		}))
	if err != nil {
		panic(err)
	}
	defer diskIdx.Close()
	diskSh, err := wazi.NewSharded(data, train,
		wazi.WithShards(8),
		wazi.WithIndexOptions(wazi.WithLeafSize(cfg.LeafSize), wazi.WithSeed(cfg.Seed)),
		wazi.WithoutAutoRebuild(),
		wazi.WithShardedStorage(filepath.Join(diskDir, "shards"), diskCache),
	)
	if err != nil {
		panic(err)
	}
	defer diskSh.Close()

	// One reusable destination buffer per measured loop — the usage pattern
	// the Append APIs exist for. kNN queries at the centers of the range
	// workload's rectangles.
	var buf []wazi.Point
	rows := []struct {
		name string
		run  func()
	}{
		{"index/range", func() {
			for _, q := range qs {
				buf = idx.RangeQueryAppend(buf[:0], q)
			}
			kernelSink += len(buf)
		}},
		{"index/count", func() {
			for _, q := range qs {
				kernelSink += idx.RangeCount(q)
			}
		}},
		{"index/knn", func() {
			for _, q := range qs {
				buf = idx.KNNAppend(buf[:0], center(q), k)
			}
			kernelSink += len(buf)
		}},
		{"sharded/range", func() {
			for _, q := range qs {
				buf = sh.RangeQueryAppend(buf[:0], q)
			}
			kernelSink += len(buf)
		}},
		{"sharded/count", func() {
			for _, q := range qs {
				kernelSink += sh.RangeCount(q)
			}
		}},
		{"sharded/knn", func() {
			for _, q := range qs {
				buf = sh.KNNAppend(buf[:0], center(q), k)
			}
			kernelSink += len(buf)
		}},
		{"index-disk/range", func() {
			for _, q := range qs {
				buf = diskIdx.RangeQueryAppend(buf[:0], q)
			}
			kernelSink += len(buf)
		}},
		{"index-disk/count", func() {
			for _, q := range qs {
				kernelSink += diskIdx.RangeCount(q)
			}
		}},
		{"index-disk/knn", func() {
			for _, q := range qs {
				buf = diskIdx.KNNAppend(buf[:0], center(q), k)
			}
			kernelSink += len(buf)
		}},
		{"sharded-disk/range", func() {
			for _, q := range qs {
				buf = diskSh.RangeQueryAppend(buf[:0], q)
			}
			kernelSink += len(buf)
		}},
		{"sharded-disk/count", func() {
			for _, q := range qs {
				kernelSink += diskSh.RangeCount(q)
			}
		}},
		{"sharded-disk/knn", func() {
			for _, q := range qs {
				buf = diskSh.KNNAppend(buf[:0], center(q), k)
			}
			kernelSink += len(buf)
		}},
	}

	exact := Table{
		ID:     "kernel-allocs",
		Title:  fmt.Sprintf("Steady-state query kernel allocations, RAM and warm-disk backends (%s, %d points, %d queries/batch)", r, cfg.Scale, len(qs)),
		Header: []string{"Path", "Allocs/op", "Alloc bytes/op"},
		Class:  harness.ClassExact,
		Notes: []string{
			"MemStats deltas over a query batch, minimum of 3 batches after warmup; deterministic, ratcheted against an exact-zero baseline",
			"disk rows measure the block-cache hit path (cache holds the working set, primed before the bracketed pass): zero-copy borrowed views, no per-page decode",
		},
	}
	lat := Table{
		ID:     "kernel-allocs",
		Title:  "Query kernel latency context (same batches)",
		Header: []string{"Path", "ns/op"},
		Notes:  []string{"wall time of the best batch; timing-noisy, gated (if at all) by the latency threshold"},
	}
	// The kNN rows' targets, whose cumulative PointsScanned gives the scan
	// work per query in its own exact-class table.
	scanned := map[string]func() int64{
		"index/knn":        func() int64 { return idx.Stats().AtomicSnapshot().PointsScanned },
		"sharded/knn":      func() int64 { return sh.Stats().PointsScanned },
		"index-disk/knn":   func() int64 { return diskIdx.Stats().AtomicSnapshot().PointsScanned },
		"sharded-disk/knn": func() int64 { return diskSh.Stats().PointsScanned },
	}
	scan := Table{
		ID:     "kernel-allocs",
		Title:  fmt.Sprintf("kNN scan work, k=%d at the range workload's centres (8 shards)", k),
		Header: []string{"Path", "Points scanned/op"},
		Class:  harness.ClassExact,
		Notes: []string{
			"Stats().PointsScanned delta over one query batch; deterministic, ratcheted like the allocation counts",
			"the sharded rows search the home shard, then only radius-bounded windows on shards that can still contribute",
		},
	}
	for _, row := range rows {
		allocs, bytes, nsOp := measureAllocs(row.run, len(qs))
		exact.Rows = append(exact.Rows, []string{
			row.name, fmt.Sprintf("%.3f", allocs), fmt.Sprintf("%.1f", bytes),
		})
		lat.Rows = append(lat.Rows, []string{row.name, fmt.Sprintf("%.0f", nsOp)})
		if count := scanned[row.name]; count != nil {
			before := count()
			row.run()
			perOp := float64(count()-before) / float64(len(qs))
			scan.Rows = append(scan.Rows, []string{row.name, fmt.Sprintf("%.1f", perOp)})
		}
	}
	return []Table{exact, lat, scan}
}

// center returns the midpoint of a query rectangle.
func center(q wazi.Rect) wazi.Point {
	return wazi.Point{X: (q.MinX + q.MaxX) / 2, Y: (q.MinY + q.MaxY) / 2}
}

// measureAllocs runs fn repeatedly and returns its per-operation allocation
// count, allocated bytes, and wall time at steady state. Each measured batch
// is preceded by a GC (which empties sync.Pools) and an unmeasured priming
// pass (which restocks them and grows every reused buffer to its high-water
// mark), so the bracketed pass sees exactly the steady state a long-running
// server reaches. The minimum across batches is reported: allocations from
// unrelated goroutines can only add.
func measureAllocs(fn func(), ops int) (allocsOp, bytesOp, nsOp float64) {
	allocsOp, bytesOp, nsOp = math.Inf(1), math.Inf(1), math.Inf(1)
	var before, after runtime.MemStats
	for batch := 0; batch < 3; batch++ {
		runtime.GC()
		fn()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		a := float64(after.Mallocs-before.Mallocs) / float64(ops)
		b := float64(after.TotalAlloc-before.TotalAlloc) / float64(ops)
		if a < allocsOp {
			allocsOp = a
		}
		if b < bytesOp {
			bytesOp = b
		}
	}
	for batch := 0; batch < 3; batch++ {
		start := time.Now()
		fn()
		if d := float64(time.Since(start).Nanoseconds()) / float64(ops); d < nsOp {
			nsOp = d
		}
	}
	return allocsOp, bytesOp, nsOp
}
