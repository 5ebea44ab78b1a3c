package indextest

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/wazi-index/wazi/internal/geom"
	"github.com/wazi-index/wazi/internal/index"
	"github.com/wazi-index/wazi/internal/storage"
)

// This file adds the differential half of the conformance suite: the same
// index built on two page-store backends (RAM-resident and disk-resident)
// must be indistinguishable — byte-identical query results against each
// other and brute force, and identical page-access statistics — including
// after insert/delete churn. Builders must be deterministic (fixed seeds),
// so both backends construct the same tree and the only difference left is
// where pages live.

// updatable is the churn surface a differential target may implement.
type updatable interface {
	index.Index
	Insert(p geom.Point)
	Delete(p geom.Point) bool
}

// Repartitioner is the optional surface of targets whose global partition
// plan can be re-learned from the observed workload and migrated to live
// (wazi.Sharded). When both builds implement it, Differential drives a
// mid-stream repartition and requires the backends to stay byte-identical
// through it.
type Repartitioner interface {
	Repartition() bool
}

// Recoverable is the optional surface of targets that persist a durability
// log: Reopen simulates a crash-restart — recover a fresh instance from the
// target's snapshot plus write-ahead-log tail, without cleanly shutting the
// live one down — and returns the recovered instance. When both builds
// implement it, Differential runs the Recovery battery.
type Recoverable interface {
	Reopen(t *testing.T) index.Index
}

// CacheDropper is the optional surface of targets whose disk-backed block
// cache can be emptied mid-stream (core.ZIndex, wazi.Index, wazi.Sharded).
// When the disk build implements it, Differential runs the ColdCache
// battery: every cached page — and every borrowed view the query kernel
// holds — is invalidated between queries, so zero-copy reads are exercised
// across cache teardown.
type CacheDropper interface {
	DropCaches()
}

// Differential runs the differential conformance suite over two
// constructions of the same index — conventionally buildMem on the
// RAM-resident page store and buildDisk on a disk-resident one. Each
// builder is invoked once per subtest and must produce a fresh instance.
// The disk-backed variant additionally runs the full single-index
// Conformance battery.
func Differential(t *testing.T, buildMem, buildDisk Builder) {
	t.Helper()
	t.Run("Queries", func(t *testing.T) { diffQueries(t, buildMem, buildDisk) })
	t.Run("StatsExactness", func(t *testing.T) { diffStatsExactness(t, buildMem, buildDisk) })
	t.Run("Duplicates", func(t *testing.T) { diffDuplicates(t, buildMem, buildDisk) })
	t.Run("Churn", func(t *testing.T) { diffChurn(t, buildMem, buildDisk) })
	t.Run("Repartition", func(t *testing.T) { diffRepartition(t, buildMem, buildDisk) })
	t.Run("Recovery", func(t *testing.T) { diffRecovery(t, buildMem, buildDisk) })
	t.Run("ColdCache", func(t *testing.T) { diffColdCache(t, buildMem, buildDisk) })
	t.Run("KNN", func(t *testing.T) { diffKNN(t, buildMem, buildDisk) })
	t.Run("DiskConformance", func(t *testing.T) { Conformance(t, buildDisk) })
}

// diffColdCache interleaves queries (and, when supported, churn) with
// forced cache drops on the disk backend, so every few queries refault
// their pages from file bytes. Results must stay byte-identical to the
// RAM backend and brute force through each invalidation — the battery that
// would catch a borrowed view observing recycled or unmapped bytes.
func diffColdCache(t *testing.T, buildMem, buildDisk Builder) {
	t.Helper()
	pts := ClusteredPoints(4000, 61)
	qs := SkewedQueries(150, 62)
	memIdx := buildMem(pts, qs)
	diskIdx := buildDisk(pts, qs)
	dropper, ok := diskIdx.(CacheDropper)
	if !ok {
		t.Skip("disk build does not support DropCaches")
	}
	memUp, okM := memIdx.(updatable)
	diskUp, okD := diskIdx.(updatable)

	live := append([]geom.Point{}, pts...)
	rng := rand.New(rand.NewSource(63))
	queries := append([]geom.Rect{}, qs[:80]...)
	for i := 0; i < 120; i++ {
		queries = append(queries, randRect(rng))
	}
	ref := index.NewBrute(live)
	for i, r := range queries {
		if i%7 == 0 {
			dropper.DropCaches()
		}
		got := diskIdx.RangeQuery(r)
		same(t, got, ref.RangeQuery(r), "cold-cache disk vs brute "+r.String())
		same(t, got, memIdx.RangeQuery(r), "cold-cache disk vs mem "+r.String())
		// Churn between drops so refaults read post-update bytes, not a
		// stale image the cache would have masked.
		if okM && okD && i%11 == 0 {
			p := geom.Point{X: rng.Float64(), Y: rng.Float64()}
			memUp.Insert(p)
			diskUp.Insert(p)
			live = append(live, p)
			j := rng.Intn(len(live))
			q := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			if dm, dd := memUp.Delete(q), diskUp.Delete(q); dm != dd || !dm {
				t.Fatalf("cold-cache Delete(%v) diverged: mem %v, disk %v", q, dm, dd)
			}
			ref = index.NewBrute(live)
		}
	}
	StatsParity(t, snapshotStats(memIdx), snapshotStats(diskIdx), "cold-cache battery")
}

// StatsParity asserts the page-access halves of two Stats snapshots are
// identical. Cache counters are excluded: they describe where pages live,
// which is exactly what may differ between backends.
func StatsParity(t *testing.T, mem, disk storage.Stats, ctx string) {
	t.Helper()
	mem.CacheHits, mem.CacheMisses, mem.CacheEvictions = 0, 0, 0
	disk.CacheHits, disk.CacheMisses, disk.CacheEvictions = 0, 0, 0
	if mem != disk {
		t.Fatalf("%s: page-access stats diverge between backends:\n  mem:  %+v\n  disk: %+v", ctx, mem, disk)
	}
}

func snapshotStats(idx index.Index) storage.Stats { return idx.Stats().AtomicSnapshot() }

func diffQueries(t *testing.T, buildMem, buildDisk Builder) {
	t.Helper()
	pts := ClusteredPoints(5000, 21)
	qs := SkewedQueries(200, 22)
	mem := buildMem(pts, qs)
	disk := buildDisk(pts, qs)
	ref := index.NewBrute(pts)

	rng := rand.New(rand.NewSource(23))
	queries := append([]geom.Rect{}, qs[:100]...)
	for i := 0; i < 150; i++ {
		queries = append(queries, randRect(rng))
	}
	queries = append(queries,
		geom.Rect{MinX: -1, MinY: -1, MaxX: 2, MaxY: 2},
		geom.Rect{MinX: 0.5, MinY: 0.5, MaxX: 0.5, MaxY: 0.5},
		geom.Rect{MinX: 5, MinY: 5, MaxX: 6, MaxY: 6},
	)
	for _, r := range queries {
		got := disk.RangeQuery(r)
		same(t, got, ref.RangeQuery(r), "disk vs brute "+r.String())
		same(t, got, mem.RangeQuery(r), "disk vs mem "+r.String())
	}
	for i := 0; i < len(pts); i += 11 {
		if !disk.PointQuery(pts[i]) || !mem.PointQuery(pts[i]) {
			t.Fatalf("indexed point %v lost by a backend", pts[i])
		}
	}
	StatsParity(t, snapshotStats(mem), snapshotStats(disk), "after query battery")
}

// rangeCounter is the optional counting surface of a differential target.
type rangeCounter interface {
	index.Index
	RangeCount(r geom.Rect) int
}

// diffStatsExactness pins the stats-flushing contract of the query kernel:
// RangeQuery and RangeCount over the same rectangle must produce structurally
// identical per-query stats deltas — same NodesVisited, BBChecked,
// PagesScanned, PointsScanned, LookaheadJumps — because both are defined as
// walks of the same leaf cursor. It also requires every counter to be flushed
// by the time the query returns (no deferred or lost increments), with
// ResultPoints exactly the result size, on both backends.
func diffStatsExactness(t *testing.T, buildMem, buildDisk Builder) {
	t.Helper()
	pts := ClusteredPoints(4000, 91)
	qs := SkewedQueries(120, 92)
	memIdx := buildMem(pts, qs)
	diskIdx := buildDisk(pts, qs)
	mem, okM := memIdx.(rangeCounter)
	disk, okD := diskIdx.(rangeCounter)
	if !okM || !okD {
		t.Skip("index does not support RangeCount")
	}

	rng := rand.New(rand.NewSource(93))
	queries := append([]geom.Rect{}, qs[:60]...)
	for i := 0; i < 80; i++ {
		queries = append(queries, randRect(rng))
	}
	queries = append(queries,
		geom.Rect{MinX: -1, MinY: -1, MaxX: 2, MaxY: 2},
		geom.Rect{MinX: 0.5, MinY: 0.5, MaxX: 0.5, MaxY: 0.5},
		geom.Rect{MinX: 5, MinY: 5, MaxX: 6, MaxY: 6},
	)
	for _, target := range []struct {
		name string
		idx  rangeCounter
	}{{"mem", mem}, {"disk", disk}} {
		for _, r := range queries {
			before := snapshotStats(target.idx)
			got := target.idx.RangeQuery(r)
			mid := snapshotStats(target.idx)
			n := target.idx.RangeCount(r)
			after := snapshotStats(target.idx)
			if n != len(got) {
				t.Fatalf("%s: RangeCount(%s) = %d, RangeQuery returned %d points",
					target.name, r.String(), n, len(got))
			}
			qd := mid.Diff(before)
			cd := after.Diff(mid)
			if qd.ResultPoints != int64(len(got)) {
				t.Fatalf("%s: RangeQuery(%s) delta.ResultPoints = %d, want %d",
					target.name, r.String(), qd.ResultPoints, len(got))
			}
			// Cache counters may legitimately differ between the two passes
			// (the first warms the block cache for the second); everything
			// else must match counter for counter.
			StatsParity(t, qd, cd, target.name+" RangeQuery vs RangeCount delta "+r.String())
		}
	}
	StatsParity(t, snapshotStats(memIdx), snapshotStats(diskIdx), "after stats-exactness battery")
}

func diffDuplicates(t *testing.T, buildMem, buildDisk Builder) {
	t.Helper()
	// Heavy coincidence: pages beyond any leaf capacity cannot split, so
	// the disk backend must chain continuation slots.
	pts := make([]geom.Point, 900)
	for i := range pts {
		pts[i] = geom.Point{X: 0.25 * float64(i%2), Y: 0.25 * float64(i%3)}
	}
	mem := buildMem(pts, nil)
	disk := buildDisk(pts, nil)
	ref := index.NewBrute(pts)
	for _, r := range []geom.Rect{
		{MinX: -1, MinY: -1, MaxX: 1, MaxY: 1},
		{MinX: 0, MinY: 0, MaxX: 0.2, MaxY: 0.2},
		{MinX: 0.25, MinY: 0.5, MaxX: 0.25, MaxY: 0.5},
	} {
		got := disk.RangeQuery(r)
		same(t, got, ref.RangeQuery(r), "dup disk vs brute")
		same(t, got, mem.RangeQuery(r), "dup disk vs mem")
	}
	StatsParity(t, snapshotStats(mem), snapshotStats(disk), "duplicates")
}

func diffChurn(t *testing.T, buildMem, buildDisk Builder) {
	t.Helper()
	pts := ClusteredPoints(3000, 31)
	qs := SkewedQueries(100, 32)
	memIdx := buildMem(pts, qs)
	diskIdx := buildDisk(pts, qs)
	mem, okM := memIdx.(updatable)
	disk, okD := diskIdx.(updatable)
	if !okM || !okD {
		t.Skip("index does not support insert/delete churn")
	}
	// live tracks the expected multiset; each verification pass gets a
	// fresh brute-force reference built from it.
	live := append([]geom.Point{}, pts...)

	rng := rand.New(rand.NewSource(33))
	check := func(ctx string) {
		t.Helper()
		ref := index.NewBrute(live)
		for i := 0; i < 60; i++ {
			r := randRect(rng)
			got := disk.RangeQuery(r)
			same(t, got, ref.RangeQuery(r), ctx+" disk vs brute")
			same(t, got, mem.RangeQuery(r), ctx+" disk vs mem")
		}
		if mem.Len() != disk.Len() || disk.Len() != len(live) {
			t.Fatalf("%s: Len diverged: mem %d, disk %d, want %d", ctx, mem.Len(), disk.Len(), len(live))
		}
		StatsParity(t, snapshotStats(memIdx), snapshotStats(diskIdx), ctx)
	}

	// Insert waves (forcing page splits), then delete waves (forcing page
	// merges and empty pages), interleaved with verification.
	for wave := 0; wave < 3; wave++ {
		for i := 0; i < 700; i++ {
			p := geom.Point{X: rng.Float64(), Y: rng.Float64()}
			mem.Insert(p)
			disk.Insert(p)
			live = append(live, p)
		}
		check("after insert wave")
		for i := 0; i < 500; i++ {
			j := rng.Intn(len(live))
			p := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			dm := mem.Delete(p)
			dd := disk.Delete(p)
			if dm != dd {
				t.Fatalf("Delete(%v) diverged: mem %v, disk %v", p, dm, dd)
			}
			if !dm {
				t.Fatalf("Delete(%v) of a live point reported not found", p)
			}
		}
		check("after delete wave")
	}
	// Structural updates (splits/merges) are covered by the StatsParity
	// checks above when the target applies writes in place; layered targets
	// (e.g. Sharded) buffer writes, so a nonzero-splits assertion is left
	// to backend-specific tests.
}

// diffRepartition drives both backends through a mid-stream partition-plan
// migration: identical drifted traffic, identical churn, a repartition in
// the middle, then more churn and a second repartition. At every stage the
// backends must return byte-identical results (to brute force and to each
// other) with page-access stats parity — a live migration must be
// invisible to correctness and deterministic across page stores.
func diffRepartition(t *testing.T, buildMem, buildDisk Builder) {
	t.Helper()
	pts := ClusteredPoints(4000, 71)
	head := SkewedQueries(150, 72)
	memIdx := buildMem(pts, head)
	diskIdx := buildDisk(pts, head)
	mem, okM := memIdx.(Repartitioner)
	disk, okD := diskIdx.(Repartitioner)
	if !okM || !okD {
		t.Skip("index does not support online repartitioning")
	}
	memUp, okM := memIdx.(updatable)
	diskUp, okD := diskIdx.(updatable)
	if !okM || !okD {
		t.Skip("index does not support insert/delete churn")
	}

	live := append([]geom.Point{}, pts...)
	rng := rand.New(rand.NewSource(73))
	check := func(ctx string) {
		t.Helper()
		ref := index.NewBrute(live)
		for i := 0; i < 50; i++ {
			r := randRect(rng)
			got := diskIdx.RangeQuery(r)
			same(t, got, ref.RangeQuery(r), ctx+" disk vs brute")
			same(t, got, memIdx.RangeQuery(r), ctx+" disk vs mem")
		}
		if memIdx.Len() != diskIdx.Len() || diskIdx.Len() != len(live) {
			t.Fatalf("%s: Len diverged: mem %d, disk %d, want %d", ctx, memIdx.Len(), diskIdx.Len(), len(live))
		}
		StatsParity(t, snapshotStats(memIdx), snapshotStats(diskIdx), ctx)
	}
	churn := func(seed int64) {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 400; i++ {
			p := geom.Point{X: r.Float64(), Y: r.Float64()}
			memUp.Insert(p)
			diskUp.Insert(p)
			live = append(live, p)
		}
		for i := 0; i < 250; i++ {
			j := r.Intn(len(live))
			p := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			dm, dd := memUp.Delete(p), diskUp.Delete(p)
			if dm != dd || !dm {
				t.Fatalf("Delete(%v) diverged mid-stream: mem %v, disk %v", p, dm, dd)
			}
		}
	}
	// drift steers both backends' observed-query windows to a new hotspot so
	// the re-learned plan genuinely differs from the build-time one.
	drift := func(seed int64) {
		for _, q := range driftedQueries(600, seed) {
			memIdx.RangeQuery(q)
			diskIdx.RangeQuery(q)
		}
	}

	check("before migration")
	drift(74)
	churn(75)
	check("pre-migration churn")

	rm, rd := mem.Repartition(), disk.Repartition()
	if rm != rd {
		t.Fatalf("mid-stream repartition diverged: mem migrated=%v, disk migrated=%v", rm, rd)
	}
	if !rm {
		t.Fatal("mid-stream repartition declined on both backends; drift traffic did not move the plan")
	}
	check("after first migration")

	churn(76)
	drift(77)
	check("post-migration churn")
	rm, rd = mem.Repartition(), disk.Repartition()
	if rm != rd {
		t.Fatalf("second repartition diverged: mem migrated=%v, disk migrated=%v", rm, rd)
	}
	check("after second migration")
}

// diffRecovery is the recover-vs-never-crashed battery: churn both backends
// through their write-ahead logs — crossing a repartition epoch when the
// target supports it, so the replayed log spans a live migration — then
// crash-restart each via Recoverable.Reopen and require the recovered
// instances to be byte-identical to each other, to the never-crashed live
// instances, and to a brute-force reference over the expected multiset.
func diffRecovery(t *testing.T, buildMem, buildDisk Builder) {
	t.Helper()
	pts := ClusteredPoints(3000, 81)
	qs := SkewedQueries(100, 82)
	memIdx := buildMem(pts, qs)
	diskIdx := buildDisk(pts, qs)
	memRec, okM := memIdx.(Recoverable)
	diskRec, okD := diskIdx.(Recoverable)
	if !okM || !okD {
		t.Skip("index does not support crash-restart recovery")
	}
	memUp, okM := memIdx.(updatable)
	diskUp, okD := diskIdx.(updatable)
	if !okM || !okD {
		t.Skip("index does not support insert/delete churn")
	}

	live := append([]geom.Point{}, pts...)
	churn := func(seed int64) {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			p := geom.Point{X: r.Float64(), Y: r.Float64()}
			memUp.Insert(p)
			diskUp.Insert(p)
			live = append(live, p)
		}
		for i := 0; i < 300; i++ {
			j := r.Intn(len(live))
			p := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			dm, dd := memUp.Delete(p), diskUp.Delete(p)
			if dm != dd || !dm {
				t.Fatalf("Delete(%v) diverged pre-recovery: mem %v, disk %v", p, dm, dd)
			}
		}
	}

	churn(84)
	// Cross a repartition epoch mid-log when supported: the replayed tail
	// then spans a live migration, which recovery must be indifferent to
	// (the log carries logical writes, not placement).
	if rm, ok := memIdx.(Repartitioner); ok {
		if rd, ok2 := diskIdx.(Repartitioner); ok2 {
			for _, q := range driftedQueries(600, 85) {
				memIdx.RangeQuery(q)
				diskIdx.RangeQuery(q)
			}
			if rm.Repartition() != rd.Repartition() {
				t.Fatal("pre-recovery repartition diverged between backends")
			}
		}
	}
	churn(86)

	recMem := memRec.Reopen(t)
	recDisk := diskRec.Reopen(t)
	if recMem.Len() != len(live) || recDisk.Len() != len(live) {
		t.Fatalf("recovered Len diverged: mem %d, disk %d, want %d",
			recMem.Len(), recDisk.Len(), len(live))
	}
	ref := index.NewBrute(live)
	rng := rand.New(rand.NewSource(87))
	queries := append([]geom.Rect{}, qs[:50]...)
	for i := 0; i < 60; i++ {
		queries = append(queries, randRect(rng))
	}
	for _, r := range queries {
		got := recDisk.RangeQuery(r)
		same(t, got, ref.RangeQuery(r), "recovered disk vs brute "+r.String())
		same(t, got, recMem.RangeQuery(r), "recovered disk vs recovered mem "+r.String())
		same(t, got, diskIdx.RangeQuery(r), "recovered disk vs never-crashed disk "+r.String())
		same(t, got, memIdx.RangeQuery(r), "recovered disk vs never-crashed mem "+r.String())
	}
}

// knner is the optional nearest-neighbour surface of a differential target.
type knner interface {
	KNN(q geom.Point, k int) []geom.Point
}

// diffKNN checks k-nearest-neighbour answers point for point — order and
// tie resolution included — against brute force on both backends. The
// inputs stress partitioned and window-based searches: a dyadic lattice,
// whose rings of neighbours tie exactly (every coordinate and distance is
// exact in float64), so tie groups straddle any partition cut; clusters of
// points a few ULPs apart, mid-domain and at the origin, where squared
// distances underflow to zero; tombstones on the nearest neighbours of the
// query points; a scatter of buffered inserts, some on exact ties; query
// points outside the data bounds; and k past Len.
func diffKNN(t *testing.T, buildMem, buildDisk Builder) {
	t.Helper()
	pts := ClusteredPoints(3000, 101)
	for i := 0; i <= 32; i++ {
		for j := 0; j <= 32; j++ {
			pts = append(pts, geom.Point{X: float64(i) / 32, Y: float64(j) / 32})
		}
	}
	ulpCluster := func(c geom.Point) []geom.Point {
		var out []geom.Point
		for x, i := c.X, 0; i < 5; x, i = math.Nextafter(x, 2), i+1 {
			for y, j := c.Y, 0; j < 5; y, j = math.Nextafter(y, 2), j+1 {
				out = append(out, geom.Point{X: x, Y: y})
			}
		}
		return out
	}
	pts = append(pts, ulpCluster(geom.Point{X: 0.5, Y: 0.5})...)
	pts = append(pts, ulpCluster(geom.Point{X: 0.25, Y: 0.75})...)
	pts = append(pts, ulpCluster(geom.Point{})...)
	qs := SkewedQueries(100, 102)
	memIdx := buildMem(pts, qs)
	diskIdx := buildDisk(pts, qs)
	mem, okM := memIdx.(knner)
	disk, okD := diskIdx.(knner)
	if !okM || !okD {
		t.Skip("index does not support kNN")
	}

	rng := rand.New(rand.NewSource(103))
	queries := []geom.Point{
		{X: 0.5, Y: 0.5}, {X: math.Nextafter(0.5, 0), Y: 0.5}, {X: 0.25, Y: 0.75}, {},
		{X: -0.5, Y: 0.3}, {X: 1.75, Y: 2.5}, {X: 0.5, Y: -3}, {X: -1, Y: -1},
	}
	for i := 0; i < 30; i++ {
		// Lattice nodes and cell centres: exact rings of tied neighbours.
		x, y := float64(rng.Intn(65))/64, float64(rng.Intn(65))/64
		queries = append(queries, geom.Point{X: x, Y: y})
	}
	for i := 0; i < 30; i++ {
		queries = append(queries, geom.Point{X: rng.Float64(), Y: rng.Float64()})
	}
	const maxK = 37
	live := append([]geom.Point{}, pts...)
	check := func(ctx string) {
		t.Helper()
		ref := index.NewBrute(live)
		for _, q := range queries {
			want := ref.KNN(q, maxK)
			for _, k := range []int{1, 4, 10, maxK} {
				got := disk.KNN(q, k)
				sameOrder(t, got, want[:k], fmt.Sprintf("%s: disk vs brute, q %v k %d", ctx, q, k))
				sameOrder(t, mem.KNN(q, k), got, fmt.Sprintf("%s: mem vs disk, q %v k %d", ctx, q, k))
			}
		}
		q, k := queries[len(queries)-1], len(live)+5
		got := disk.KNN(q, k)
		sameOrder(t, got, ref.KNN(q, k), ctx+": disk vs brute, k past Len")
		sameOrder(t, mem.KNN(q, k), got, ctx+": mem vs disk, k past Len")
		StatsParity(t, snapshotStats(memIdx), snapshotStats(diskIdx), ctx)
	}
	check("as built")

	memUp, okM := memIdx.(updatable)
	diskUp, okD := diskIdx.(updatable)
	if !okM || !okD {
		return
	}
	// Tombstone the two nearest neighbours of every third query point, then
	// buffer inserts: random ones, and lattice cell centres that tie
	// exactly with the nodes around them.
	for i := 0; i < len(queries); i += 3 {
		for _, p := range index.NewBrute(live).KNN(queries[i], 2) {
			dm, dd := memUp.Delete(p), diskUp.Delete(p)
			if dm != dd || !dm {
				t.Fatalf("Delete(%v) diverged: mem %v, disk %v", p, dm, dd)
			}
			j := slices.Index(live, p)
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	for i := 0; i < 150; i++ {
		p := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		if i%3 == 0 {
			p = geom.Point{X: float64(2*rng.Intn(32)+1) / 64, Y: float64(2*rng.Intn(32)+1) / 64}
		}
		memUp.Insert(p)
		diskUp.Insert(p)
		live = append(live, p)
	}
	check("after churn")
}

// sameOrder requires got and want to be the same sequence — kNN answers are
// compared rank by rank, not as multisets.
func sameOrder(t *testing.T, got, want []geom.Point, ctx string) {
	t.Helper()
	if !slices.Equal(got, want) {
		for i := 0; i < min(len(got), len(want)); i++ {
			if got[i] != want[i] {
				t.Fatalf("%s: rank %d is %v, want %v (lengths %d, %d)", ctx, i, got[i], want[i], len(got), len(want))
			}
		}
		t.Fatalf("%s: got %d points, want %d", ctx, len(got), len(want))
	}
}

// driftedQueries is a hotspot workload far from SkewedQueries' hotspots, so
// windows trained on it force a different learned plan.
func driftedQueries(n int, seed int64) []geom.Rect {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]geom.Rect, n)
	for i := range qs {
		cx := clamp01(0.12 + rng.NormFloat64()*0.04)
		cy := clamp01(0.12 + rng.NormFloat64()*0.04)
		qs[i] = geom.Rect{MinX: cx - 0.02, MinY: cy - 0.02, MaxX: cx + 0.02, MaxY: cy + 0.02}
	}
	return qs
}
