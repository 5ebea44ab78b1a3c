package wazi_test

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	wazi "github.com/wazi-index/wazi"
	"github.com/wazi-index/wazi/internal/dataset"
	"github.com/wazi-index/wazi/internal/index"
	"github.com/wazi-index/wazi/internal/workload"
)

func newTestSharded(t *testing.T, pts []wazi.Point, qs []wazi.Rect, opts ...wazi.ShardedOption) *wazi.Sharded {
	t.Helper()
	s, err := wazi.NewSharded(pts, qs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestShardedMatchesSingleIndex is the core acceptance check: over the same
// data, Sharded must return exactly the result sets of a single Index and
// of the brute-force ground truth, for range, count, point, and kNN
// queries.
func TestShardedMatchesSingleIndex(t *testing.T) {
	pts := testData(12000, 41)
	qs := testWorkload(400, 42)
	s := newTestSharded(t, pts, qs, wazi.WithShards(7), wazi.WithoutAutoRebuild())
	single, err := wazi.NewWorkloadAware(pts, qs, wazi.WithSeed(43))
	if err != nil {
		t.Fatal(err)
	}
	ref := index.NewBrute(pts)

	if s.Len() != len(pts) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(pts))
	}
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 120; i++ {
		var r wazi.Rect
		if i < len(qs) && i%2 == 0 {
			r = qs[i]
		} else {
			r = wazi.NewRect(
				wazi.Point{X: rng.Float64(), Y: rng.Float64()},
				wazi.Point{X: rng.Float64(), Y: rng.Float64()},
			)
		}
		want := ref.RangeQuery(r)
		assertSame(t, s.RangeQuery(r), want, "sharded vs brute")
		assertSame(t, single.RangeQuery(r), want, "single vs brute")
		if got := s.RangeCount(r); got != len(want) {
			t.Fatalf("RangeCount = %d, want %d", got, len(want))
		}
	}
	for i := 0; i < len(pts); i += 97 {
		if !s.PointQuery(pts[i]) {
			t.Fatalf("indexed point %v not found", pts[i])
		}
	}
	for i := 0; i < 200; i++ {
		p := wazi.Point{X: rng.Float64(), Y: rng.Float64()}
		if s.PointQuery(p) != ref.PointQuery(p) {
			t.Fatalf("PointQuery(%v) disagrees with brute", p)
		}
	}
	for _, k := range []int{1, 5, 40} {
		q := wazi.Point{X: rng.Float64(), Y: rng.Float64()}
		assertKNN(t, s.KNN(q, k), pts, q, k)
	}
	if s.Bytes() <= 0 || s.Describe() == "" || s.NumShards() < 1 {
		t.Error("accounting accessors broken")
	}
	if s.Stats().RangeQueries == 0 {
		t.Error("logical range queries not counted")
	}
}

// TestShardedKNNHugeK is the regression test for k overflow: the per-shard
// over-fetch adds the tombstone count to k, which wrapped for k near
// math.MaxInt and silently truncated the answer. A k past the live count
// must return every live point, nearest first.
func TestShardedKNNHugeK(t *testing.T) {
	pts := testData(5000, 61)
	s := newTestSharded(t, pts, testWorkload(100, 62), wazi.WithShards(4), wazi.WithoutAutoRebuild())
	if !s.Delete(pts[17]) {
		t.Fatal("Delete of an indexed point reported not found")
	}
	live := append(append([]wazi.Point{}, pts[:17]...), pts[18:]...)
	q := wazi.Point{X: 0.3, Y: 0.6}
	got := s.KNN(q, math.MaxInt)
	want := index.NewBrute(live).KNN(q, math.MaxInt)
	if len(got) != len(live) {
		t.Fatalf("KNN(q, MaxInt) returned %d points, want all %d live", len(got), len(live))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("KNN(q, MaxInt) rank %d: %v, want %v", i, got[i], want[i])
		}
	}
}

// assertKNN verifies a kNN result against a brute-force scan by comparing
// the multiset of distances (coordinate ties make the exact point set
// ambiguous).
func assertKNN(t *testing.T, got []wazi.Point, pts []wazi.Point, q wazi.Point, k int) {
	t.Helper()
	want := k
	if len(pts) < k {
		want = len(pts)
	}
	if len(got) != want {
		t.Fatalf("KNN returned %d points, want %d", len(got), want)
	}
	dists := make([]float64, len(pts))
	for i, p := range pts {
		dx, dy := p.X-q.X, p.Y-q.Y
		dists[i] = dx*dx + dy*dy
	}
	for i := 0; i < len(dists); i++ { // selection of the k smallest
		for j := i + 1; j < len(dists); j++ {
			if dists[j] < dists[i] {
				dists[i], dists[j] = dists[j], dists[i]
			}
		}
		if i >= k {
			break
		}
	}
	prev := -1.0
	for i, p := range got {
		dx, dy := p.X-q.X, p.Y-q.Y
		d := dx*dx + dy*dy
		if d < prev {
			t.Fatalf("KNN result not ordered at %d", i)
		}
		prev = d
		if math.Abs(d-dists[i]) > 1e-12 {
			t.Fatalf("KNN distance %d = %v, brute = %v", i, d, dists[i])
		}
	}
}

// TestShardedUpdates cross-checks inserts and deletes (including duplicate
// points and misses) against the brute-force reference.
func TestShardedUpdates(t *testing.T) {
	pts := testData(5000, 51)
	qs := testWorkload(200, 52)
	// Small compaction threshold so the test exercises the synchronous
	// compaction path too.
	s := newTestSharded(t, pts, qs, wazi.WithShards(5), wazi.WithoutAutoRebuild(),
		wazi.WithCompactThreshold(256))
	live := append([]wazi.Point(nil), pts...)
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 2000; i++ {
		switch {
		case rng.Intn(3) > 0:
			p := wazi.Point{X: rng.Float64(), Y: rng.Float64()}
			if rng.Intn(4) == 0 {
				p = live[rng.Intn(len(live))] // duplicate
			}
			s.Insert(p)
			live = append(live, p)
		default:
			var p wazi.Point
			hit := rng.Intn(2) == 0
			if hit {
				p = live[rng.Intn(len(live))]
			} else {
				p = wazi.Point{X: rng.Float64() + 2, Y: rng.Float64()}
			}
			got := s.Delete(p)
			want := false
			for j, q := range live {
				if q == p {
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
					want = true
					break
				}
			}
			if got != want {
				t.Fatalf("Delete(%v) = %v, want %v", p, got, want)
			}
		}
	}
	if s.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(live))
	}
	ref := index.NewBrute(live)
	for i := 0; i < 80; i++ {
		r := wazi.NewRect(
			wazi.Point{X: rng.Float64(), Y: rng.Float64()},
			wazi.Point{X: rng.Float64(), Y: rng.Float64()},
		)
		assertSame(t, s.RangeQuery(r), ref.RangeQuery(r), "after updates")
	}
	full := s.RangeQuery(wazi.Rect{MinX: -10, MinY: -10, MaxX: 10, MaxY: 10})
	assertSame(t, full, live, "full scan after updates")
}

// TestShardedCompaction verifies that crossing the write-buffer threshold
// folds the deltas into the shard indexes without changing results.
func TestShardedCompaction(t *testing.T) {
	pts := testData(3000, 61)
	s := newTestSharded(t, pts, testWorkload(100, 62), wazi.WithShards(3),
		wazi.WithoutAutoRebuild(), wazi.WithCompactThreshold(128))
	rng := rand.New(rand.NewSource(63))
	extra := make([]wazi.Point, 1000)
	for i := range extra {
		extra[i] = wazi.Point{X: rng.Float64(), Y: rng.Float64()}
		s.Insert(extra[i])
	}
	if s.Rebuilds() == 0 {
		t.Fatal("expected compactions after exceeding the write-buffer threshold")
	}
	totalBacklog := 0
	for _, info := range s.Shards() {
		totalBacklog += info.Backlog
	}
	if totalBacklog >= 1000 {
		t.Fatalf("backlog %d suggests nothing was compacted", totalBacklog)
	}
	ref := index.NewBrute(append(append([]wazi.Point(nil), pts...), extra...))
	for i := 0; i < 50; i++ {
		r := wazi.NewRect(
			wazi.Point{X: rng.Float64(), Y: rng.Float64()},
			wazi.Point{X: rng.Float64(), Y: rng.Float64()},
		)
		assertSame(t, s.RangeQuery(r), ref.RangeQuery(r), "after compaction")
	}
	// Scan counters must survive index retirement: another round of
	// compactions may not move aggregate stats backwards.
	before := s.Stats()
	for i := 0; i < 300; i++ {
		s.Insert(wazi.Point{X: rng.Float64(), Y: rng.Float64()})
	}
	after := s.Stats()
	if after.PointsScanned < before.PointsScanned || after.PagesScanned < before.PagesScanned {
		t.Fatalf("scan counters went backwards across compaction: %+v -> %+v", before, after)
	}
}

// TestShardedDriftRebuild drives a drifted workload through the index and
// verifies the control loop rebuilds the affected shards workload-aware,
// with unchanged results.
func TestShardedDriftRebuild(t *testing.T) {
	pts := testData(8000, 71)
	buildQs := testWorkload(1000, 72)
	s := newTestSharded(t, pts, buildQs, wazi.WithShards(4), wazi.WithoutAutoRebuild(),
		wazi.WithDriftWindow(256), wazi.WithDriftThreshold(0.5))

	// Serving the build-time distribution: no rebuilds.
	for _, q := range testWorkload(600, 73) {
		s.RangeQuery(q)
	}
	if n := s.CheckRebuilds(); n != 0 {
		t.Fatalf("rebuilt %d shards without drift", n)
	}

	// Shift traffic to a differently skewed region's workload.
	drifted := workload.Skewed(dataset.CaliNev, 1500, 0.0256e-2, 74)
	for _, q := range drifted {
		s.RangeQuery(q)
	}
	n := s.CheckRebuilds()
	if n == 0 {
		t.Fatal("expected drift-triggered rebuilds after a full workload shift")
	}
	if s.Rebuilds() != int64(n) {
		t.Fatalf("Rebuilds() = %d, want %d", s.Rebuilds(), n)
	}
	rebuilt := 0
	for _, info := range s.Shards() {
		if info.Rebuilds > 0 {
			rebuilt++
			if !info.WorkloadAware {
				t.Error("drift rebuild should produce a workload-aware shard index")
			}
		}
	}
	if rebuilt != n {
		t.Fatalf("per-shard rebuild counts sum to %d, want %d", rebuilt, n)
	}

	// Results must be unchanged by the hot swap.
	ref := index.NewBrute(pts)
	for _, r := range drifted[:60] {
		assertSame(t, s.RangeQuery(r), ref.RangeQuery(r), "after drift rebuild")
	}
	if s.Len() != len(pts) {
		t.Fatalf("Len after rebuild = %d, want %d", s.Len(), len(pts))
	}
}

// TestShardedConcurrent exercises concurrent queries, writes, and
// background drift rebuilds together; run under -race this is the
// data-race acceptance test for the serving layer.
func TestShardedConcurrent(t *testing.T) {
	pts := testData(6000, 81)
	qs := testWorkload(400, 82)
	s := newTestSharded(t, pts, qs, wazi.WithShards(6),
		wazi.WithRebuildInterval(5*time.Millisecond),
		wazi.WithDriftWindow(128), wazi.WithDriftThreshold(0.4),
		wazi.WithCompactThreshold(128))

	drifted := workload.Skewed(dataset.CaliNev, 400, 0.0256e-2, 83)
	var inserted atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	time.AfterFunc(600*time.Millisecond, func() { close(stop) })

	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 5 {
				case 0:
					s.RangeQuery(qs[rng.Intn(len(qs))])
				case 1:
					s.RangeQuery(drifted[rng.Intn(len(drifted))])
				case 2:
					s.PointQuery(pts[rng.Intn(len(pts))])
				case 3:
					s.KNN(wazi.Point{X: rng.Float64(), Y: rng.Float64()}, 4)
				default:
					s.RangeCount(drifted[rng.Intn(len(drifted))])
				}
			}
		}(int64(100 + g))
	}
	// One writer mixing inserts and deletes of its own points.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(200))
		var mine []wazi.Point
		for {
			select {
			case <-stop:
				return
			default:
			}
			if len(mine) > 0 && rng.Intn(4) == 0 {
				p := mine[len(mine)-1]
				mine = mine[:len(mine)-1]
				if !s.Delete(p) {
					t.Error("failed to delete a point this goroutine inserted")
					return
				}
				inserted.Add(-1)
			} else {
				p := wazi.Point{X: rng.Float64(), Y: rng.Float64()}
				s.Insert(p)
				mine = append(mine, p)
				inserted.Add(1)
			}
		}
	}()
	wg.Wait()

	if got, want := s.Len(), len(pts)+int(inserted.Load()); got != want {
		t.Fatalf("Len after concurrent run = %d, want %d", got, want)
	}
	if s.Rebuilds() == 0 {
		t.Error("expected at least one background rebuild during the concurrent run")
	}
	st := s.Stats()
	if st.RangeQueries == 0 || st.Inserts == 0 {
		t.Error("stats not recorded under concurrency")
	}
}

// TestShardedEdgeCases covers tiny inputs, more shards than points, empty
// construction, and queries outside the domain.
func TestShardedEdgeCases(t *testing.T) {
	if _, err := wazi.NewSharded(nil, nil); err != wazi.ErrNoPoints {
		t.Fatalf("empty build err = %v, want ErrNoPoints", err)
	}
	one := []wazi.Point{{X: 0.5, Y: 0.5}}
	s := newTestSharded(t, one, nil, wazi.WithShards(8), wazi.WithoutAutoRebuild())
	if s.Len() != 1 || !s.PointQuery(one[0]) {
		t.Fatal("single-point sharded index broken")
	}
	if got := s.RangeQuery(wazi.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}); len(got) != 1 {
		t.Fatalf("full query returned %d points", len(got))
	}
	if got := s.RangeQuery(wazi.Rect{MinX: 2, MinY: 2, MaxX: 3, MaxY: 3}); got != nil {
		t.Fatalf("out-of-domain query returned %d points", len(got))
	}
	if s.KNN(wazi.Point{X: 0, Y: 0}, 3)[0] != one[0] {
		t.Fatal("KNN on tiny index broken")
	}
	// Duplicate-heavy data: equal Z-keys must stay in one shard.
	dup := make([]wazi.Point, 500)
	for i := range dup {
		dup[i] = wazi.Point{X: 0.25 * float64(i%2), Y: 0.25 * float64(i%3)}
	}
	sd := newTestSharded(t, dup, nil, wazi.WithShards(4), wazi.WithoutAutoRebuild())
	ref := index.NewBrute(dup)
	r := wazi.Rect{MinX: 0, MinY: 0, MaxX: 0.3, MaxY: 0.6}
	assertSame(t, sd.RangeQuery(r), ref.RangeQuery(r), "duplicates")
	if !sd.Delete(dup[0]) {
		t.Fatal("delete of duplicated point failed")
	}
	if got, want := sd.RangeCount(wazi.Rect{MinX: -1, MinY: -1, MaxX: 1, MaxY: 1}), len(dup)-1; got != want {
		t.Fatalf("count after one delete = %d, want %d", got, want)
	}
}

// TestRebuildAdvisorConcurrent hammers one advisor from many goroutines;
// meaningful under -race (satellite fix: Observe/Drift used to race).
func TestRebuildAdvisorConcurrent(t *testing.T) {
	bounds := wazi.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	a := wazi.NewRebuildAdvisor(bounds, testWorkload(500, 91), 256, 0.6)
	qs := testWorkload(2000, 92)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				a.Observe(qs[(off*250+i)%len(qs)])
				if i%10 == 0 {
					a.Drift()
					a.RebuildRecommended()
				}
			}
		}(g)
	}
	wg.Wait()
	if a.Observed() != 2000 {
		t.Fatalf("Observed = %d, want 2000", a.Observed())
	}
}
