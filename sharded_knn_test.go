package wazi

import (
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"github.com/wazi-index/wazi/internal/geom"
	"github.com/wazi-index/wazi/internal/index"
	"github.com/wazi-index/wazi/internal/indextest"
)

// TestShardedKNNCrossShard pins the cases where a nearest-shard-first kNN
// can go wrong, each asserted to really occur in the shard layout before it
// is checked against brute force, on the RAM and the disk backend: a tie at
// the k-th distance between a home-shard point and a neighbour-shard point
// that wins it, tombstones among the home shard's nearest points,
// insert-buffer points in a neighbouring shard (one of them a few ULPs
// inside the k-th distance), query points outside the data bounds, and k
// past Len.
func TestShardedKNNCrossShard(t *testing.T) {
	for _, disk := range []bool{false, true} {
		name := "ram"
		if disk {
			name = "disk"
		}
		t.Run(name, func(t *testing.T) { shardedKNNCrossShard(t, disk) })
	}
}

func shardedKNNCrossShard(t *testing.T, disk bool) {
	// A dyadic lattice over clustered data: lattice coordinates and their
	// squared distances are exact, so rings of neighbours tie exactly and
	// straddle every shard cut.
	pts := indextest.ClusteredPoints(2000, 5)
	for i := 0; i <= 32; i++ {
		for j := 0; j <= 32; j++ {
			pts = append(pts, Point{X: float64(i) / 32, Y: float64(j) / 32})
		}
	}
	opts := []ShardedOption{WithShards(4), WithoutAutoRebuild(), WithCompactThreshold(1 << 20)}
	if disk {
		opts = append(opts, WithShardedStorage(filepath.Join(t.TempDir(), "shards"), 16))
	}
	s, err := NewSharded(pts, indextest.SkewedQueries(100, 6), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	live := append([]Point{}, pts...)
	check := func(ctx string, q Point, k int) {
		t.Helper()
		want := index.NewBrute(live).KNN(q, k)
		if got := s.KNN(q, k); !slices.Equal(got, want) {
			t.Fatalf("%s: KNN(%v, %d) = %v, want %v", ctx, q, k, got, want)
		}
	}
	owner := func(p Point) int { return s.snap.Load().plan.Locate(p) }

	// Find lattice queries whose k-th neighbour lies outside the home shard
	// and ties exactly with a home-shard point it outranks in (X, Y) order.
	var q Point
	var k int
	found := 0
	for i := 1; i < 32 && found < 20; i++ {
		for j := 1; j < 32 && found < 20; j++ {
			cand := Point{X: float64(i) / 32, Y: float64(j) / 32}
			home := owner(cand)
			nn := index.NewBrute(live).KNN(cand, 40)
			for kk := 2; kk < len(nn); kk++ {
				last, next := nn[kk-1], nn[kk]
				if owner(last) != home && owner(next) == home &&
					geom.DistSq(last, cand) == geom.DistSq(next, cand) {
					check("tie across a shard cut", cand, kk)
					q, k = cand, kk
					found++
					break
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no lattice query puts a k-th-distance tie across a shard cut")
	}
	home := owner(q)

	// Tombstone the two nearest home-shard points of q.
	deleted := 0
	for _, p := range index.NewBrute(live).KNN(q, 40) {
		if deleted == 2 {
			break
		}
		if owner(p) != home {
			continue
		}
		if !s.Delete(p) {
			t.Fatalf("Delete(%v) of an indexed point reported not found", p)
		}
		live = slices.Delete(live, slices.Index(live, p), slices.Index(live, p)+1)
		deleted++
	}
	if s.snap.Load().shards[home].deadN == 0 {
		t.Fatal("home shard holds no tombstones")
	}
	check("tombstones in the home shard", q, k)

	// Buffer inserts into neighbouring shards: the current k-th neighbour
	// rotated about q by a half and quarter turns (exactly as far from q),
	// each with a twin one ULP closer on both axes.
	kth := index.NewBrute(live).KNN(q, k)[k-1]
	dx, dy := kth.X-q.X, kth.Y-q.Y
	var buffered []Point
	for _, p := range []Point{
		{X: q.X - dx, Y: q.Y - dy},
		{X: q.X - dy, Y: q.Y + dx},
		{X: q.X + dy, Y: q.Y - dx},
	} {
		if owner(p) == home {
			continue
		}
		near := Point{X: math.Nextafter(p.X, q.X), Y: math.Nextafter(p.Y, q.Y)}
		buffered = append(buffered, p, near)
		for _, b := range []Point{p, near} {
			s.Insert(b)
			live = append(live, b)
		}
	}
	if len(buffered) == 0 {
		t.Fatal("no rotation of the k-th neighbour lands outside the home shard")
	}
	for _, p := range buffered {
		if len(s.snap.Load().shards[owner(p)].extra) == 0 {
			t.Fatalf("insert %v is not buffered in its shard", p)
		}
	}
	for _, kk := range []int{1, k - 1, k, k + 1, k + len(buffered)} {
		check("insert buffer in a neighbouring shard", q, kk)
	}

	for _, out := range []Point{{X: -0.25, Y: 0.5}, {X: 2, Y: 2}, {X: 0.5, Y: -7}, {X: -1e9, Y: 1e9}} {
		check("query outside the bounds", out, 10)
	}
	check("k past Len", q, len(live)+3)
}

// TestKNNWindowHalfCoversTies checks the radius nudge: the square window
// knnWindowHalf builds from a point's own squared distance must contain
// that point, for points on the axes through q (where the rounded root
// falls short of the coordinate difference in a few percent of cases),
// off them, and at distances whose squares underflow.
func TestKNNWindowHalfCoversTies(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	covers := func(q, p Point) bool {
		h := knnWindowHalf(geom.DistSq(p, q))
		return p.X >= q.X-h && p.X <= q.X+h && p.Y >= q.Y-h && p.Y <= q.Y+h
	}
	for i := 0; i < 200000; i++ {
		q := Point{X: rng.Float64(), Y: rng.Float64()}
		p := Point{X: rng.Float64(), Y: q.Y}
		switch i % 4 {
		case 1:
			p = Point{X: q.X, Y: rng.Float64()}
		case 2:
			p = Point{X: rng.Float64(), Y: rng.Float64()}
		case 3:
			p = Point{X: q.X * (1 + rng.Float64()*1e-15), Y: math.Nextafter(q.Y, 2)}
		}
		if !covers(q, p) {
			t.Fatalf("window around %v misses %v at its own distance", q, p)
		}
	}
	for _, p := range []Point{{X: 1e-170}, {Y: -3e-160}, {X: 5e-324, Y: 5e-324}, {X: 1e-155, Y: 1e-155}} {
		if !covers(Point{}, p) {
			t.Fatalf("window around the origin misses %v, whose squared distance underflows", p)
		}
	}
}
