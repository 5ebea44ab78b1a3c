package index_test

import (
	"testing"

	"github.com/wazi-index/wazi/internal/geom"
	"github.com/wazi-index/wazi/internal/index"
	"github.com/wazi-index/wazi/internal/indextest"
)

// TestBruteConformance runs the shared conformance suite against Brute
// itself. Brute is the suite's own reference, so this is a self-consistency
// check — it pins down the ground truth every other index is tested
// against, and exercises the suite's updatable path.
func TestBruteConformance(t *testing.T) {
	indextest.ConformanceUpdatable(t, func(pts []geom.Point, _ []geom.Rect) index.Updatable {
		return index.NewBrute(pts)
	})
}

// TestBruteCopiesInput: mutating the input slice after construction must
// not affect the index.
func TestBruteCopiesInput(t *testing.T) {
	pts := []geom.Point{{X: 0.1, Y: 0.1}, {X: 0.9, Y: 0.9}}
	b := index.NewBrute(pts)
	pts[0] = geom.Point{X: 5, Y: 5}
	if !b.PointQuery(geom.Point{X: 0.1, Y: 0.1}) {
		t.Fatal("index shares backing array with caller input")
	}
}

// TestBruteAccounting checks the counters the conformance suite relies on.
func TestBruteAccounting(t *testing.T) {
	pts := indextest.ClusteredPoints(500, 1)
	b := index.NewBrute(pts)
	before := *b.Stats()
	hits := b.RangeQuery(geom.Rect{MinX: -1, MinY: -1, MaxX: 2, MaxY: 2})
	if len(hits) != len(pts) {
		t.Fatalf("full query returned %d of %d", len(hits), len(pts))
	}
	d := b.Stats().Diff(before)
	if d.RangeQueries != 1 || d.PointsScanned != int64(len(pts)) || d.ResultPoints != int64(len(pts)) {
		t.Fatalf("counter deltas wrong: %+v", d)
	}
	b.Insert(geom.Point{X: 0.5, Y: 0.5})
	if b.Stats().Inserts != 1 {
		t.Fatal("insert not counted")
	}
	if b.Len() != len(pts)+1 {
		t.Fatalf("Len = %d", b.Len())
	}
	if b.Bytes() <= 0 {
		t.Fatal("Bytes must be positive")
	}
}

// TestBruteKNN pins the reference kNN: nearest first, ties in (X, Y)
// order, clamped to the point count.
func TestBruteKNN(t *testing.T) {
	b := index.NewBrute([]geom.Point{{X: 1, Y: 0}, {X: 0, Y: 1}, {X: 0, Y: 0}, {X: -1, Y: 0}, {X: 3, Y: 3}})
	got := b.KNN(geom.Point{}, 4)
	want := []geom.Point{{X: 0, Y: 0}, {X: -1, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 0}}
	if len(got) != len(want) {
		t.Fatalf("KNN = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("KNN = %v, want %v", got, want)
		}
	}
	if n := len(b.KNN(geom.Point{}, 99)); n != 5 {
		t.Fatalf("KNN(k > Len) returned %d points, want 5", n)
	}
	if n := len(b.KNN(geom.Point{}, 0)); n != 0 {
		t.Fatalf("KNN(k = 0) returned %d points", n)
	}
}
