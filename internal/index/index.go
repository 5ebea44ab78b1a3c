// Package index defines the common interface implemented by every spatial
// index in this repository — WaZI, the base Z-index, and all baselines —
// plus a brute-force reference implementation used as ground truth in tests
// and integration checks.
package index

import (
	"github.com/wazi-index/wazi/internal/geom"
	"github.com/wazi-index/wazi/internal/storage"
)

// Index is the query interface shared by all spatial indexes.
type Index interface {
	// RangeQuery returns all indexed points inside the closed rectangle r.
	RangeQuery(r geom.Rect) []geom.Point
	// PointQuery reports whether a point equal to p is indexed.
	PointQuery(p geom.Point) bool
	// Len returns the number of indexed points.
	Len() int
	// Bytes returns the approximate in-memory footprint of the index,
	// including data pages (the Table 5 quantity).
	Bytes() int64
	// Stats returns the index's cumulative access counters.
	Stats() *storage.Stats
}

// Updatable is implemented by indexes that support point insertion, as
// exercised by the Figure 11 experiment (WaZI, CUR, Flood).
type Updatable interface {
	Index
	Insert(p geom.Point)
}

// Brute is a linear-scan reference index. It is trivially correct, which
// makes it the ground truth for every other implementation's tests.
type Brute struct {
	pts   []geom.Point
	stats storage.Stats
}

// NewBrute returns a brute-force index over a copy of pts.
func NewBrute(pts []geom.Point) *Brute {
	own := make([]geom.Point, len(pts))
	copy(own, pts)
	return &Brute{pts: own}
}

// RangeQuery scans every point.
func (b *Brute) RangeQuery(r geom.Rect) []geom.Point {
	b.stats.RangeQueries++
	b.stats.PointsScanned += int64(len(b.pts))
	var out []geom.Point
	for _, p := range b.pts {
		if r.Contains(p) {
			out = append(out, p)
		}
	}
	b.stats.ResultPoints += int64(len(out))
	return out
}

// PointQuery scans every point.
func (b *Brute) PointQuery(p geom.Point) bool {
	b.stats.PointQueries++
	b.stats.PointsScanned += int64(len(b.pts))
	for _, q := range b.pts {
		if q == p {
			return true
		}
	}
	return false
}

// KNN returns the k points nearest to q by a full sort in the (distance,
// X, Y) total order of geom.DistLess — the exact, tie-resolved answer every
// kNN path must reproduce point for point.
func (b *Brute) KNN(q geom.Point, k int) []geom.Point {
	b.stats.PointQueries++
	b.stats.PointsScanned += int64(len(b.pts))
	out := append([]geom.Point(nil), b.pts...)
	geom.SortByDistance(out, q)
	return out[:min(max(k, 0), len(out))]
}

// Insert appends p.
func (b *Brute) Insert(p geom.Point) {
	b.stats.Inserts++
	b.pts = append(b.pts, p)
}

// Len returns the number of points.
func (b *Brute) Len() int { return len(b.pts) }

// Bytes returns the storage footprint.
func (b *Brute) Bytes() int64 { return int64(cap(b.pts)) * 16 }

// Stats returns the counters.
func (b *Brute) Stats() *storage.Stats { return &b.stats }
