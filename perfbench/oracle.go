package main

import (
	"math"
	"slices"

	wazi "github.com/wazi-index/wazi"
	"github.com/wazi-index/wazi/internal/index"
)

// oracleGrid is the oracle's cells per axis. Each cell is its own
// index.Brute, so a small range scans a few cells instead of every point.
const oracleGrid = 128

// oracle answers every op kind by brute force over the initial data. It
// is not safe for concurrent use (index.Brute counts its scans).
type oracle struct {
	data  []wazi.Point
	cells []cell
}

type cell struct {
	brute *index.Brute
	mbr   wazi.Rect // bounding box of the cell's points
	n     int
	sum   uint64 // pointHash sum of the cell's points
}

func newOracle(data []wazi.Point) *oracle {
	groups := make([][]wazi.Point, oracleGrid*oracleGrid)
	for _, p := range data {
		i := cellOf(p)
		groups[i] = append(groups[i], p)
	}
	o := &oracle{data: data, cells: make([]cell, len(groups))}
	for i, g := range groups {
		if len(g) == 0 {
			continue
		}
		c := cell{brute: index.NewBrute(g), n: len(g),
			mbr: wazi.Rect{MinX: g[0].X, MinY: g[0].Y, MaxX: g[0].X, MaxY: g[0].Y}}
		for _, p := range g {
			c.mbr = c.mbr.ExtendPoint(p)
			c.sum += pointHash(p)
		}
		o.cells[i] = c
	}
	return o
}

func cellCoord(v float64) int {
	return min(max(int(v*oracleGrid), 0), oracleGrid-1)
}

func cellOf(p wazi.Point) int { return cellCoord(p.Y)*oracleGrid + cellCoord(p.X) }

// rangeDigest returns the size and pointHash sum of the range answer.
func (o *oracle) rangeDigest(r wazi.Rect) (int, uint64) {
	n, sum := 0, uint64(0)
	for cy := cellCoord(r.MinY); cy <= cellCoord(r.MaxY); cy++ {
		for cx := cellCoord(r.MinX); cx <= cellCoord(r.MaxX); cx++ {
			c := &o.cells[cy*oracleGrid+cx]
			switch {
			case c.n == 0 || !r.Intersects(c.mbr):
			case r.ContainsRect(c.mbr):
				n, sum = n+c.n, sum+c.sum
			default:
				for _, p := range c.brute.RangeQuery(r) {
					n, sum = n+1, sum+pointHash(p)
				}
			}
		}
	}
	return n, sum
}

func (o *oracle) found(p wazi.Point) bool {
	c := &o.cells[cellOf(p)]
	return c.n > 0 && c.brute.PointQuery(p)
}

// knnDigest scans every point for the k nearest to q and returns their
// count and distDigest.
func (o *oracle) knnDigest(q wazi.Point, k int) (int, uint64) {
	type cand struct {
		d float64
		p wazi.Point
	}
	best := make([]cand, 0, k+1)
	worst := math.Inf(1)
	for _, p := range o.data {
		dx, dy := p.X-q.X, p.Y-q.Y
		d := dx*dx + dy*dy
		if len(best) == k && d >= worst {
			continue
		}
		i, _ := slices.BinarySearchFunc(best, d, func(c cand, d float64) int {
			if c.d <= d {
				return -1
			}
			return 1
		})
		best = slices.Insert(best, i, cand{d, p})
		if len(best) > k {
			best = best[:k]
		}
		if len(best) == k {
			worst = best[k-1].d
		}
	}
	pts := make([]wazi.Point, len(best))
	for i, c := range best {
		pts[i] = c.p
	}
	return len(pts), distDigest(q, pts)
}

// check reports whether answer a to op o is correct for a read-only
// workload: its result equals the brute-force answer over the data.
// For ingest-wal, whose index also holds the inserts, a range answer
// carries only its points that are not inserts, and those must equal the
// brute-force answer over the initial data.
func (o *oracle) check(op op, a answer) bool {
	if !a.ok || a.bad {
		return false
	}
	switch op.kind {
	case kRange:
		n, sum := o.rangeDigest(op.rect)
		return int(a.n) == n && a.sum == sum
	case kCount:
		n, _ := o.rangeDigest(op.rect)
		return int(a.n) == n
	case kPoint:
		return (a.n == 1) == o.found(op.pt)
	case kKNN:
		n, sum := o.knnDigest(op.pt, knnK)
		return int(a.n) == n && a.sum == sum
	case kInsert:
		return true
	}
	return false
}
