package geom

// DistSq returns the squared Euclidean distance between a and b. Nearest-
// neighbour paths compare squared distances to stay monotone without the
// square root.
func DistSq(a, b Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

// DistLess orders points by (distance to q, X, Y). The coordinate tie-break
// makes it a total order on point values, so equidistant neighbours resolve
// identically on every backend, shard layout, and run — the property the
// differential suites rely on to compare kNN results byte for byte.
func DistLess(a, b, q Point) bool {
	da, db := DistSq(a, q), DistSq(b, q)
	if da != db {
		return da < db
	}
	if a.X != b.X {
		return a.X < b.X
	}
	return a.Y < b.Y
}

// SortByDistance sorts pts in place by DistLess to q, nearest first. It is
// a heapsort: no allocation (sort.Slice allocates its closure and swaps
// through an interface) and a deterministic result for any input order.
func SortByDistance(pts []Point, q Point) {
	n := len(pts)
	for i := n/2 - 1; i >= 0; i-- {
		siftDist(pts, i, n, q)
	}
	for end := n - 1; end > 0; end-- {
		pts[0], pts[end] = pts[end], pts[0]
		siftDist(pts, 0, end, q)
	}
}

// PushBounded feeds one candidate into a bounded nearest-k set maintained
// as a max-heap by DistLess to q (the root is the worst of the k best) and
// returns the updated heap. It appends to h's spare capacity while the set
// is filling and replaces the root afterwards, so a caller streaming
// candidates through a reused buffer allocates nothing. Finish with
// SortByDistance to order the survivors nearest first.
func PushBounded(h []Point, p Point, k int, q Point) []Point {
	if len(h) < k {
		h = append(h, p)
		for i := len(h) - 1; i > 0; {
			parent := (i - 1) / 2
			if !DistLess(h[parent], h[i], q) {
				break
			}
			h[i], h[parent] = h[parent], h[i]
			i = parent
		}
		return h
	}
	if DistLess(p, h[0], q) {
		h[0] = p
		siftDist(h, 0, len(h), q)
	}
	return h
}

// siftDist restores the max-heap property (by DistLess) for the subtree at
// root within pts[:end].
func siftDist(pts []Point, root, end int, q Point) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && DistLess(pts[child], pts[child+1], q) {
			child++
		}
		if !DistLess(pts[root], pts[child], q) {
			return
		}
		pts[root], pts[child] = pts[child], pts[root]
		root = child
	}
}

// MinDistSq returns the squared distance from p to the nearest point of the
// closed rectangle r (0 when r contains p) — the MINDIST lower bound of
// nearest-neighbour search. Rounding is monotone, so the computed value
// never exceeds DistSq(p, x) for any x inside r: a search that skips r
// because MinDistSq exceeds its current bound skips nothing it needed.
func MinDistSq(p Point, r Rect) float64 {
	var dx, dy float64
	if p.X < r.MinX {
		dx = r.MinX - p.X
	} else if p.X > r.MaxX {
		dx = p.X - r.MaxX
	}
	if p.Y < r.MinY {
		dy = r.MinY - p.Y
	} else if p.Y > r.MaxY {
		dy = p.Y - r.MaxY
	}
	return dx*dx + dy*dy
}
