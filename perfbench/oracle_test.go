package main

import (
	"math"
	"testing"

	wazi "github.com/wazi-index/wazi"
	"github.com/wazi-index/wazi/internal/dataset"
)

// oracleFixture returns data, an oracle over it, and a correct reply for
// each op kind.
func oracleFixture(t *testing.T) (*oracle, map[kind]op, map[kind]reply) {
	t.Helper()
	data := dataset.Generate(region, 20_000, 7)
	o := newOracle(data)
	r := wazi.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.5, MaxY: 0.5}
	var inside []wazi.Point
	for _, p := range data {
		if r.Contains(p) {
			inside = append(inside, p)
		}
	}
	if len(inside) < 10 {
		t.Fatalf("fixture rectangle holds %d points", len(inside))
	}
	q := wazi.Point{X: 0.4, Y: 0.4}
	knn := make([]wazi.Point, 0, knnK)
	for len(knn) < knnK { // selection sort by distance
		best, bd := wazi.Point{}, math.Inf(1)
		for _, p := range data {
			d := (p.X-q.X)*(p.X-q.X) + (p.Y-q.Y)*(p.Y-q.Y)
			taken := false
			for _, k := range knn {
				taken = taken || k == p
			}
			if !taken && d < bd {
				best, bd = p, d
			}
		}
		knn = append(knn, best)
	}
	ops := map[kind]op{
		kRange: {kind: kRange, rect: r},
		kCount: {kind: kCount, rect: r},
		kPoint: {kind: kPoint, pt: data[123]},
		kKNN:   {kind: kKNN, pt: q},
	}
	replies := map[kind]reply{
		kRange: {Count: len(inside), Points: inside},
		kCount: {Count: len(inside)},
		kPoint: {Found: true},
		kKNN:   {Count: len(knn), Points: knn},
	}
	return o, ops, replies
}

func judge(o *oracle, op op, r reply) bool {
	a := answer{ok: true}
	digestOp(&a, op, r, nil)
	return o.check(op, a)
}

func TestOracleAcceptsCorrectAnswers(t *testing.T) {
	o, ops, replies := oracleFixture(t)
	for k, op := range ops {
		if !judge(o, op, replies[k]) {
			t.Errorf("%v: correct answer rejected", k)
		}
	}
}

func TestOracleFlagsCorruptedAnswers(t *testing.T) {
	o, ops, replies := oracleFixture(t)
	clone := func(p []wazi.Point) []wazi.Point { return append([]wazi.Point(nil), p...) }
	rng := replies[kRange]
	knn := replies[kKNN]
	moved := clone(rng.Points)
	moved[0].X = math.Nextafter(moved[0].X, 1) // a few ULPs off, still inside
	outside := clone(rng.Points)
	outside[1] = wazi.Point{X: 0.9, Y: 0.9}
	far := clone(knn.Points)
	far[knnK-1] = wazi.Point{X: 0.99, Y: 0.01}
	cases := []struct {
		name string
		op   op
		r    reply
	}{
		{"range point dropped", ops[kRange], reply{Count: rng.Count - 1, Points: rng.Points[1:]}},
		{"range point moved", ops[kRange], reply{Count: rng.Count, Points: moved}},
		{"range point outside", ops[kRange], reply{Count: rng.Count, Points: outside}},
		{"range count mismatch", ops[kRange], reply{Count: rng.Count + 1, Points: rng.Points}},
		{"count off by one", ops[kCount], reply{Count: replies[kCount].Count + 1}},
		{"point not found", ops[kPoint], reply{Found: false}},
		{"knn wrong neighbour", ops[kKNN], reply{Count: knnK, Points: far}},
		{"knn short", ops[kKNN], reply{Count: knnK - 1, Points: knn.Points[:knnK-1]}},
	}
	for _, c := range cases {
		if judge(o, c.op, c.r) {
			t.Errorf("%s: corrupted answer accepted", c.name)
		}
	}
	if o.check(ops[kCount], answer{ok: false, n: int32(replies[kCount].Count)}) {
		t.Error("an answer of a failed request was accepted")
	}
}

// An ingest-wal range reply may hold inserted points on top of the
// initial data; it is correct when the rest equals the brute-force answer.
func TestOracleIngestRange(t *testing.T) {
	o, ops, replies := oracleFixture(t)
	ins := wazi.Point{X: 0.41, Y: 0.42}
	inserted := map[wazi.Point]bool{ins: true}
	withInsert := append(append([]wazi.Point(nil), replies[kRange].Points...), ins)
	check := func(pts []wazi.Point) bool {
		a := answer{ok: true}
		digestOp(&a, ops[kRange], reply{Count: len(pts), Points: pts}, inserted)
		return o.check(ops[kRange], a)
	}
	if !check(withInsert) {
		t.Error("range reply holding an acknowledged insert rejected")
	}
	if check(withInsert[1:]) {
		t.Error("range reply missing an initial point accepted")
	}
}

func TestParseReplies(t *testing.T) {
	n, pts, ok := parsePoints([]byte(`{"count":2,"points":[{"X":0.5,"Y":1e-07},{"X":1,"Y":0}]}`+"\n"), nil)
	if !ok || n != 2 || len(pts) != 2 || pts[0] != (wazi.Point{X: 0.5, Y: 1e-7}) || pts[1] != (wazi.Point{X: 1}) {
		t.Errorf("parsePoints = %d %v %v", n, pts, ok)
	}
	if _, _, ok := parsePoints([]byte(`{"count":0,"points":[]}`), nil); !ok {
		t.Error("empty points rejected")
	}
	if _, _, ok := parsePoints([]byte(`{"points":[],"count":0}`), nil); ok {
		t.Error("unexpected layout accepted by the fast path")
	}
	rs, ok := parseBatchCounts([]byte(`{"results":[{"count":3},{"count":0}]}`+"\n"), nil)
	if !ok || len(rs) != 2 || rs[0].Count != 3 || rs[1].Count != 0 {
		t.Errorf("parseBatchCounts = %v %v", rs, ok)
	}
	// A layout the fast path does not know still digests through
	// encoding/json.
	var c client
	a := make([]answer, 1)
	c.digestReply(a, []op{{kind: kRange, rect: wazi.Rect{MaxX: 1, MaxY: 1}}},
		[]byte(`{"points":[{"Y":0.25,"X":0.5}],"count":1}`), nil)
	if a[0].bad || a[0].n != 1 || a[0].sum != pointHash(wazi.Point{X: 0.5, Y: 0.25}) {
		t.Errorf("fallback digest = %+v", a[0])
	}
}

func TestWireRoundTrip(t *testing.T) {
	path, body := encodeRequest(nil, []op{{kind: kKNN, pt: wazi.Point{X: 0.1, Y: 1.0 / 3}}})
	if path != "/v1/knn" || string(body) != `{"point":{"X":0.1,"Y":0.3333333333333333},"k":10}` {
		t.Errorf("knn request %s %s", path, body)
	}
	path, body = encodeRequest(nil, []op{{kind: kCount, rect: wazi.Rect{MaxX: 1, MaxY: 1}}, {kind: kCount}})
	if path != "/v1/batch" || string(body) != `{"ops":[{"op":"count","rect":{"MinX":0,"MinY":0,"MaxX":1,"MaxY":1}},{"op":"count","rect":{"MinX":0,"MinY":0,"MaxX":0,"MaxY":0}}]}` {
		t.Errorf("batch request %s %s", path, body)
	}
}
