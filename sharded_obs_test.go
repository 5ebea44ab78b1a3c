package wazi

import (
	"math/rand"
	"testing"

	"github.com/wazi-index/wazi/internal/obs"
)

func obsTestPoints(n int, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64(), Y: rng.Float64()}
	}
	return pts
}

func TestShardedObsInstruments(t *testing.T) {
	pts := obsTestPoints(6000, 1)
	s, err := NewSharded(pts, nil, WithShards(4), WithoutAutoRebuild(),
		WithShardedStorage(t.TempDir(), 2), WithIndexOptions(WithLeafSize(64)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	o := s.Obs()
	if o == nil {
		t.Fatal("Obs() = nil with observability on")
	}
	wide := Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	got := s.RangeQuery(wide)
	if len(got) != len(pts) {
		t.Fatalf("wide range returned %d, want %d", len(got), len(pts))
	}
	if o.FanoutWidth.Count() == 0 {
		t.Fatal("FanoutWidth not observed")
	}
	if o.ShardScan.Count() == 0 {
		t.Fatal("ShardScan not observed")
	}
	// A 2-page cache against a 4-shard scan of ~24 pages each must fault.
	if o.PageRead.Count() == 0 {
		t.Fatal("PageRead not observed despite a tiny cache")
	}
	// A narrow query prunes shards.
	s.RangeQuery(Rect{MinX: 0.01, MinY: 0.01, MaxX: 0.02, MaxY: 0.02})
	if o.FanoutPruned.Value() == 0 {
		t.Fatal("FanoutPruned never advanced on a narrow query")
	}
}

// TestShardedKNNFanoutWidth checks that kNN reports the shards it actually
// searched: a small k is answered by the home shard plus whatever the
// radius bound cannot rule out, while k = Len needs every shard.
func TestShardedKNNFanoutWidth(t *testing.T) {
	pts := obsTestPoints(6000, 3)
	s, err := NewSharded(pts, nil, WithShards(4), WithoutAutoRebuild())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	o := s.Obs()
	widths := func(run func()) (width float64, pruned int64) {
		c0, s0, p0 := o.FanoutWidth.Count(), o.FanoutWidth.Sum(), o.FanoutPruned.Value()
		run()
		if o.FanoutWidth.Count() != c0+1 {
			t.Fatalf("kNN observed %d fan-out widths, want 1", o.FanoutWidth.Count()-c0)
		}
		return o.FanoutWidth.Sum() - s0, o.FanoutPruned.Value() - p0
	}
	rng := rand.New(rand.NewSource(4))
	narrow := 0
	for i := 0; i < 50; i++ {
		q := Point{X: rng.Float64(), Y: rng.Float64()}
		w, pruned := widths(func() { s.KNN(q, 3) })
		if w < 1 || w+float64(pruned) != 4 {
			t.Fatalf("KNN(%v, 3): width %v, pruned %d over 4 shards", q, w, pruned)
		}
		if w < 4 {
			narrow++
		}
	}
	if narrow == 0 {
		t.Fatal("no small-k kNN searched fewer than all 4 shards")
	}
	if w, _ := widths(func() { s.KNN(Point{X: 0.5, Y: 0.5}, len(pts)) }); w != 4 {
		t.Fatalf("KNN(k = Len) searched %v shards, want 4", w)
	}
}

func TestViewWithTraceSpans(t *testing.T) {
	pts := obsTestPoints(6000, 2)
	s, err := NewSharded(pts, nil, WithShards(4), WithoutAutoRebuild(),
		WithShardedStorage(t.TempDir(), 2), WithIndexOptions(WithLeafSize(64)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	tr := obs.NewTrace("range")
	v := s.View().WithTrace(tr)
	got := v.RangeQuery(Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})
	if len(got) != len(pts) {
		t.Fatalf("traced range returned %d, want %d", len(got), len(pts))
	}
	tr.Finish()
	snap := tr.Snapshot()
	var scans, pagestores int
	var results int64
	for _, sp := range snap.Spans {
		switch sp.Name {
		case "shard_scan":
			scans++
			results += sp.Attrs["results"]
		case "pagestore":
			pagestores++
			if sp.Attrs["reads"] == 0 {
				t.Fatal("pagestore span with zero reads")
			}
		}
	}
	if scans != 4 {
		t.Fatalf("shard_scan spans = %d, want 4 (one per shard)", scans)
	}
	if results != int64(len(pts)) {
		t.Fatalf("span result attrs sum to %d, want %d", results, len(pts))
	}
	if pagestores != 1 {
		t.Fatalf("pagestore spans = %d, want 1", pagestores)
	}

	// The un-traced base view records no spans.
	before := len(tr.Snapshot().Spans)
	s.View().RangeQuery(Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})
	if after := len(tr.Snapshot().Spans); after != before {
		t.Fatalf("un-traced view added spans: %d -> %d", before, after)
	}
	if s.View().WithTrace(nil) == nil {
		t.Fatal("WithTrace(nil) should return a usable view")
	}
}

func TestWithoutObservability(t *testing.T) {
	pts := obsTestPoints(2000, 3)
	s, err := NewSharded(pts, nil, WithShards(4), WithoutAutoRebuild(), WithoutObservability())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Obs() != nil {
		t.Fatal("Obs() should be nil under WithoutObservability")
	}
	if got := s.RangeQuery(Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}); len(got) != len(pts) {
		t.Fatalf("range returned %d, want %d", len(got), len(pts))
	}
	// Tracing still works without the instruments.
	tr := obs.NewTrace("range")
	s.View().WithTrace(tr).RangeQuery(Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})
	if len(tr.Snapshot().Spans) == 0 {
		t.Fatal("traced view recorded no spans without observability")
	}
}
