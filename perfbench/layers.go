package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	wazi "github.com/wazi-index/wazi"
	"github.com/wazi-index/wazi/internal/server"
)

// ------------------------------------------------------------ counters

// counters is a snapshot of every counter the layers expose.
type counters struct {
	stats         wazi.Stats
	wal           wazi.WALStats
	rebuilds      int64
	repartitions  int64
	mem           runtime.MemStats
	reads, passes float64 // wazi_coalesced_{reads,passes}_total from /metrics
}

func snapshot(st *stack) (counters, error) {
	c := counters{
		stats:        st.idx.Stats(),
		wal:          st.idx.WALStats(),
		rebuilds:     st.idx.Rebuilds(),
		repartitions: st.idx.Repartitions(),
	}
	runtime.ReadMemStats(&c.mem)
	resp, err := http.Get(st.base + "/metrics")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, v, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		switch name {
		case "wazi_coalesced_reads_total":
			c.reads, err = strconv.ParseFloat(v, 64)
		case "wazi_coalesced_passes_total":
			c.passes, err = strconv.ParseFloat(v, 64)
		}
		if err != nil {
			return c, fmt.Errorf("parsing /metrics: %w", err)
		}
	}
	return c, sc.Err()
}

// shardSampler polls Shards() through a window. It keeps the peak write
// backlog and accumulates each shard slot's Load and PagesScanned growth
// between polls, so that a rebuild or repartition, which restarts those
// counters, loses at most one poll interval of counts.
type shardSampler struct {
	idx     *wazi.Sharded
	prev    []wazi.ShardInfo
	load    []int64
	pages   []int64
	backlog int
	quit    chan struct{}
	wg      sync.WaitGroup
}

func (p *shardSampler) start(idx *wazi.Sharded) {
	p.idx, p.quit = idx, make(chan struct{})
	p.prev = idx.Shards() // the baseline
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.quit:
				return
			case <-tick.C:
				p.poll()
			}
		}
	}()
}

func (p *shardSampler) poll() {
	cur := p.idx.Shards()
	for len(p.load) < len(cur) {
		p.load, p.pages = append(p.load, 0), append(p.pages, 0)
	}
	for i, s := range cur {
		var prev wazi.ShardInfo
		if i < len(p.prev) {
			prev = p.prev[i]
		}
		p.load[i] += grown(prev.Load, s.Load)
		p.pages[i] += grown(prev.PagesScanned, s.PagesScanned)
		p.backlog = max(p.backlog, s.Backlog)
	}
	p.prev = cur
}

// stop ends sampling with a last poll.
func (p *shardSampler) stop() {
	close(p.quit)
	p.wg.Wait()
	p.poll()
}

// grown returns the growth of a per-shard counter between two polls. A
// rebuilt shard's index, or a repartitioned plan, starts its counters
// afresh; a counter that went down is then counted from zero.
func grown(before, after int64) int64 {
	if after < before {
		return after
	}
	return after - before
}

// layerCounters sets the counter-derived per-layer metrics from the
// deltas between two snapshots around a window that completed ops
// logical operations.
func layerCounters(rep *report, a, b counters, sh *shardSampler, ops int) {
	d := b.stats
	d.RangeQueries -= a.stats.RangeQueries
	d.PointQueries -= a.stats.PointQueries
	d.PagesScanned -= a.stats.PagesScanned
	d.PointsScanned -= a.stats.PointsScanned
	d.ResultPoints -= a.stats.ResultPoints
	d.BBChecked -= a.stats.BBChecked
	d.LookaheadJumps -= a.stats.LookaheadJumps
	d.CacheHits -= a.stats.CacheHits
	d.CacheMisses -= a.stats.CacheMisses
	d.CacheEvictions -= a.stats.CacheEvictions
	reads := float64(d.RangeQueries + d.PointQueries) // PointQueries includes kNN
	rep.set("core.points_scanned_per_op", ratio(float64(d.PointsScanned), reads), 0)
	rep.set("core.pages_per_op", ratio(float64(d.PagesScanned), reads), 0)
	rep.set("core.bb_checked_per_op", ratio(float64(d.BBChecked), reads), 0)
	rep.set("core.lookahead_jumps_per_op", ratio(float64(d.LookaheadJumps), reads), 0)
	rep.set("core.useful_frac", ratio(float64(d.ResultPoints), float64(d.PointsScanned)), 0)
	rep.set("storage.cache_hit_frac", ratio(float64(d.CacheHits), float64(d.CacheHits+d.CacheMisses)), 0)
	rep.set("storage.misses_per_op", ratio(float64(d.CacheMisses), reads), 0)
	rep.set("storage.evictions_per_op", ratio(float64(d.CacheEvictions), reads), 0)

	writes := float64(b.wal.Appends - a.wal.Appends)
	rep.set("wal.fsyncs_per_write", ratio(float64(b.wal.Fsyncs-a.wal.Fsyncs), writes), 0)
	rep.set("wal.bytes_per_write", ratio(float64(b.wal.AppendedBytes-a.wal.AppendedBytes), writes), 0)

	rep.set("sharded.rebuilds", float64(b.rebuilds-a.rebuilds), 0)
	rep.set("sharded.repartitions", float64(b.repartitions-a.repartitions), 0)
	rep.set("sharded.backlog_max", float64(sh.backlog), 0)

	var load, pageMax, pageSum int64
	for i := range sh.load {
		load += sh.load[i]
		pageMax, pageSum = max(pageMax, sh.pages[i]), pageSum+sh.pages[i]
	}
	rep.set("shard.fanout_per_op", ratio(float64(load), reads), 0)
	rep.set("shard.page_imbalance", ratio(float64(pageMax), float64(pageSum)/float64(len(sh.pages))), 0)
	rep.set("server.reads_per_pass", ratio(b.reads-a.reads, b.passes-a.passes), 0)

	k := float64(ops)
	rep.set("process.allocs_per_op", ratio(float64(b.mem.Mallocs-a.mem.Mallocs), k), ops)
	rep.set("process.alloc_bytes_per_op", ratio(float64(b.mem.TotalAlloc-a.mem.TotalAlloc), k), ops)
	rep.set("process.gc_per_kop", ratio(float64(b.mem.NumGC-a.mem.NumGC), k/1000), ops)
}

// ------------------------------------------------------------ spans

// span is one timed call at a layer boundary. Spans of one request share
// op (the request's sequence number); a replayed call's parent is the
// client span of the same request.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) add(name string, parent, op int64, start, end time.Time) time.Duration {
	t.spans = append(t.spans, span{ID: int64(len(t.spans)) + 1, Parent: parent, Name: name, Op: op,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	return end.Sub(start)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ------------------------------------------------------------ replays

// minTail is how many samples each replayed kind needs: enough for ten
// beyond the 99th percentile, with a margin.
const minTail = 1100

// replay replays requests [first, first+n) of the stream, in order and one
// at a time, against one layer on its own instance, after replaying the
// warm requests before them untimed, so that its caches are about as warm
// as the served stack's.
type replay struct {
	s              spec
	in             *inputs
	first, n, warm int64
	t              *tracer
	parent         map[int64]int64 // request seq -> client span id
}

// call is one timed call into a layer.
type call struct {
	k   kind
	seq int64
	d   time.Duration
}

// target is the query surface that wazi.Sharded and wazi.Index share.
type target interface {
	RangeQueryAppend(dst []wazi.Point, r wazi.Rect) []wazi.Point
	KNNAppend(dst []wazi.Point, q wazi.Point, k int) []wazi.Point
	PointQuery(p wazi.Point) bool
	RangeCount(r wazi.Rect) int
	Insert(p wazi.Point)
}

// calls times every op of the replayed requests on x.
func (rp *replay) calls(layer string, x target) []call {
	var out []call
	var buf []wazi.Point
	for seq := rp.first - rp.warm; seq < rp.first+rp.n; seq++ {
		for _, o := range rp.in.requestOps(rp.s, seq) {
			start := time.Now()
			switch o.kind {
			case kRange:
				buf = x.RangeQueryAppend(buf[:0], o.rect)
			case kKNN:
				buf = x.KNNAppend(buf[:0], o.pt, knnK)
			case kPoint:
				x.PointQuery(o.pt)
			case kInsert:
				x.Insert(o.pt)
			case kCount:
				x.RangeCount(o.rect)
			}
			end := time.Now()
			if seq >= rp.first {
				d := rp.t.add(layer+"."+o.kind.String(), rp.parent[seq], seq, start, end)
				out = append(out, call{o.kind, seq, d})
			}
		}
	}
	return out
}

// handler times Handler().ServeHTTP with an in-memory recorder on each
// replayed request, and returns the timings and the number of requests
// that did not answer 200.
func (rp *replay) handler(h http.Handler) ([]call, int) {
	var out []call
	var body []byte
	failed := 0
	for seq := rp.first - rp.warm; seq < rp.first+rp.n; seq++ {
		path, b := encodeRequest(body[:0], rp.in.requestOps(rp.s, seq))
		body = b
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		end := time.Now()
		if rec.Code != http.StatusOK {
			failed++
		}
		if seq >= rp.first {
			k := requestKind(rp.s, rp.in, seq)
			out = append(out, call{k, seq, rp.t.add("server."+k.String(), rp.parent[seq], seq, start, end)})
		}
	}
	return out, failed
}

// replayLayers replays the traced requests against the server handler,
// the Sharded index and a standalone Index, each its own instance so that
// no write is applied twice, sets the timing metrics of those layers, and
// writes every span.
func replayLayers(rep *report, res *result, in *inputs, dir string, traced []request, epoch time.Time) error {
	s := res.cfg.spec
	if len(traced) == 0 {
		return fmt.Errorf("no traced requests")
	}
	t := &tracer{epoch: epoch}
	rp := &replay{s: s, in: in, t: t, parent: map[int64]int64{}}
	clientDur := map[int64]time.Duration{}
	for _, r := range traced {
		rp.parent[r.seq] = int64(len(t.spans)) + 1
		clientDur[r.seq] = t.add("http."+requestKind(s, in, r.seq).String(), 0, r.seq, epoch.Add(r.start), epoch.Add(r.end))
	}
	rp.first = traced[0].seq
	rp.n = replayCount(s, in, rp.first, traced[len(traced)-1].seq+1-rp.first)
	rp.warm = min(rp.first, 1000)

	var handler, sharded, core []call
	failed := 0
	err := withStack(s, in, filepath.Join(dir, "server"), func(idx *wazi.Sharded) error {
		srv := server.New(server.Sharded(idx), server.Config{})
		defer srv.Close()
		handler, failed = rp.handler(srv.Handler())
		return nil
	})
	if err == nil {
		err = withStack(s, in, filepath.Join(dir, "sharded"), func(idx *wazi.Sharded) error {
			sharded = rp.calls("sharded", idx)
			return nil
		})
	}
	if err != nil {
		return err
	}
	// The standalone index gets the same data, training set and, on the
	// disk workload, the same total cache as the shards.
	opts := []wazi.Option{wazi.WithLeafSize(leafSize)}
	if s.disk {
		opts = append(opts, wazi.WithStorage(wazi.Storage{Path: filepath.Join(dir, "core.pages"), CachePages: numShards * cachePages}))
	}
	idx, err := wazi.NewWorkloadAware(in.data, in.train, opts...)
	if err != nil {
		return fmt.Errorf("building the standalone index: %w", err)
	}
	core = rp.calls("core", idx)
	idx.Close()
	if failed > 0 {
		res.correct = false
		res.failed += failed
		res.notes = append(res.notes, fmt.Sprintf("%d replayed requests failed", failed))
	}

	// Self time of the server: the handler's time less the Sharded calls
	// of the same request. Transport: the client's time less the handler's.
	shardedSum := map[int64]time.Duration{}
	for _, c := range sharded {
		shardedSum[c.seq] += c.d
	}
	var handlerBy, selfBy [numKinds]dist
	var transport dist
	for _, c := range handler {
		handlerBy[c.k] = append(handlerBy[c.k], c.d)
		selfBy[c.k] = append(selfBy[c.k], c.d-shardedSum[c.seq])
		transport = append(transport, clientDur[c.seq]-c.d)
	}
	shardedBy, coreBy := byKind(sharded), byKind(core)
	for k := range kind(numKinds) {
		name := k.String()
		rep.setPercentiles("server.handler_us."+name, handlerBy[k])
		rep.setPercentiles("sharded.call_us."+name, shardedBy[k])
		if k != kPoint {
			rep.setLatency("server.self_us."+name+".p50", "", selfBy[k])
		}
		if k == kRange || k == kKNN || k == kCount {
			rep.setLatency("core.call_us."+name+".p50", "", coreBy[k])
		}
	}
	rep.setLatency("transport.us.p50", "", transport)
	path := filepath.Join(outDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", s.name, res.cfg.seed))
	if err := t.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	res.notes = append(res.notes, fmt.Sprintf("%d spans written to %s; %d requests replayed per layer", len(t.spans), path, rp.n))
	return nil
}

func byKind(calls []call) [numKinds]dist {
	var out [numKinds]dist
	for _, c := range calls {
		out[c.k] = append(out[c.k], c.d)
	}
	return out
}

// replayCount returns how many requests from first on must be replayed so
// that every op kind of the stream has minTail samples, capped at limit.
func replayCount(s spec, in *inputs, first, limit int64) int64 {
	var seen [numKinds]int
	present := map[kind]bool{}
	for _, o := range in.ops {
		present[o.kind] = true
	}
	if s.batch > 1 {
		present = map[kind]bool{kBatch: true}
	}
	for n := int64(0); n < limit; n++ {
		seen[requestKind(s, in, first+n)]++
		done := true
		for k := range present {
			done = done && seen[k] >= minTail
		}
		if done {
			return n + 1
		}
	}
	return limit
}

// withStack builds a fresh index for workload s under dir, runs fn on it
// and closes it.
func withStack(s spec, in *inputs, dir string, fn func(*wazi.Sharded) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	idx, err := wazi.NewSharded(in.data, in.train, shardedOptions(s, dir)...)
	if err != nil {
		return fmt.Errorf("building index: %w", err)
	}
	defer idx.Close()
	return fn(idx)
}
