package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	wazi "github.com/wazi-index/wazi"
)

// request is one HTTP request the closed loop sent.
type request struct {
	seq        int64
	start, end time.Duration // since the run's epoch
	code       int           // HTTP status; 0 on a transport error
	traced     bool          // sent while tracing was on
}

// answer is the digest of one op's reply, checked against the oracle
// after the run.
type answer struct {
	at  int32  // index of the op in the stream
	n   int32  // range: result size; count: the count; point: 1 if found
	sum uint64 // range: order-independent point checksum; kNN: distance digest
	bad bool   // the client rejected the reply itself (malformed, point outside its rect)
	ok  bool   // the request carrying the op answered 200
}

// loop is a closed loop of clients, each with one keep-alive connection,
// sending the next request of the shared stream when its reply arrives.
type loop struct {
	s       spec
	in      *inputs
	base    string
	epoch   time.Time
	next    atomic.Int64
	stopAt  atomic.Int64 // nanoseconds since epoch
	tracing atomic.Bool
	// inserted holds the stream's insert points: a range reply may contain
	// them on top of the initial data.
	inserted map[wazi.Point]bool
	clients  []*client
}

func newLoop(s spec, in *inputs, base string, epoch time.Time) *loop {
	l := &loop{s: s, in: in, base: base, epoch: epoch}
	l.stopAt.Store(math.MaxInt64)
	for _, o := range in.ops {
		if o.kind == kInsert {
			if l.inserted == nil {
				l.inserted = make(map[wazi.Point]bool)
			}
			l.inserted[o.pt] = true
		}
	}
	for range clients {
		l.clients = append(l.clients, &client{hc: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
				DisableCompression: true},
		}})
	}
	return l
}

// run drives every client until the time in l.stopAt (nanoseconds since
// the epoch) and returns once all have stopped.
func (l *loop) run() {
	var wg sync.WaitGroup
	for _, c := range l.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(l.epoch) < time.Duration(l.stopAt.Load()) {
				c.send(l, l.next.Add(1)-1)
			}
			c.hc.CloseIdleConnections()
		}()
	}
	wg.Wait()
}

type client struct {
	hc      *http.Client
	body    []byte
	resp    bytes.Buffer
	reqs    []request
	answers []answer
	pts     []wazi.Point // reply parse buffers
	batch   []reply
}

// send issues request seq and records its timing and answers.
func (c *client) send(l *loop, seq int64) {
	ops := l.in.requestOps(l.s, seq)
	path, body := encodeRequest(c.body[:0], ops)
	c.body = body
	traced := l.tracing.Load()
	start := time.Since(l.epoch)
	code := 0
	c.resp.Reset()
	resp, err := c.hc.Post(l.base+path, "application/json", bytes.NewReader(body))
	if err == nil {
		_, err = c.resp.ReadFrom(resp.Body)
		resp.Body.Close()
		if err == nil {
			code = resp.StatusCode
		}
	}
	end := time.Since(l.epoch)
	c.reqs = append(c.reqs, request{seq: seq, start: start, end: end, code: code, traced: traced})
	first := int32(seq % int64(len(l.in.ops)/l.s.batch) * int64(l.s.batch))
	base := len(c.answers)
	for j := range ops {
		c.answers = append(c.answers, answer{at: first + int32(j), ok: code == http.StatusOK})
	}
	if code == http.StatusOK {
		c.digestReply(c.answers[base:], ops, c.resp.Bytes(), l.inserted)
	}
}

// -------------------------------------------------------------- wire

func encodeRequest(b []byte, ops []op) (string, []byte) {
	if len(ops) > 1 {
		b = append(b, `{"ops":[`...)
		for i, o := range ops {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"op":"`...)
			b = append(b, o.kind.String()...)
			b = append(b, `",`...)
			b = appendOperand(b, o)
			b = append(b, '}')
		}
		return "/v1/batch", append(b, "]}"...)
	}
	o := ops[0]
	b = append(b, '{')
	b = appendOperand(b, o)
	return "/v1/" + o.kind.String(), append(b, '}')
}

func appendOperand(b []byte, o op) []byte {
	switch o.kind {
	case kRange, kCount:
		r := o.rect
		b = append(b, `"rect":{"MinX":`...)
		b = strconv.AppendFloat(b, r.MinX, 'g', -1, 64)
		b = append(b, `,"MinY":`...)
		b = strconv.AppendFloat(b, r.MinY, 'g', -1, 64)
		b = append(b, `,"MaxX":`...)
		b = strconv.AppendFloat(b, r.MaxX, 'g', -1, 64)
		b = append(b, `,"MaxY":`...)
		b = strconv.AppendFloat(b, r.MaxY, 'g', -1, 64)
		return append(b, '}')
	default:
		b = append(b, `"point":{"X":`...)
		b = strconv.AppendFloat(b, o.pt.X, 'g', -1, 64)
		b = append(b, `,"Y":`...)
		b = strconv.AppendFloat(b, o.pt.Y, 'g', -1, 64)
		b = append(b, '}')
		if o.kind == kKNN {
			b = append(b, `,"k":`...)
			b = strconv.AppendInt(b, knnK, 10)
		}
		return b
	}
}

// reply is the union of the server's op reply shapes.
type reply struct {
	Count  int          `json:"count"`
	Points []wazi.Point `json:"points"`
	Found  bool         `json:"found"`
	OK     bool         `json:"ok"`
}

// digestReply fills the answers of one request's ops from its 200 body.
// Range and kNN replies, which carry up to thousands of points, and batch
// replies take a hand-written parser for the server's exact output;
// anything it does not recognise goes through encoding/json.
func (c *client) digestReply(ans []answer, ops []op, body []byte, inserted map[wazi.Point]bool) {
	if len(ops) > 1 {
		rs, ok := parseBatchCounts(body, c.batch[:0])
		if !ok {
			var b struct {
				Results []reply `json:"results"`
			}
			if json.Unmarshal(body, &b) != nil {
				b.Results = nil
			}
			rs = b.Results
		}
		c.batch = rs[:0]
		if len(rs) != len(ops) {
			for i := range ans {
				ans[i].bad = true
			}
			return
		}
		for i, o := range ops {
			digestOp(&ans[i], o, rs[i], inserted)
		}
		return
	}
	var r reply
	ok := false
	if k := ops[0].kind; k == kRange || k == kKNN {
		r.Count, r.Points, ok = parsePoints(body, c.pts[:0])
		c.pts = r.Points[:0]
	}
	if !ok {
		r = reply{}
		if json.Unmarshal(body, &r) != nil {
			ans[0].bad = true
			return
		}
	}
	digestOp(&ans[0], ops[0], r, inserted)
}

func digestOp(a *answer, o op, r reply, inserted map[wazi.Point]bool) {
	switch o.kind {
	case kRange:
		a.bad = r.Count != len(r.Points)
		for _, p := range r.Points {
			if !o.rect.Contains(p) {
				a.bad = true
			}
			if inserted[p] {
				continue
			}
			a.n++
			a.sum += pointHash(p)
		}
	case kKNN:
		a.bad = r.Count != len(r.Points)
		a.n = int32(len(r.Points))
		a.sum = distDigest(o.pt, r.Points)
	case kCount:
		a.n = int32(r.Count)
	case kPoint:
		if r.Found {
			a.n = 1
		}
	case kInsert:
		a.bad = !r.OK
	}
}

// pointHash mixes a point's coordinates; summing it over a result set
// gives a checksum that ignores order.
func pointHash(p wazi.Point) uint64 {
	z := math.Float64bits(p.X)*0x9e3779b97f4a7c15 ^ math.Float64bits(p.Y)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// distDigest hashes the sorted distances from q to pts: two kNN answers
// agree on it exactly when they have the same distances.
func distDigest(q wazi.Point, pts []wazi.Point) uint64 {
	d := make([]float64, len(pts))
	for i, p := range pts {
		dx, dy := p.X-q.X, p.Y-q.Y
		d[i] = dx*dx + dy*dy
	}
	slices.Sort(d)
	h := uint64(len(d))
	for _, v := range d {
		h = (h ^ math.Float64bits(v)) * 0x100000001b3
	}
	return h
}

// parsePoints parses a {"count":n,"points":[{"X":x,"Y":y},...]} reply
// onto dst.
func parsePoints(b []byte, dst []wazi.Point) (int, []wazi.Point, bool) {
	p := parser{b: b, ok: true}
	p.lit(`{"count":`)
	n := p.int()
	p.lit(`,"points":`)
	if p.try(`null`) {
		p.lit(`}`)
		return n, dst, p.end()
	}
	p.lit(`[`)
	for !p.try(`]`) && p.ok {
		if len(dst) > 0 {
			p.lit(`,`)
		}
		p.lit(`{"X":`)
		x := p.float()
		p.lit(`,"Y":`)
		y := p.float()
		p.lit(`}`)
		dst = append(dst, wazi.Point{X: x, Y: y})
	}
	p.lit(`}`)
	return n, dst, p.end()
}

// parseBatchCounts parses a {"results":[{"count":n},...]} reply onto dst.
func parseBatchCounts(b []byte, dst []reply) ([]reply, bool) {
	p := parser{b: b, ok: true}
	p.lit(`{"results":[`)
	for !p.try(`]`) && p.ok {
		if len(dst) > 0 {
			p.lit(`,`)
		}
		p.lit(`{"count":`)
		dst = append(dst, reply{Count: p.int()})
		p.lit(`}`)
	}
	p.lit(`}`)
	return dst, p.end()
}

// parser scans one exact JSON layout; any surprise clears ok.
type parser struct {
	b  []byte
	i  int
	ok bool
}

func (p *parser) try(s string) bool {
	if p.ok && len(p.b)-p.i >= len(s) && string(p.b[p.i:p.i+len(s)]) == s {
		p.i += len(s)
		return true
	}
	return false
}

func (p *parser) lit(s string) {
	if !p.try(s) {
		p.ok = false
	}
}

// token returns the bytes up to the next ',', '}' or ']'.
func (p *parser) token() string {
	j := p.i
	for j < len(p.b) && p.b[j] != ',' && p.b[j] != '}' && p.b[j] != ']' {
		j++
	}
	t := unsafe.String(unsafe.SliceData(p.b[p.i:]), j-p.i)
	p.i = j
	return t
}

func (p *parser) float() float64 {
	v, err := strconv.ParseFloat(p.token(), 64)
	p.ok = p.ok && err == nil
	return v
}

func (p *parser) int() int {
	v, err := strconv.Atoi(p.token())
	p.ok = p.ok && err == nil
	return v
}

// end reports whether the whole body parsed, allowing trailing spaces.
func (p *parser) end() bool {
	for p.ok && p.i < len(p.b) && (p.b[p.i] == '\n' || p.b[p.i] == ' ') {
		p.i++
	}
	return p.ok && p.i == len(p.b)
}
