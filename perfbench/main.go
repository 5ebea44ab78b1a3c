// Command perfbench is the repository's benchmark. It serves a WaZI
// Sharded index over HTTP on a loopback listener inside its own process,
// drives it with a closed loop of clients, checks every reply against a
// brute-force oracle, and prints the metrics BENCHMARK.json declares:
//
//	bash perfbench/run.sh --workload serve-read-zipf --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of one measured
// window. With --trace 1 it reports the per-layer metrics: counter deltas
// over an untraced window, client spans over a traced window, and timed
// sequential replays of the traced requests against the server handler,
// the Sharded index and a standalone Index. The spans are written to
// .bench_build/perfbench/trace/. The last line of standard output is the
// JSON result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	wazi "github.com/wazi-index/wazi"
)

// outDir holds everything a run writes, relative to the working directory.
const outDir = ".bench_build/perfbench"

type config struct {
	spec    spec
	seed    int64
	seconds time.Duration
	trace   bool
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: serve-read-zipf, ingest-wal or scan-disk-batch")
		seed    = flag.Int64("seed", 1, "seed of the data, the training set and the replayed stream")
		seconds = flag.Int("seconds", 10, "length of the measured window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	)
	flag.Parse()
	s, ok := specByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload serve-read-zipf|ingest-wal|scan-disk-batch --seed n --seconds n --trace 0|1")
		os.Exit(2)
	}
	cfg := config{spec: s, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is one run's outcome.
type result struct {
	cfg       config
	correct   bool
	attempted int
	failed    int
	notes     []string
	rep       *report
}

// print writes the metrics, one per line with its unit and sample count,
// then the JSON result as the last line.
func (r *result) print(w io.Writer) error {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%v trace=%v\n", r.cfg.spec.name, r.cfg.seed, r.cfg.seconds, r.cfg.trace)
	for _, n := range r.notes {
		fmt.Fprintln(w, "  "+n)
	}
	if len(r.rep.short) > 0 {
		fmt.Fprintf(w, "  p99 left at 0, fewer than 1000 samples: %s\n", strings.Join(r.rep.short, ", "))
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range r.rep.decl {
		v := r.rep.values[m.name]
		metrics[m.name] = value{v, m.unit}
		samples := ""
		if n := r.rep.samples[m.name]; n > 0 {
			samples = fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintf(w, "  %-32s %14.4f %-8s%s\n", m.name, v, m.unit, samples)
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

func run(cfg config) (*result, error) {
	s := cfg.spec
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	windows := 1
	if cfg.trace {
		windows = 2 // untraced, then traced
	}
	t0 := time.Now()
	in := makeInputs(s, cfg.seed, time.Duration(windows)*cfg.seconds)
	t1 := time.Now()
	st, setupTimes, err := setUp(cfg, &in, tmp)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	res := &result{cfg: cfg, correct: true}
	sv, err := serve(cfg, &in, st, res)
	if err != nil {
		return nil, err
	}
	t3 := time.Now()

	bad, attempted := verify(sv.loop, &in)
	res.notes = append(res.notes, fmt.Sprintf("phases: inputs %.1fs, set-up %.1fs, serve %.1fs, verify %.1fs",
		t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds(), time.Since(t3).Seconds()))
	res.attempted = attempted
	res.failed += bad
	if res.failed > 0 {
		res.correct = false
	}
	errRate := ratio(float64(res.failed), float64(res.attempted))
	res.notes = append(res.notes, fmt.Sprintf("ops attempted %d, failed %d, error_rate %g", res.attempted, res.failed, errRate))

	reqs := sv.loop.requests()
	w1 := sv.win1.of(reqs)
	if !cfg.trace {
		rep := newReport(endToEnd)
		res.rep = rep
		rep.set("setup_s", setupTimes.quantile(0.5).Seconds(), len(setupTimes))
		res.notes = append(res.notes, fmt.Sprintf("set-up times %v", setupTimes))
		if err := setEndToEnd(rep, res, sv.win1, reqs, s.batch, &sv.steal); err != nil {
			return nil, err
		}
		rep.set("index_mb", float64(sv.indexBytes)/1e6, 0)
		return res, nil
	}

	rep := newReport(perLayer)
	res.rep = rep
	rep.set("e2e.error_rate", errRate, res.attempted)
	for k := range kind(numKinds) {
		rep.setPercentiles("e2e.latency_us."+k.String(), latenciesOf(s, &in, w1, k))
	}
	layerCounters(rep, sv.before, sv.after, &sv.shards, len(w1)*s.batch)
	var traced []request
	for _, r := range sv.win2.of(reqs) {
		if r.traced {
			traced = append(traced, r)
		}
	}
	untraced, tracedMean := latencies(w1).mean(), latencies(traced).mean()
	rep.set("trace.overhead_frac", float64(tracedMean)/float64(untraced)-1, len(traced))
	if err := replayLayers(rep, res, &in, tmp, traced, sv.loop.epoch); err != nil {
		return nil, err
	}
	return res, nil
}

// setUp starts the serving stack several times and returns the last one
// with every set-up time; setup_s is their median. The traced run does
// not report setup_s and sets up once.
func setUp(cfg config, in *inputs, tmp string) (*stack, dist, error) {
	n := setups
	if cfg.trace {
		n = 1
	}
	var times dist
	for i := 0; ; i++ {
		st, d, err := startStack(cfg.spec, in, filepath.Join(tmp, fmt.Sprintf("stack%d", i)))
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, d)
		if i == n-1 {
			return st, times, nil
		}
		if err := st.stop(); err != nil {
			return nil, nil, err
		}
		os.RemoveAll(st.dir)
	}
}

// warmUp waits out the warm-up of workload s and returns its length, when
// the control loop was last seen to repartition (or, on a read-only
// workload, rebuild), and whether it had gone quiet by the end.
func warmUp(s spec, idx *wazi.Sharded, epoch time.Time) (end, lastActive time.Duration, quiet bool) {
	activity := func() int64 {
		n := idx.Repartitions()
		if !s.writes {
			n += idx.Rebuilds()
		}
		return n
	}
	last, lastAt := activity(), epoch
	for time.Since(epoch) < maxWarmup {
		if n := activity(); n != last || idx.Migrating() {
			last, lastAt = n, time.Now()
		} else if time.Since(epoch) >= s.warmup && time.Since(lastAt) >= quietFor {
			return time.Since(epoch), lastAt.Sub(epoch), true
		}
		time.Sleep(100 * time.Millisecond)
	}
	return time.Since(epoch), lastAt.Sub(epoch), false
}

// served is what serve observed.
type served struct {
	loop          *loop
	win1, win2    window // untraced, traced (trace run only)
	before, after counters
	shards        shardSampler
	steal         stealSampler
	indexBytes    int64
}

// serve drives the closed loop through the warm-up and the measured
// window(s), snapshots the counters around the first window, checks the
// end state, and stops the stack.
func serve(cfg config, in *inputs, st *stack, res *result) (sv *served, err error) {
	defer func() {
		if serr := st.stop(); err == nil {
			err = serr
		}
		os.RemoveAll(st.dir)
	}()
	epoch := time.Now()
	sv = &served{loop: newLoop(cfg.spec, in, st.base, epoch)}
	loopDone := make(chan struct{})
	go func() {
		sv.loop.run()
		close(loopDone)
	}()
	defer func() {
		sv.loop.stopAt.Store(0)
		<-loopDone
	}()

	sv.steal.start(epoch)
	defer sv.steal.stop()
	warm, lastActive, quiet := warmUp(cfg.spec, st.idx, epoch)
	start := sv.steal.waitCalm()
	res.notes = append(res.notes, fmt.Sprintf("warm-up %.1fs (control loop quiet: %v, last active at %.1fs; then %.1fs waiting for the host to calm) saw %d rebuilds, %d repartitions",
		warm.Seconds(), quiet, lastActive.Seconds(), (start-warm).Seconds(), st.idx.Rebuilds(), st.idx.Repartitions()))
	sv.win1 = window{start, start + cfg.seconds}
	sv.win2 = window{sv.win1.end, sv.win1.end + cfg.seconds}
	last := sv.win1.end
	if cfg.trace {
		last = sv.win2.end
	}
	sv.loop.stopAt.Store(int64(last))
	if sv.before, err = snapshot(st); err != nil {
		return nil, err
	}
	sv.shards.start(st.idx)
	time.Sleep(time.Until(epoch.Add(sv.win1.end)))
	sv.loop.tracing.Store(cfg.trace)
	sv.after, err = snapshot(st)
	sv.shards.stop()
	if err != nil {
		return nil, err
	}
	res.notes = append(res.notes, fmt.Sprintf("measured window saw %d rebuilds, %d repartitions",
		sv.after.rebuilds-sv.before.rebuilds, sv.after.repartitions-sv.before.repartitions))
	if s, ok := sv.steal.share(sv.win1); ok {
		res.notes = append(res.notes, fmt.Sprintf("host steal in the measured window: %.1f%%", 100*s))
	}
	<-loopDone

	// The full-domain count must equal the data plus every acknowledged
	// insert.
	acked := 0
	for _, c := range sv.loop.clients {
		for _, a := range c.answers {
			if a.ok && in.ops[a.at].kind == kInsert {
				acked++
			}
		}
	}
	count, err := fullCount(st.base)
	if err != nil {
		return nil, err
	}
	if count != len(in.data)+acked {
		res.correct = false
		res.failed++
		res.notes = append(res.notes, fmt.Sprintf("full-domain count %d, want %d data + %d acknowledged inserts", count, len(in.data), acked))
	}
	sv.indexBytes = st.idx.Bytes() + diskBytes(st.dir)
	return sv, nil
}

// The measured window is cut into equal parts, and each timing metric is
// the trimmed mean of its values over the parts the host left calm (see
// host.go): the highest and lowest
// fifth are dropped, so that a burst of noise in a few parts (a rebuild, a
// stall on the host) does not move it, and the rest are averaged, which
// spreads less than their median would when a part holds few slow ops
// (the kNNs of serve-read-zipf). The p99 takes up to as many parts as hold
// tailRequests requests each on average; a part short of 1000, which
// leaves fewer than ten beyond its p99, is left out.
//
// The latency of all kinds together is reported as a mean, not a median:
// on a mix of fast and slow kinds (ingest-wal's 50/50 inserts and ranges)
// the median falls in the gap between the two and jumps with the share of
// each kind in the window. The per-kind medians are per-layer metrics.
const (
	parts        = 15
	tailRequests = 1250
)

// setEndToEnd sets the throughput and latency metrics of window w.
func setEndToEnd(rep *report, res *result, w window, reqs []request, batch int, steal *stealSampler) error {
	cut := func(n int) []dist {
		ws := make([]window, n)
		step := (w.end - w.start) / time.Duration(n)
		for i := range ws {
			ws[i] = window{w.start + time.Duration(i)*step, w.start + time.Duration(i+1)*step}
		}
		var out []dist
		calm := steal.calmParts(ws)
		for _, i := range calm {
			out = append(out, latencies(ws[i].of(reqs)))
		}
		res.notes = append(res.notes, fmt.Sprintf("timings from %d of %d parts", len(calm), n))
		return out
	}
	partSecs := (w.end - w.start).Seconds() / parts
	var tput, mean, p99 []float64
	for _, d := range cut(parts) {
		tput = append(tput, float64(len(d)*batch)/partSecs)
		if len(d) > 0 {
			mean = append(mean, us(d.mean()))
		}
	}
	n := len(w.of(reqs))
	for _, d := range cut(max(min(parts, n/tailRequests), 1)) {
		if tailOK(len(d), 0.99) {
			p99 = append(p99, us(d.quantile(0.99)))
		}
	}
	if len(p99) == 0 {
		return fmt.Errorf("latency_p99_us: %d requests leave fewer than 10 beyond the 99th percentile", n)
	}
	rep.set("throughput_ops_s", trimmedMean(tput), n*batch)
	rep.set("latency_mean_us", trimmedMean(mean), n)
	rep.set("latency_p99_us", trimmedMean(p99), n)
	res.notes = append(res.notes, fmt.Sprintf("per part: throughput %.0f, mean %.0f; p99 %.0f", tput, mean, p99))
	return nil
}

// trimmedMean drops the lowest and the highest fifth of v and returns the
// mean of the rest.
func trimmedMean(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	s = s[len(s)/5 : len(s)-len(s)/5]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// window is a span of time since the run's epoch.
type window struct{ start, end time.Duration }

// of returns the requests that completed inside w.
func (w window) of(reqs []request) []request {
	var out []request
	for _, r := range reqs {
		if r.end >= w.start && r.end < w.end {
			out = append(out, r)
		}
	}
	return out
}

// requests returns every client's requests in sequence order.
func (l *loop) requests() []request {
	var out []request
	for _, c := range l.clients {
		out = append(out, c.reqs...)
	}
	slices.SortFunc(out, func(a, b request) int { return int(a.seq - b.seq) })
	return out
}

func latencies(reqs []request) dist {
	d := make(dist, len(reqs))
	for i, r := range reqs {
		d[i] = r.end - r.start
	}
	return d
}

// latenciesOf returns the latencies of the requests of kind k: a single
// op of that kind, or a batch when k is kBatch.
func latenciesOf(s spec, in *inputs, reqs []request, k kind) dist {
	var d dist
	for _, r := range reqs {
		if requestKind(s, in, r.seq) == k {
			d = append(d, r.end-r.start)
		}
	}
	return d
}

func requestKind(s spec, in *inputs, seq int64) kind {
	if s.batch > 1 {
		return kBatch
	}
	return in.requestOps(s, seq)[0].kind
}

// fullCount asks the server for the number of points in the whole domain.
func fullCount(base string) (int, error) {
	body := strings.NewReader(`{"rect":{"MinX":-1,"MinY":-1,"MaxX":2,"MaxY":2}}`)
	resp, err := http.Post(base+"/v1/count", "application/json", body)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var r reply
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil || resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("full-domain count: status %d, %v", resp.StatusCode, err)
	}
	return r.Count, nil
}

// verify checks every answer against the oracle on two workers and
// returns the number rejected and the number of ops attempted.
func verify(l *loop, in *inputs) (bad, attempted int) {
	var all []answer
	for _, c := range l.clients {
		all = append(all, c.answers...)
	}
	const workers = 2
	var wg sync.WaitGroup
	bads := make([]int, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := newOracle(in.data)
			for i := w; i < len(all); i += workers {
				if !o.check(in.ops[all[i].at], all[i]) {
					bads[w]++
				}
			}
		}()
	}
	wg.Wait()
	for _, b := range bads {
		bad += b
	}
	return bad, len(all)
}
