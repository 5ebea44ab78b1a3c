package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// The metric lists of BENCHMARK.json are the declarations in metrics.go,
// in order, and its workloads are the specs, whose descriptions state the
// set-up figures the code uses.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var got, want []string
	for _, m := range b.EndToEnd {
		got = append(got, fmt.Sprint(m.Name, m.Unit, m.Better))
	}
	for _, m := range b.PerLayer {
		got = append(got, fmt.Sprint(m.Name, m.Unit, m.Better))
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		want = append(want, fmt.Sprint(m.name, m.unit, m.better))
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("BENCHMARK.json metrics\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	var setupBound float64
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || m.Bound > setupBound {
			t.Errorf("%s: bound %v, want in (0, %v]", m.Name, m.Bound, setupBound)
		}
	}

	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		s := specs[i]
		if w.Name != s.name {
			t.Errorf("workload %d is %q, want %q", i, w.Name, s.name)
		}
		facts := []string{fmt.Sprintf("%dk", dataSize/1000), fmt.Sprintf("%d shards", numShards),
			fmt.Sprintf("closed loop, %d client", clients)}
		if s.disk {
			facts = append(facts, fmt.Sprintf("cache %d pages/shard", cachePages))
		} else {
			facts = append(facts, "RAM pages")
		}
		if s.wal {
			facts = append(facts, "sync=group")
		} else {
			facts = append(facts, "no WAL")
		}
		for _, f := range facts {
			if !strings.Contains(w.Why, f) {
				t.Errorf("%s: description %q does not state %q", w.Name, w.Why, f)
			}
		}
	}
}

// Every metric a workload describes is one its op mix can produce.
func TestMetricWorkloadsAreSpecs(t *testing.T) {
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		for _, w := range m.workloads {
			if _, ok := specByName(w); !ok {
				t.Errorf("%s names unknown workload %q", m.name, w)
			}
		}
	}
}

func TestTailCheck(t *testing.T) {
	if tailOK(999, 0.99) || !tailOK(1000, 0.99) {
		t.Error("p99 needs at least 1000 samples to leave ten beyond it")
	}
	d := make(dist, 1000)
	for i := range d {
		d[i] = time.Duration(i+1) * time.Microsecond
	}
	if d.quantile(0.5) != 500*time.Microsecond || d.quantile(0.99) != 990*time.Microsecond {
		t.Errorf("quantiles %v %v", d.quantile(0.5), d.quantile(0.99))
	}
	r := newReport(perLayer)
	r.setPercentiles("e2e.latency_us.knn", d[:999])
	if _, ok := r.values["e2e.latency_us.knn.p99"]; ok || len(r.short) != 1 {
		t.Error("p99 of 999 samples reported")
	}
}

func TestDiskBytesCountsLiveGenerations(t *testing.T) {
	dir := t.TempDir()
	files := map[string]int{
		"pages/shard-e000-0000-g000000.pages": 100, // superseded epoch
		"pages/shard-e001-0000-g000000.pages": 10,  // superseded generation
		"pages/shard-e001-0000-g000002.pages": 20,
		"pages/shard-e001-0001-g000001.pages": 30,
		"wal/wal-00000000000000000001.seg":    5,
	}
	for name, size := range files {
		path := dir + "/" + name
		if err := os.MkdirAll(path[:strings.LastIndex(path, "/")], 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, make([]byte, size), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := diskBytes(dir); got != 55 {
		t.Errorf("diskBytes = %d, want 55", got)
	}
}

func TestTrimmedMean(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{1, 3}, 2},
		{[]float64{100, 2, 4, 3, 0}, 3},
		{[]float64{9, 1, 2, 3, 4, 5, 6, 7, 8, 1000}, 5.5},
	} {
		if got := trimmedMean(c.v); got != c.want {
			t.Errorf("trimmedMean(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}
