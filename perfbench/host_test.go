package main

import (
	"slices"
	"testing"
	"time"
)

func TestParseCPUTimes(t *testing.T) {
	a, ok := parseCPUTimes("cpu  100 5 20 800 10 0 5 60 0 0\ncpu0 50 2 10 400 5 0 2 30 0 0\n")
	if !ok || a.steal != 60 || a.total != 1000 {
		t.Fatalf("parseCPUTimes = %+v, %v", a, ok)
	}
	b, _ := parseCPUTimes("cpu  150 5 20 1000 10 0 5 110 0 0")
	if got, want := stealShare(a, b), 50.0/300; got != want {
		t.Errorf("stealShare = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "intr 1 2 3 4 5 6 7 8", "cpu 1 2 3 x 5 6 7 8"} {
		if _, ok := parseCPUTimes(bad); ok {
			t.Errorf("parseCPUTimes(%q) accepted", bad)
		}
	}
}

// Parts in which the host stole CPU time are left out, down to the third
// with the least steal.
func TestCalmParts(t *testing.T) {
	// Nine parts of one second; steal ticks per part out of 200.
	perPart := []uint64{0, 40, 2, 0, 60, 1, 30, 0, 50}
	var p stealSampler
	var c cpuTimes
	for i := 0; i <= len(perPart); i++ {
		p.at = append(p.at, time.Duration(i)*time.Second)
		p.samples = append(p.samples, c)
		if i < len(perPart) {
			c.steal += perPart[i]
			c.total += 200
		}
	}
	parts := func(n int) []window {
		ws := make([]window, n)
		for i := range ws {
			ws[i] = window{time.Duration(i) * time.Second, time.Duration(i+1) * time.Second}
		}
		return ws
	}
	if got, want := p.calmParts(parts(9)), []int{0, 2, 3, 5, 7}; !slices.Equal(got, want) {
		t.Errorf("calmParts = %v, want %v", got, want)
	}
	for i := range perPart {
		perPart[i] += 20 // 10% steal throughout: keep the least stolen third
	}
	p.samples = p.samples[:0]
	c = cpuTimes{}
	for i := 0; i <= len(perPart); i++ {
		p.samples = append(p.samples, c)
		if i < len(perPart) {
			c.steal += perPart[i]
			c.total += 200
		}
	}
	if got, want := p.calmParts(parts(9)), []int{0, 3, 7}; !slices.Equal(got, want) {
		t.Errorf("calmParts under steal = %v, want %v", got, want)
	}
	var none stealSampler
	if got := none.calmParts(parts(3)); !slices.Equal(got, []int{0, 1, 2}) {
		t.Errorf("calmParts without samples = %v", got)
	}
}
