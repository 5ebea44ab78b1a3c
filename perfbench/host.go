package main

import (
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// On a virtual machine the hypervisor shares the physical CPUs with other
// guests, and now and then, for minutes at a time, it may give them a
// large share of this guest's CPU time ("steal" in /proc/stat). While it
// does, every timing the benchmark takes grows, a p99 several times over,
// whatever the program does. So after the warm-up the benchmark waits, for
// at most calmWait, until the steal share has stayed below maxSteal for
// calmFor; and the end-to-end timings are taken from the parts of the
// measured window in which the steal share stayed below maxSteal, or, when
// fewer than a third of the parts did, from the third with the least
// steal. Where /proc/stat cannot be read, nothing waits and every part
// counts.
const (
	maxSteal = 0.03
	calmFor  = 5 * time.Second
	calmWait = 45 * time.Second
)

// cpuTimes holds the machine's CPU time in clock ticks, from the first
// line of /proc/stat.
type cpuTimes struct{ steal, total uint64 }

// readCPUTimes returns the machine's CPU times, and false when /proc/stat
// cannot be read or parsed.
func readCPUTimes() (cpuTimes, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, false
	}
	return parseCPUTimes(string(b))
}

func parseCPUTimes(stat string) (cpuTimes, bool) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, false
	}
	var c cpuTimes
	for i := 1; i <= 8; i++ { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return cpuTimes{}, false
		}
		c.total += v
		c.steal = v
	}
	return c, true
}

// stealShare returns the share of the CPU time between a and b that was
// stolen.
func stealShare(a, b cpuTimes) float64 {
	return ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}

// stealSampler samples the CPU times every 100ms while it runs.
type stealSampler struct {
	epoch   time.Time
	mu      sync.Mutex
	at      []time.Duration // since epoch
	samples []cpuTimes
	quit    chan struct{}
	wg      sync.WaitGroup
}

func (p *stealSampler) start(epoch time.Time) {
	p.epoch, p.quit = epoch, make(chan struct{})
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			if c, ok := readCPUTimes(); ok {
				p.mu.Lock()
				p.at, p.samples = append(p.at, time.Since(p.epoch)), append(p.samples, c)
				p.mu.Unlock()
			}
			select {
			case <-p.quit:
				return
			case <-tick.C:
			}
		}
	}()
}

func (p *stealSampler) stop() {
	close(p.quit)
	p.wg.Wait()
}

// share returns the steal share over the samples that fall within w, and
// false when fewer than two do.
func (p *stealSampler) share(w window) (float64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	i, _ := slices.BinarySearch(p.at, w.start)
	j, found := slices.BinarySearch(p.at, w.end)
	if !found {
		j--
	}
	if j <= i {
		return 0, false
	}
	return stealShare(p.samples[i], p.samples[j]), true
}

// waitCalm waits until the steal share over the last calmFor is below
// maxSteal, or calmWait has passed, and returns the time since the epoch.
func (p *stealSampler) waitCalm() time.Duration {
	from := time.Since(p.epoch)
	for {
		now := time.Since(p.epoch)
		s, ok := p.share(window{now - calmFor, now})
		if !ok || s < maxSteal || now-from >= calmWait {
			return now
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// calmParts returns the indexes of the parts of ws to take timings from:
// those whose steal share is below maxSteal, or the third of them with
// the least steal when fewer qualify. It returns them all when the steal
// of some part is unknown.
func (p *stealSampler) calmParts(ws []window) []int {
	idx := make([]int, len(ws))
	share := make([]float64, len(ws))
	for i, w := range ws {
		s, ok := p.share(w)
		if !ok {
			for i := range idx {
				idx[i] = i
			}
			return idx
		}
		idx[i], share[i] = i, s
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		switch {
		case share[a] < share[b]:
			return -1
		case share[a] > share[b]:
			return 1
		}
		return 0
	})
	keep := (len(ws) + 2) / 3
	for keep < len(idx) && share[idx[keep]] < maxSteal {
		keep++
	}
	idx = idx[:keep]
	slices.Sort(idx)
	return idx
}
