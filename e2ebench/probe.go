package main

import (
	"sort"
	"sync"
	"time"
)

// The benchmark host is a small VM on a shared machine. A vCPU's speed
// swings by up to 2× within a second as other tenants load the physical
// core under it, and the share of slow time changes from minute to
// minute, so one job's wall time differs by a quarter to a third between
// two runs of the same code. The probe measures that speed while the
// workload runs: a fixed reference kernel, timed for a few tens of
// microseconds every 10–20 ms on the same CPU as the jobs (run.sh pins
// the process to one CPU). Timings are reported at reference speed: wall
// time × the mean, over the same interval, of refNS ÷ the kernel's
// measured ns per op. The kernel is this file's own code, so no change
// to the program under test can speed it up or slow it down.

const (
	// refNS is the reference speed: about the kernel's ns per op on an
	// uncontended vCPU of a 2.1 GHz Sapphire Rapids Xeon (go1.24), so a
	// timing at reference speed is close to what an idle host gives.
	refNS = 16_000
	// probeOps kernel ops make one sample, taken every probeEvery, or
	// once a running job yields the CPU (the Go scheduler preempts a
	// goroutine within 10 ms). The probe takes under 1 % of the CPU.
	probeOps   = 2
	probeEvery = 10 * time.Millisecond
	// minSamples is the fewest samples an interval's scale rests on; a
	// shorter interval borrows the samples nearest to it.
	minSamples = 4
)

// probe samples the reference kernel's speed on the benchmark clock.
type probe struct {
	clock func() int64

	mu    sync.Mutex
	at    []int64   // sample midpoints, ascending
	speed []float64 // refNS ÷ measured ns per op

	sink float64 // keeps refOp's results alive
	stop chan struct{}
	done chan struct{}
}

// startProbe starts sampling until close.
func startProbe(clock func() int64) *probe {
	p := &probe{clock: clock, stop: make(chan struct{}), done: make(chan struct{})}
	go p.loop()
	return p
}

func (p *probe) loop() {
	defer close(p.done)
	t := time.NewTicker(probeEvery)
	defer t.Stop()
	for {
		t0 := p.clock()
		for i := 0; i < probeOps; i++ {
			p.sink += refOp()
		}
		t1 := p.clock()
		p.mu.Lock()
		p.at = append(p.at, (t0+t1)/2)
		p.speed = append(p.speed, refNS*probeOps/float64(max(t1-t0, 1)))
		p.mu.Unlock()
		select {
		case <-p.stop:
			return
		case <-t.C:
		}
	}
}

// close stops the sampler and waits for it.
func (p *probe) close() {
	close(p.stop)
	<-p.done
}

// scale returns the factor that turns wall time over [from, to] on the
// benchmark clock into time at reference speed: the mean speed of the
// samples inside the interval, widened to the minSamples nearest ones
// when it holds fewer.
func (p *probe) scale(from, to int64) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.at)
	if n == 0 {
		return 1
	}
	i := sort.Search(n, func(k int) bool { return p.at[k] >= from })
	j := sort.Search(n, func(k int) bool { return p.at[k] > to })
	for j-i < min(minSamples, n) {
		if j == n || (i > 0 && from-p.at[i-1] < p.at[j]-to) {
			i--
		} else {
			j++
		}
	}
	sum := 0.0
	for _, v := range p.speed[i:j] {
		sum += v
	}
	return sum / float64(j-i)
}

// refOp is the reference kernel's unit of work, two halves that a
// contended core slows by different amounts, as it does the program's
// own mix: a dense LU elimination (the arithmetic of the simulator's
// solver) and branchy integer work (an insertion sort and an
// open-addressing table, like the bookkeeping around it). It allocates
// nothing.
func refOp() float64 {
	const n = 40
	var a [n][n]float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i][j] = float64((i*7+j*13)%17) + 1
		}
		a[i][i] += 4 * n
	}
	for k := 0; k < n; k++ {
		for i := k + 1; i < n; i++ {
			f := a[i][k] / a[k][k]
			for j := k; j < n; j++ {
				a[i][j] -= f * a[k][j]
			}
		}
	}

	x := uint32(88172645)
	next := func() uint32 {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		return x
	}
	var s [96]uint32
	for i := range s {
		s[i] = next()
	}
	for i := 1; i < len(s); i++ {
		v, j := s[i], i-1
		for ; j >= 0 && s[j] > v; j-- {
			s[j+1] = s[j]
		}
		s[j+1] = v
	}
	var tab [1024]uint32
	hits := 0
	for i := 0; i < 600; i++ {
		k := next()%2000 + 1
		h := (k * 2654435761) & 1023
		for tab[h] != 0 && tab[h] != k {
			h = (h + 1) & 1023
		}
		if tab[h] == k {
			hits++
		}
		tab[h] = k
	}
	return a[n-1][n-1] + float64(s[len(s)/2]) + float64(hits)
}
