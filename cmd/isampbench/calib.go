package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// The host this benchmark was written on changes speed under it: on a
// 2-vCPU x86-64 VM the same code ran up to 2.2 times slower from one
// second to the next, and the mean over a 15 s run drifted by 30% over
// minutes. A hostSpeed meter samples a fixed calibration loop all
// through a run, and the end-to-end timings are rescaled to the speed
// the loop runs at on a quiet host, so that a run measures the code
// rather than its neighbours. The raw wall-clock figures stay in the -o
// file.
//
// The loop is a small bytecode interpreter over a 256 KiB table: across
// runs the workloads' raw throughput tracked its rate with slope 1.2 in
// log-log terms, against 2 to 3.5 for a plain multiply loop, which
// contention slows less than branchy, memory-touching code. It shares
// no code with the repository, so no change under test can speed it up.

// referenceRate is the calibration loop's iterations per second of
// thread CPU time on an uncontended vCPU of the 2-core host the bounds
// were set on (observed: 246M to 377M).
const referenceRate = 3.5e8

// calibIters is one calibration burst, about 0.3 ms at referenceRate;
// one burst every 50 ms costs under 1% of one CPU.
const calibIters = 100_000

const calibMemLen = 1 << 15 // 256 KiB of uint64

var (
	calibMem  = make([]uint64, calibMemLen)
	calibProg = func() []uint32 {
		r := newRNG(7, 0)
		p := make([]uint32, 512)
		for i := range p {
			p[i] = uint32(r.next())
		}
		return p
	}()
	// calibSink keeps the loop from being optimized away.
	calibSink uint64
)

// calibRate runs one burst on a locked thread and returns its
// iterations per second of thread CPU time. CPU time, unlike wall
// time, stops while the guest scheduler runs the benchmark's own
// daemons on this vCPU, but keeps running while the host slows it.
func calibRate() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	var regs [16]uint64
	regs[1] = 12345
	pc := 0
	for i := 0; i < calibIters; i++ {
		ins := calibProg[pc]
		a, b, c := (ins>>4)&15, (ins>>8)&15, ins>>12
		pc++
		switch ins & 7 {
		case 0:
			regs[a] = regs[b] + regs[c&15]
		case 1:
			regs[a] = regs[b]*(regs[c&15]|1) + 1
		case 2:
			regs[a] = calibMem[(regs[b]+uint64(c))%calibMemLen]
		case 3:
			calibMem[(regs[b]^uint64(c))%calibMemLen] = regs[a]
		case 4:
			if regs[a]&1 == 0 {
				pc = int(c) % len(calibProg)
			}
		case 5:
			regs[a] = regs[b] ^ regs[c&15]>>3
		case 6:
			if regs[a] > regs[b] {
				regs[a], regs[b] = regs[b], regs[a]
			}
		default:
			regs[a] = uint64(c) + regs[b]<<1
		}
		if pc == len(calibProg) {
			pc = 0
		}
	}
	d := threadCPU() - t0
	calibSink += regs[0]
	if d <= 0 {
		return referenceRate
	}
	return calibIters / d.Seconds()
}

type speedSample struct {
	t    time.Time
	rate float64 // calibration iterations per CPU second
}

// hostSpeed samples the host's speed every 50 ms for the whole run.
type hostSpeed struct {
	mu      sync.Mutex
	samples []speedSample
	stop    chan struct{}
	done    chan struct{}
}

func startHostSpeed() *hostSpeed {
	h := &hostSpeed{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			r := calibRate()
			h.mu.Lock()
			h.samples = append(h.samples, speedSample{time.Now(), r})
			h.mu.Unlock()
			select {
			case <-tick.C:
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

// close stops the sampler and waits for it.
func (h *hostSpeed) close() {
	close(h.stop)
	<-h.done
}

// factor returns the host's mean speed over [from, to] relative to the
// reference: a raw duration times the factor is the duration at the
// reference speed. The nearest sample stands in when none falls inside.
func (h *hostSpeed) factor(from, to time.Time) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.samples)
	if n == 0 {
		return 1
	}
	lo := sort.Search(n, func(i int) bool { return !h.samples[i].t.Before(from) })
	hi := sort.Search(n, func(i int) bool { return h.samples[i].t.After(to) })
	if lo >= hi {
		lo = min(lo, n-1)
		hi = lo + 1
	}
	s := 0.0
	for _, x := range h.samples[lo:hi] {
		s += x.rate
	}
	return s / float64(hi-lo) / referenceRate
}
