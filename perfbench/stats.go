package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder are the percentiles a tail metric may report, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// latency summarizes one latency sample set.
type latency struct {
	n       int
	p50     float64
	tail    float64
	tailPct float64
	beyond  int
}

// summarize returns the median and the tail: the highest ladder
// percentile with at least ten samples beyond it (the median when there
// are too few samples for any).
func summarize(xs []float64) latency { return summarizeUpTo(xs, 100) }

// summarizeUpTo is summarize with the tail capped at percentile maxPct,
// for workloads whose sample count varies around a ladder step: a tail
// that changed percentile from run to run would not be comparable.
func summarizeUpTo(xs []float64, maxPct float64) latency {
	if len(xs) == 0 {
		return latency{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	l := latency{n: n, p50: median(s)}
	for _, p := range tailLadder {
		if p > maxPct {
			continue
		}
		idx := int(math.Ceil(p/100*float64(n))) - 1
		if idx < 0 {
			idx = 0
		}
		if beyond := n - 1 - idx; beyond >= 10 || p == 50 {
			l.tail, l.tailPct, l.beyond = s[idx], p, beyond
			break
		}
	}
	return l
}

// note renders the sample count and which percentile the tail is.
func (l latency) note(name string) string {
	return fmt.Sprintf("%s is p%g of %d samples (%d beyond it)", name, l.tailPct, l.n, l.beyond)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// memPhase measures allocation and peak heap over a measured phase.
// Allocation counts come from runtime.ReadMemStats at both ends. The
// heap in use is sampled every 2 ms and its peak reported as the 99th
// percentile of the samples: the level the heap reaches before each
// collection, without the odd sample a delayed collection inflates.
type memPhase struct {
	start   runtime.MemStats
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // written by the sampler until done is closed
}

func startMem() *memPhase {
	m := &memPhase{stop: make(chan struct{}), done: make(chan struct{})}
	runtime.GC()
	runtime.ReadMemStats(&m.start)
	go m.sample()
	return m
}

func (m *memPhase) sample() {
	defer close(m.done)
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		m.samples = append(m.samples, float64(s[0].Value.Uint64()))
		select {
		case <-m.stop:
			return
		case <-tick.C:
		}
	}
}

// end stops the sampler and returns mallocs, bytes allocated and the
// peak heap in MB since startMem.
func (m *memPhase) end() (mallocs, bytes uint64, peakMB float64) {
	close(m.stop)
	<-m.done
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sort.Float64s(m.samples)
	peak := m.samples[(len(m.samples)-1)*99/100]
	return ms.Mallocs - m.start.Mallocs, ms.TotalAlloc - m.start.TotalAlloc, peak / (1 << 20)
}

// setMemory reports allocation per execution and the peak heap.
func setMemory(res *result, m *memPhase, execs int64) {
	mallocs, bytes, peak := m.end()
	res.set("allocs_per_exec", "count", ratio(float64(mallocs), float64(execs)))
	res.set("bytes_per_exec", "B", ratio(float64(bytes), float64(execs)))
	res.set("peak_heap_mb", "MB", peak)
	res.notef("allocs_per_exec and bytes_per_exec are per PUT execution (base: %d executions)", execs)
}

// timeSetup times setup and returns the value of its last call and the
// median time of one call in seconds. One call can take microseconds,
// near the clock's and the scheduler's noise, so each sample is the
// time of a batch of calls that together take at least setupBatchTime,
// divided by the batch size. Batches double until one is long enough;
// those calibration batches are not sampled. Each batch starts on a
// freshly collected heap, so a collection the previous batch left due
// does not land in it. At least setupMinSamples samples are taken, and
// more until setupMinTime has passed.
//
// discard, when not nil, releases a value before the next call, outside
// the timed region, so that one value at most is alive; each call is
// then timed on its own and the batch's time is their sum. It is for
// set-ups that hold outside resources, which would otherwise pile up
// within a batch and slow its later calls.
func timeSetup[T any](setup func() T, discard func(T)) (T, float64) {
	var (
		last  T
		have  bool
		batch = 1
	)
	// timed runs one batch and returns its time per call in seconds.
	timed := func(n int) float64 {
		runtime.GC()
		var d time.Duration
		if discard == nil {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				last = setup()
			}
			d = time.Since(t0)
		} else {
			for i := 0; i < n; i++ {
				if have {
					discard(last)
				}
				t0 := time.Now()
				last = setup()
				d += time.Since(t0)
				have = true
			}
		}
		return d.Seconds() / float64(n)
	}
	for timed(batch)*float64(batch) < setupBatchTime.Seconds() {
		batch *= 2
	}
	var ds []float64
	start := time.Now()
	for len(ds) < setupMinSamples || (time.Since(start) < setupMinTime && len(ds) < setupMaxSamples) {
		ds = append(ds, timed(batch))
	}
	return last, median(ds)
}

const (
	setupBatchTime  = 5 * time.Millisecond
	setupMinSamples = 11
	setupMaxSamples = 1001
	setupMinTime    = 500 * time.Millisecond
)
