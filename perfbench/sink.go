package main

import (
	"sync"
	"sync/atomic"
	"time"

	"rff/internal/telemetry"
)

// kept are the histogram series whose individual observations the
// timing sink keeps; every other series is only forwarded.
var kept = map[string]bool{
	telemetry.MFleetCellDuration:   true,
	telemetry.MConformanceCoverage: true,
	telemetry.MShardMergeNS:        true,
}

// timedSink decorates a telemetry hub: it times every call the
// instrumented layers make into it, totals counters by name, keeps the
// observations of the kept series by their spec label. Bookkeeping
// happens outside the timed region.
type timedSink struct {
	hub   *telemetry.Hub
	calls atomic.Int64
	ns    atomic.Int64

	// cell, when set, is called with every fleet cell's spec label and
	// duration as the fleet reports it.
	cell func(spec string, d time.Duration)

	mu   sync.Mutex
	adds map[string]int64
	sets map[string]int64
	obs  map[string][]int64
}

func newTimedSink() *timedSink {
	return &timedSink{
		hub:  telemetry.NewHub(),
		adds: map[string]int64{},
		sets: map[string]int64{},
		obs:  map[string][]int64{},
	}
}

func (s *timedSink) done(t0 time.Time) {
	s.ns.Add(time.Since(t0).Nanoseconds())
	s.calls.Add(1)
}

func (s *timedSink) Add(name string, delta int64, labels ...telemetry.Label) {
	t0 := time.Now()
	s.hub.Add(name, delta, labels...)
	s.done(t0)
	s.mu.Lock()
	s.adds[name] += delta
	s.mu.Unlock()
}

func (s *timedSink) Set(name string, value int64, labels ...telemetry.Label) {
	t0 := time.Now()
	s.hub.Set(name, value, labels...)
	s.done(t0)
	s.mu.Lock()
	s.sets[name] = value
	s.mu.Unlock()
}

func (s *timedSink) Observe(name string, value int64, labels ...telemetry.Label) {
	t0 := time.Now()
	s.hub.Observe(name, value, labels...)
	s.done(t0)
	if !kept[name] {
		return
	}
	key, spec := name, ""
	for _, l := range labels {
		if l.Name == "spec" {
			spec = l.Value
			key += "/" + spec
		}
	}
	if s.cell != nil && name == telemetry.MFleetCellDuration {
		s.cell(spec, time.Duration(value)*time.Microsecond)
	}
	s.mu.Lock()
	s.obs[key] = append(s.obs[key], value)
	s.mu.Unlock()
}

func (s *timedSink) Emit(kind string, fields telemetry.Fields) {
	t0 := time.Now()
	s.hub.Emit(kind, fields)
	s.done(t0)
}

// observed returns the kept observations of a series, narrowed to one
// spec label when spec is not empty.
func (s *timedSink) observed(name, spec string) []int64 {
	if spec != "" {
		name += "/" + spec
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.obs[name]
}

// nsPerCall is the mean time per sink call, less the clock reads that
// timed it.
func (s *timedSink) nsPerCall(clockNS float64) float64 {
	n := float64(s.calls.Load())
	return ratio(float64(s.ns.Load())-n*clockNS, n)
}

// total returns the sum of every Add to a counter, across labels.
func (s *timedSink) total(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.adds[name]
}

// last returns the last value a gauge was set to, across labels.
func (s *timedSink) last(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sets[name]
}

// cellTimes is the untraced matrix's telemetry sink: it keeps the
// fleet's per-cell durations, in ms, and drops every other call.
type cellTimes struct {
	mu sync.Mutex
	ms []float64
}

func (c *cellTimes) Add(string, int64, ...telemetry.Label) {}
func (c *cellTimes) Set(string, int64, ...telemetry.Label) {}
func (c *cellTimes) Emit(string, telemetry.Fields)         {}

func (c *cellTimes) Observe(name string, value int64, _ ...telemetry.Label) {
	if name != telemetry.MFleetCellDuration {
		return
	}
	c.mu.Lock()
	c.ms = append(c.ms, float64(value)/1e3)
	c.mu.Unlock()
}
