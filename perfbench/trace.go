package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// maxSpans caps the spans kept for the span file; aggregates keep
// counting past it.
const maxSpans = 100_000

// span is one recorded call into a layer.
type span struct {
	ID       int32  `json:"id"`
	Parent   int32  `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// spanAgg accumulates every span of one name.
type spanAgg struct {
	count int64
	total int64 // ns, as measured
	self  int64 // ns, minus children and corrected for clock reads
}

type frame struct {
	id       int32
	name     string
	start    int64
	childNS  int64
	children int64
}

// tracer records spans from one goroutine. A span's self time is its
// duration minus the part its children cover, corrected for the cost
// of the clock reads that measuring the children added.
type tracer struct {
	workload string
	origin   time.Time
	// clockNS is the measured cost of one clock read.
	clockNS float64
	spans   []span
	dropped int64
	nextID  int32
	stack   []frame
	agg     map[string]*spanAgg
	// clockReads counts reads taken for measurement.
	clockReads int64
	// mu guards spans, nextID and agg: record is called from other
	// goroutines while the owner has a span open.
	mu sync.Mutex
}

func newTracer(workload string) *tracer {
	return &tracer{
		workload: workload,
		origin:   time.Now(),
		clockNS:  clockCost(),
		agg:      map[string]*spanAgg{},
	}
}

// clockCost measures one monotonic clock read, the cheapest of a few
// batches.
func clockCost() float64 {
	const n = 50_000
	best := 0.0
	for b := 0; b < 5; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			_ = time.Now()
		}
		c := float64(time.Since(t0).Nanoseconds()) / n
		if b == 0 || c < best {
			best = c
		}
	}
	return best
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) {
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	t.clockReads++
	t.stack = append(t.stack, frame{id: id, name: name, start: t.now()})
}

// current returns the innermost open span's ID.
func (t *tracer) current() int32 { return t.stack[len(t.stack)-1].id }

// record adds a span that ran on another goroutine under parent. Such
// spans overlap, so they are not subtracted from the parent's self
// time; their own self time is their duration.
func (t *tracer) record(name string, parent int32, start, end time.Time) {
	s, e := int64(start.Sub(t.origin)), int64(end.Sub(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.fold(name, 1, e-s, e-s)
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{ID: t.nextID, Parent: parent, Name: name, Workload: t.workload, Start: s, End: e})
	} else {
		t.dropped++
	}
}

// end closes the innermost open span.
func (t *tracer) end() {
	end := t.now()
	t.clockReads++
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	dur := end - f.start
	var parent int32
	if len(t.stack) > 0 {
		p := &t.stack[len(t.stack)-1]
		parent = p.id
		p.childNS += dur
		p.children++
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fold(f.name, 1, dur, dur-f.childNS-int64(float64(f.children)*t.clockNS+t.clockNS))
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{ID: f.id, Parent: parent, Name: f.name, Workload: t.workload, Start: f.start, End: end})
	} else {
		t.dropped++
	}
}

// child folds n calls totalling ns, timed by the caller with two clock
// reads each, into the innermost open span as aggregated children.
func (t *tracer) child(name string, n, ns int64) {
	if n == 0 {
		return
	}
	t.clockReads += 2 * n
	p := &t.stack[len(t.stack)-1]
	p.childNS += ns
	p.children += n
	t.mu.Lock()
	t.fold(name, n, ns, ns-int64(float64(n)*t.clockNS))
	t.mu.Unlock()
}

func (t *tracer) fold(name string, n, total, self int64) {
	a := t.agg[name]
	if a == nil {
		a = &spanAgg{}
		t.agg[name] = a
	}
	a.count += n
	a.total += total
	a.self += self
}

// selfNS returns the corrected self time of every span named name.
func (t *tracer) selfNS(name string) int64 {
	if a := t.agg[name]; a != nil {
		return a.self
	}
	return 0
}

// totalNS returns the measured duration of every span named name.
func (t *tracer) totalNS(name string) int64 {
	if a := t.agg[name]; a != nil {
		return a.total
	}
	return 0
}

func (t *tracer) count(name string) int64 {
	if a := t.agg[name]; a != nil {
		return a.count
	}
	return 0
}

// coverage returns the share, in percent, of wallNS that the layers'
// spans explain: the self time of every span except the root's and the
// benchmark's own (bench.*), over the wall time less the benchmark's
// own spans and the clock reads spent measuring. The root span's self
// time is loop glue no layer span covers, so it lowers the share.
func (t *tracer) coverage(root string, wallNS float64) float64 {
	var layers float64
	own := float64(t.clockReads) * t.clockNS
	for name, a := range t.agg {
		switch {
		case name == root:
		case strings.HasPrefix(name, "bench."):
			own += float64(a.self)
		default:
			layers += float64(a.self)
		}
	}
	return ratio(layers, wallNS-own) * 100
}

// write saves the kept spans as JSON Lines under dir and returns the
// file's path.
func (t *tracer) write(dir string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", t.workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// writeSpans writes the span file and notes where it went.
func writeSpans(res *result, t *tracer, cfg config) {
	path, err := t.write(cfg.out, cfg.seed)
	if err != nil {
		res.notef("span file not written: %v", err)
		return
	}
	res.notef("spans: %d kept in %s (%d past the cap of %d counted only); clock read %.1f ns", len(t.spans), path, t.dropped, maxSpans, t.clockNS)
}
