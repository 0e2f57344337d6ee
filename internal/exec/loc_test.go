package exec

// The location contract: every implicit-location API records the
// "file.go:line" of its own call site, whether the call is written
// directly in the PUT, comes from a helper the compiler inlines, or sits
// in a closure — and a warmed call site costs no allocation.

import (
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"
)

// locProbe maps a case name to the location runtime.Caller(0) reported on
// the line of that case's API call.
type locProbe map[string]string

// probeAt passes v through while recording, under key, the location the
// runtime reports for the line it is evaluated on. Written as
// probeAt(want, key, arg)(runtime.Caller(0)) in an argument of the API
// call under test, the runtime's own line information for that call's
// line becomes the expected location.
func probeAt[T any](want locProbe, key string, v T) func(uintptr, string, int, bool) T {
	return func(pc uintptr, file string, line int, ok bool) T {
		want[key] = lineLoc(pc, file, line, ok)
		return v
	}
}

// lineLoc formats runtime.Caller's result the way callerLoc does.
func lineLoc(_ uintptr, file string, line int, _ bool) string {
	return filepath.Base(file) + ":" + strconv.Itoa(line)
}

// readVia is a helper small enough for the compiler to inline into its
// callers (go build -gcflags=-m reports "can inline readVia"). The reads
// it issues belong to its own line, not to its callers' lines.
func readVia(t *Thread, v *Var) int64 { return t.Read(v) }

// funcLoc returns the location of fn's declaration, which for a one-line
// function is also the line of every call in its body.
func funcLoc(fn any) string {
	pc := reflect.ValueOf(fn).Pointer()
	file, line := runtime.FuncForPC(pc).FileLine(pc)
	return lineLoc(pc, file, line, true)
}

func TestImplicitLocationsNameTheirCallSite(t *testing.T) {
	want := locProbe{}
	prog := func(t *Thread) {
		x := t.NewVar("x", 0)
		y := t.NewVar("y", 0)
		nv := t.NewVars(probeAt(want, "NewVars", "nv")(runtime.Caller(0)), 2, 0)
		t.Write(probeAt(want, "direct Write", x)(runtime.Caller(0)), 1)
		_ = t.Read(probeAt(want, "direct Read", x)(runtime.Caller(0)))
		_ = readVia(t, y)
		_ = readVia(t, y)
		w := t.Go("w", func(t *Thread) { t.Write(probeAt(want, "closure", y)(runtime.Caller(0)), 2) })
		r := t.Go("r", func(t *Thread) { _ = t.Read(nv[0]) })
		t.JoinAll(probeAt(want, "JoinAll", w)(runtime.Caller(0)), r)
		ch := t.NewChan("ch", 1)
		t.Select(probeAt(want, "Select", SendCase(ch, 7))(runtime.Caller(0)))
	}
	res := Run("loc", prog, Config{Scheduler: firstEnabled{}, Seed: 1})
	if res.Failure != nil {
		t.Fatalf("unexpected failure: %v", res.Failure)
	}
	want["helper"] = funcLoc(readVia)

	// Each case names the events its call must have produced.
	cases := []struct {
		key   string
		match func(Event) bool
		n     int
	}{
		{"NewVars", func(e Event) bool { return e.Op == OpVarInit && (e.VarStr == "nv[0]" || e.VarStr == "nv[1]") }, 2},
		{"direct Write", func(e Event) bool { return e.Op == OpWrite && e.VarStr == "x" }, 1},
		{"direct Read", func(e Event) bool { return e.Op == OpRead && e.VarStr == "x" }, 1},
		{"helper", func(e Event) bool { return e.Op == OpRead && e.VarStr == "y" }, 2},
		{"closure", func(e Event) bool { return e.Op == OpWrite && e.VarStr == "y" }, 1},
		{"JoinAll", func(e Event) bool { return e.Op == OpJoin }, 2},
		{"Select", func(e Event) bool { return e.Op == OpSend && e.VarStr == "ch" }, 1},
	}
	for _, c := range cases {
		exp, ok := want[c.key]
		if !ok {
			t.Fatalf("%s: probe never ran", c.key)
		}
		n := 0
		for _, e := range res.Trace.Events {
			if !c.match(e) {
				continue
			}
			n++
			if e.Loc != exp {
				t.Errorf("%s: event %v recorded at %s, want %s", c.key, e.Op, e.Loc, exp)
			}
		}
		if n != c.n {
			t.Errorf("%s: matched %d events, want %d", c.key, n, c.n)
		}
	}
}

// locHere returns callerLoc's answer for its caller's call site.
func locHere() string { return callerLoc(1) }

func TestCallerLocWarmSiteAllocatesNothing(t *testing.T) {
	site := func() string { return locHere() }
	if got := site(); got == "?" || got != site() {
		t.Fatalf("callerLoc gave %q, not a stable location", got)
	}
	if allocs := testing.AllocsPerRun(1000, func() { _ = site() }); allocs != 0 {
		t.Errorf("warmed callerLoc allocates %.1f times per call, want 0", allocs)
	}
}

// TestCallerLocConcurrentFirstCalls races goroutines on call sites that no
// other test calls, so their cache misses publish map copies concurrently.
func TestCallerLocConcurrentFirstCalls(t *testing.T) {
	sites := []func() (got, want string){
		func() (string, string) { return locHere(), lineLoc(runtime.Caller(0)) },
		func() (string, string) { return locHere(), lineLoc(runtime.Caller(0)) },
		func() (string, string) { return locHere(), lineLoc(runtime.Caller(0)) },
		func() (string, string) { return locHere(), lineLoc(runtime.Caller(0)) },
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range sites {
				if got, want := sites[(i+g)%len(sites)](); got != want {
					t.Errorf("goroutine %d: callerLoc gave %s, want %s", g, got, want)
				}
			}
		}(g)
	}
	wg.Wait()
}
