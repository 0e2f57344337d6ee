package exec

import (
	"maps"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// locCache interns "file.go:line" strings by call-site program counter so
// that capturing an event's location costs one stack walk and one map
// lookup: the frame is symbolized only the first time a call site is seen.
// Reads load an immutable map with no lock; a miss copies the map under
// locMu and publishes the extended copy. The number of call sites is
// bounded by the PUT source, so the copies stop once every site has run.
var (
	locCache atomic.Pointer[map[uintptr]string]
	locMu    sync.Mutex
)

// callerLoc returns the source location ("file.go:123", base name only) of
// the caller skip frames above callerLoc itself. It is the engine's analogue
// of the paper's instruction address l in op(x)@l: PUT code gets stable,
// human-readable event locations with zero annotation burden.
//
// The cache key is the PC runtime.Callers reports for that frame. When the
// frame is an inlined call, the runtime reports the PC of the inline mark
// the compiler places at that call site (Go 1.21 and later), so every
// logical call site keeps a PC of its own and the key never conflates two
// source lines.
func callerLoc(skip int) string {
	var pcs [1]uintptr
	if runtime.Callers(skip+2, pcs[:]) < 1 {
		return "?"
	}
	if m := locCache.Load(); m != nil {
		if loc, hit := (*m)[pcs[0]]; hit {
			return loc
		}
	}
	return symbolizeLoc(pcs[0])
}

// symbolizeLoc builds the location string for pc and adds it to locCache.
func symbolizeLoc(pc uintptr) string {
	frame, _ := runtime.CallersFrames([]uintptr{pc}).Next()
	if frame.PC == 0 {
		return "?"
	}
	file := frame.File
	if i := strings.LastIndexByte(file, '/'); i >= 0 {
		file = file[i+1:]
	}
	loc := file + ":" + strconv.Itoa(frame.Line)

	locMu.Lock()
	defer locMu.Unlock()
	var old map[uintptr]string
	if m := locCache.Load(); m != nil {
		old = *m
	}
	if prev, hit := old[pc]; hit {
		return prev // another goroutine symbolized it first
	}
	next := make(map[uintptr]string, len(old)+1)
	maps.Copy(next, old)
	next[pc] = loc
	locCache.Store(&next)
	return loc
}
