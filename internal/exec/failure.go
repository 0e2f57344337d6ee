package exec

import (
	"fmt"
	"strconv"
)

// FailureKind classifies the bug oracles the engine reports, mirroring the
// paper's evaluation (assertion violations, deadlocks, memory-safety
// failures detected by a crash oracle).
type FailureKind uint8

const (
	// FailAssert is a violated Thread.Assert — the dominant bug class in
	// SCTBench (34/49 programs).
	FailAssert FailureKind = iota + 1
	// FailDeadlock is reported by the engine's built-in deadlock detector
	// when live threads remain but no pending event is enabled.
	FailDeadlock
	// FailMemory is a simulated memory-safety violation (use-after-free,
	// null dereference, double free) raised by Thread.FailMemory; it is
	// the stand-in for the segfault oracle on the ConVul CVE programs.
	FailMemory
	// FailPanic is a runtime panic escaping PUT code (e.g. an index out
	// of range in thread-local logic) — the analogue of a native crash.
	FailPanic
	// FailSendClosed is a send (or non-blocking send attempt) on a closed
	// channel — the Go runtime panic "send on closed channel", promoted
	// to its own kind because it is the signature channel-race bug class.
	FailSendClosed
	// FailCloseClosed is a close of an already-closed channel (Go's
	// "close of closed channel" panic).
	FailCloseClosed
)

var failureNames = [...]string{
	FailAssert:      "assertion violation",
	FailDeadlock:    "deadlock",
	FailMemory:      "memory-safety violation",
	FailPanic:       "panic",
	FailSendClosed:  "send on closed channel",
	FailCloseClosed: "close of closed channel",
}

// NumFailureKinds is the number of defined kinds (including the zero
// "unknown"); valid kinds are FailureKind(1) .. FailureKind(NumFailureKinds-1).
// Consumers that invert String (e.g. artifact decoding, triage) range
// over this instead of naming the last kind.
const NumFailureKinds = len(failureNames)

// String names the failure kind.
func (k FailureKind) String() string {
	if int(k) < len(failureNames) && failureNames[k] != "" {
		return failureNames[k]
	}
	return "unknown failure"
}

// Failure describes a bug manifestation in one execution.
type Failure struct {
	Kind   FailureKind
	Msg    string
	Thread ThreadID // thread that failed (0 for deadlock)
	Loc    string   // source location of the failing operation, if known
}

// Error implements the error interface so a Failure can flow through error
// plumbing in harnesses.
func (f *Failure) Error() string {
	if f.Loc != "" {
		return fmt.Sprintf("%s at %s (thread %d): %s", f.Kind, f.Loc, f.Thread, f.Msg)
	}
	return fmt.Sprintf("%s (thread %d): %s", f.Kind, f.Thread, f.Msg)
}

// Key is the failure's identity, "kind|t<thread>|loc|msg": the sharded
// merge deduplicates failures on it and conformance checks it for
// membership in a program's enumerated failure set. Every component is
// deterministic for a fixed schedule — kinds and locations trivially,
// messages because assert messages are rendered from the program and
// deadlock messages from the blocked threads' deterministic state.
func (f *Failure) Key() string {
	return f.Kind.String() + "|t" + strconv.Itoa(int(f.Thread)) + "|" + f.Loc + "|" + f.Msg
}
