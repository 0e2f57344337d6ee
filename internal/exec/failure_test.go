package exec

import "testing"

func TestFailureKey(t *testing.T) {
	cases := []struct {
		name string
		f    Failure
		want string
	}{
		{"assert", Failure{Kind: FailAssert, Msg: "x == 1", Thread: 2, Loc: "t1.check"},
			"assertion violation|t2|t1.check|x == 1"},
		{"deadlock", Failure{Kind: FailDeadlock, Msg: "threads 1, 2 blocked"},
			"deadlock|t0||threads 1, 2 blocked"},
		{"send on closed channel", Failure{Kind: FailSendClosed, Msg: "send on closed channel", Thread: 13, Loc: "prod.send"},
			"send on closed channel|t13|prod.send|send on closed channel"},
	}
	for _, c := range cases {
		if got := c.f.Key(); got != c.want {
			t.Errorf("%s: Key() = %q, want %q", c.name, got, c.want)
		}
	}
	// Distinct threads, locations and messages give distinct keys.
	a := Failure{Kind: FailAssert, Thread: 1, Loc: "l", Msg: "m"}
	for _, b := range []Failure{
		{Kind: FailPanic, Thread: 1, Loc: "l", Msg: "m"},
		{Kind: FailAssert, Thread: 11, Loc: "l", Msg: "m"},
		{Kind: FailAssert, Thread: 1, Loc: "l2", Msg: "m"},
		{Kind: FailAssert, Thread: 1, Loc: "l", Msg: "m2"},
	} {
		if a.Key() == b.Key() {
			t.Errorf("%+v and %+v share key %q", a, b, a.Key())
		}
	}
}
