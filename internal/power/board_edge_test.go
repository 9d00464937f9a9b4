package power

import (
	"testing"

	"repro/internal/core"
	"repro/internal/units"
)

// edgeRecorder records every CurrentChanged callback with a tag, so tests
// can assert both edge counts and cross-listener ordering.
type edgeRecorder struct {
	tag   string
	calls *[]string
	last  units.MicroAmps
	n     int
}

func (r *edgeRecorder) CurrentChanged(t units.Ticks, total units.MicroAmps) {
	r.n++
	r.last = total
	if r.calls != nil {
		*r.calls = append(*r.calls, r.tag)
	}
}

func edgeBoard() (*Board, DrawTable) {
	draws := DrawTable{
		{ResLED0, StateOn}: 1000,
		{ResLED1, StateOn}: 500,
	}
	now := func() units.Ticks { return 0 }
	return NewBoard(3.0, draws.Compile(), now), draws
}

func TestBoardReAddSinkSameStateNoSpuriousEdge(t *testing.T) {
	b, _ := edgeBoard()
	rec := &edgeRecorder{}
	b.AddSink(ResLED0, StateOn)
	b.Listen(rec) // Listen itself publishes once
	base := rec.n

	b.AddSink(ResLED0, StateOn) // re-register, same state
	if rec.n != base {
		t.Fatalf("re-adding a sink in the same state published %d spurious edges", rec.n-base)
	}
	b.AddSink(ResLED0, StateOff) // re-register, different state: real edge
	if rec.n != base+1 || rec.last != 0 {
		t.Fatalf("state-changing re-add: %d edges, last %v; want 1 edge to 0 uA", rec.n-base, rec.last)
	}
}

func TestBoardRepeatedStateChangeDeduped(t *testing.T) {
	b, _ := edgeBoard()
	rec := &edgeRecorder{}
	b.AddSink(ResLED0, StateOff)
	b.Listen(rec)
	base := rec.n

	b.PowerStateChanged(ResLED0, StateOff, StateOn)
	if rec.n != base+1 {
		t.Fatalf("real change published %d edges, want 1", rec.n-base)
	}
	// A driver re-signaling the state it is already in must not publish.
	b.PowerStateChanged(ResLED0, StateOn, StateOn)
	b.PowerStateChanged(ResLED0, StateOff, StateOn) // stale 'old', same 'now'
	if rec.n != base+1 {
		t.Fatalf("idempotent changes published %d spurious edges", rec.n-base-1)
	}
}

func TestBoardZeroDrawStates(t *testing.T) {
	b, _ := edgeBoard()
	rec := &edgeRecorder{}
	b.Listen(rec)
	base := rec.n

	// A state absent from the table draws zero but still registers and
	// publishes: the sink exists, its consumption is just nil.
	b.AddSink(ResLED2, StateOn) // no table entry
	if rec.n != base+1 {
		t.Fatalf("zero-draw sink registration published %d edges, want 1", rec.n-base)
	}
	if got := b.Current(); got != 0 {
		t.Fatalf("zero-draw total = %v, want 0", got)
	}
	// Transitioning between two zero-draw states is a real state change and
	// publishes a (value-unchanged) edge: listeners integrating over time
	// care about edges, not deltas.
	b.PowerStateChanged(ResLED2, StateOn, StateOff)
	if rec.n != base+2 {
		t.Fatalf("zero-draw transition published %d edges, want 2", rec.n-base)
	}
	if b.State(ResLED2) != StateOff {
		t.Fatalf("state not recorded: %v", b.State(ResLED2))
	}
}

func TestBoardListenerOrderingDeterministic(t *testing.T) {
	b, _ := edgeBoard()
	var calls []string
	first := &edgeRecorder{tag: "first", calls: &calls}
	second := &edgeRecorder{tag: "second", calls: &calls}
	third := &edgeRecorder{tag: "third", calls: &calls}
	b.Listen(first)
	b.Listen(second)
	b.Listen(third)
	calls = calls[:0]

	b.AddSink(ResLED0, StateOn)
	b.PowerStateChanged(ResLED0, StateOn, StateOff)
	want := []string{"first", "second", "third", "first", "second", "third"}
	if len(calls) != len(want) {
		t.Fatalf("calls = %v, want %v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("listener notification order %v, want registration order %v", calls, want)
		}
	}
}

func TestBoardSumsInResourceOrderRegardlessOfRegistration(t *testing.T) {
	// Two boards, sinks registered in opposite order, must agree exactly
	// (not just approximately — float addition order matters).
	b1, _ := edgeBoard()
	b1.AddSink(ResLED0, StateOn)
	b1.AddSink(ResLED1, StateOn)
	b2, _ := edgeBoard()
	b2.AddSink(ResLED1, StateOn)
	b2.AddSink(ResLED0, StateOn)
	if b1.Current() != b2.Current() {
		t.Fatalf("registration order changed the sum: %v vs %v", b1.Current(), b2.Current())
	}
	if b1.Current() != 1500 {
		t.Fatalf("total = %v, want 1500", b1.Current())
	}
}

func TestBoardShutdownSilencesPublishes(t *testing.T) {
	b, _ := edgeBoard()
	rec := &edgeRecorder{}
	b.AddSink(ResLED0, StateOn)
	b.Listen(rec)
	base := rec.n

	b.Shutdown()
	if rec.n != base+1 || rec.last != 0 {
		t.Fatalf("shutdown should publish exactly one zero edge; got %d edges, last %v", rec.n-base, rec.last)
	}
	b.Shutdown() // idempotent
	b.PowerStateChanged(ResLED0, StateOn, StateOff)
	b.AddSink(ResLED1, StateOn)
	if rec.n != base+1 {
		t.Fatalf("dead board published %d edges after shutdown", rec.n-base-1)
	}
	if b.Current() != 0 || !b.Dead() {
		t.Fatalf("dead board draws %v", b.Current())
	}
	// State bookkeeping continues (re-enabling analysis later would need
	// it), only publishing stops.
	if b.State(ResLED0) != StateOff {
		t.Fatalf("dead board dropped a state change")
	}
}

// TestBoardEdgeInvariantWithCore ties the dedup behaviour to the real wiring:
// a PowerStateVar already dedupes idempotent Sets, so the board sees only
// real edges from tracker-driven devices — but hardware models calling
// PowerStateChanged directly get the same guarantee from the board itself.
func TestBoardEdgeInvariantWithCore(t *testing.T) {
	b, _ := edgeBoard()
	rec := &edgeRecorder{}
	b.Listen(rec)
	base := rec.n
	var changes []core.PowerState
	for _, st := range []core.PowerState{StateOn, StateOn, StateOff, StateOff, StateOn} {
		b.PowerStateChanged(ResLED0, b.State(ResLED0), st)
		changes = append(changes, b.State(ResLED0))
	}
	// Five signals, three real transitions (Off->On the first time the sink
	// appears, On->Off, Off->On).
	if rec.n-base != 3 {
		t.Fatalf("published %d edges for 3 real transitions (states seen: %v)", rec.n-base, changes)
	}
}
