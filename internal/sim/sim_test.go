package sim

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/units"
)

// queues names the two queue implementations the tests pin side by side.
var queues = []struct {
	name string
	new  func() queue
}{
	{"wheel", func() queue { return newWheel() }},
	{"heap", func() queue { return newHeapQueue() }},
}

// eachQueue runs a subtest against both queue implementations, so every
// ordering/lifecycle contract is pinned for the wheel and the reference
// heap alike.
func eachQueue(t *testing.T, fn func(t *testing.T, s *Simulator)) {
	t.Helper()
	for _, q := range queues {
		t.Run(q.name, func(t *testing.T) {
			fn(t, newSimulator(q.new()))
		})
	}
}

func TestScheduleOrdering(t *testing.T) {
	eachQueue(t, func(t *testing.T, s *Simulator) {
		var got []int
		s.Schedule(30, PrioTask, func() { got = append(got, 3) })
		s.Schedule(10, PrioTask, func() { got = append(got, 1) })
		s.Schedule(20, PrioTask, func() { got = append(got, 2) })
		s.Run(100)
		if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
			t.Errorf("order = %v, want [1 2 3]", got)
		}
		if s.Now() != 100 {
			t.Errorf("Now = %v, want 100 (horizon)", s.Now())
		}
	})
}

func TestPriorityTieBreak(t *testing.T) {
	eachQueue(t, func(t *testing.T, s *Simulator) {
		var got []string
		s.Schedule(10, PrioTask, func() { got = append(got, "task") })
		s.Schedule(10, PrioHardware, func() { got = append(got, "hw") })
		s.Schedule(10, PrioIRQ, func() { got = append(got, "irq") })
		s.Run(10)
		want := []string{"hw", "irq", "task"}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("order = %v, want %v", got, want)
			}
		}
	})
}

func TestSequenceTieBreakIsFIFO(t *testing.T) {
	eachQueue(t, func(t *testing.T, s *Simulator) {
		var got []int
		for i := 0; i < 10; i++ {
			i := i
			s.Schedule(5, PrioTask, func() { got = append(got, i) })
		}
		s.Run(5)
		for i := 0; i < 10; i++ {
			if got[i] != i {
				t.Fatalf("order = %v, want FIFO", got)
			}
		}
	})
}

func TestCancel(t *testing.T) {
	eachQueue(t, func(t *testing.T, s *Simulator) {
		fired := false
		e := s.Schedule(10, PrioTask, func() { fired = true })
		if !s.Scheduled(e) {
			t.Fatal("event should be scheduled")
		}
		if s.At(e) != 10 {
			t.Fatalf("At = %v, want 10", s.At(e))
		}
		s.Cancel(e)
		if s.Scheduled(e) {
			t.Fatal("event should not be scheduled after cancel")
		}
		s.Run(100)
		if fired {
			t.Error("canceled event fired")
		}
		// Double-cancel and zero-handle cancel are no-ops.
		s.Cancel(e)
		s.Cancel(Handle{})
		if s.Scheduled(Handle{}) || s.At(Handle{}) != 0 {
			t.Error("the zero Handle should read as already fired")
		}
	})
}

func TestCancelMiddleOfQueue(t *testing.T) {
	eachQueue(t, func(t *testing.T, s *Simulator) {
		var got []int
		var events []Handle
		for i := 0; i < 20; i++ {
			i := i
			events = append(events, s.Schedule(units.Ticks(10+i), PrioTask, func() { got = append(got, i) }))
		}
		// Cancel the odd ones.
		for i := 1; i < 20; i += 2 {
			s.Cancel(events[i])
		}
		s.Run(1000)
		if len(got) != 10 {
			t.Fatalf("fired %d, want 10: %v", len(got), got)
		}
		for _, v := range got {
			if v%2 != 0 {
				t.Errorf("odd event %d fired after cancel", v)
			}
		}
	})
}

func TestSchedulingInPastPanics(t *testing.T) {
	eachQueue(t, func(t *testing.T, s *Simulator) {
		s.Schedule(50, PrioTask, func() {})
		s.Run(50)
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		s.Schedule(10, PrioTask, func() {})
	})
}

func TestNilFunctionPanics(t *testing.T) {
	eachQueue(t, func(t *testing.T, s *Simulator) {
		defer func() {
			if recover() == nil {
				t.Error("nil fn should panic")
			}
		}()
		s.Schedule(10, PrioTask, nil)
	})
}

func TestRunHorizonExcludesLaterEvents(t *testing.T) {
	eachQueue(t, func(t *testing.T, s *Simulator) {
		fired := 0
		s.Schedule(10, PrioTask, func() { fired++ })
		s.Schedule(20, PrioTask, func() { fired++ })
		n := s.Run(15)
		if n != 1 || fired != 1 {
			t.Errorf("dispatched %d/%d, want 1", n, fired)
		}
		if s.Pending() != 1 {
			t.Errorf("pending = %d, want 1", s.Pending())
		}
		// Resume to finish.
		s.Run(30)
		if fired != 2 {
			t.Errorf("fired = %d, want 2", fired)
		}
	})
}

func TestEventAtBoundaryIncluded(t *testing.T) {
	eachQueue(t, func(t *testing.T, s *Simulator) {
		fired := false
		s.Schedule(15, PrioTask, func() { fired = true })
		s.Run(15)
		if !fired {
			t.Error("event exactly at horizon should fire")
		}
	})
}

func TestHalt(t *testing.T) {
	eachQueue(t, func(t *testing.T, s *Simulator) {
		count := 0
		for i := 1; i <= 10; i++ {
			s.Schedule(units.Ticks(i), PrioTask, func() {
				count++
				if count == 3 {
					s.Halt()
				}
			})
		}
		s.Run(100)
		if count != 3 {
			t.Errorf("count = %d, want 3 (halted)", count)
		}
	})
}

func TestStep(t *testing.T) {
	eachQueue(t, func(t *testing.T, s *Simulator) {
		n := 0
		s.Schedule(5, PrioTask, func() { n++ })
		s.Schedule(6, PrioTask, func() { n++ })
		if !s.Step() || n != 1 || s.Now() != 5 {
			t.Fatalf("after first step: n=%d now=%v", n, s.Now())
		}
		if !s.Step() || n != 2 {
			t.Fatalf("after second step: n=%d", n)
		}
		if s.Step() {
			t.Error("Step on empty queue should report false")
		}
	})
}

func TestRescheduleFromHandler(t *testing.T) {
	eachQueue(t, func(t *testing.T, s *Simulator) {
		var times []units.Ticks
		var tick func()
		tick = func() {
			times = append(times, s.Now())
			if len(times) < 5 {
				s.After(10, PrioTask, tick)
			}
		}
		s.Schedule(0, PrioTask, tick)
		s.Run(1000)
		if len(times) != 5 {
			t.Fatalf("fired %d times, want 5", len(times))
		}
		for i, at := range times {
			if at != units.Ticks(i*10) {
				t.Errorf("fire %d at %v, want %v", i, at, i*10)
			}
		}
	})
}

// TestResetMatchesNew: a reset simulator runs a workload as a new one does —
// the same callbacks at the same times in the same order, under the same
// handle indices — after a run that grew the pool past its first block,
// left events pending on every wheel level, in the lanes and in the
// overflow heap, and halted. The pool keeps its blocks but no callback of
// the earlier run, and every handle of the earlier run goes stale.
func TestResetMatchesNew(t *testing.T) {
	// script schedules events across every wheel level and the overflow,
	// cancels every fourth, and adds one that a handler schedules for its
	// own tick; it returns each handle's index, then each dispatch.
	script := func(s *Simulator) []string {
		var out []string
		rec := func(id int) func() {
			return func() { out = append(out, fmt.Sprintf("%d@%d", id, s.Now())) }
		}
		for i := 0; i < 2*poolBlock; i++ {
			h := s.Schedule(Ticks(i*7919%1000)<<(i%52), Priority(i%5*5-10), rec(i))
			out = append(out, fmt.Sprint(h.idx))
			if i%4 == 3 {
				s.Cancel(h)
			}
		}
		s.Schedule(3, PrioIRQ, func() { s.After(0, PrioHardware, rec(-1)) })
		n := s.Run(math.MaxInt64)
		return append(out, fmt.Sprintf("ran %d, now %d", n, s.Now()))
	}
	for _, q := range queues {
		t.Run(q.name, func(t *testing.T) {
			s := newSimulator(q.new())
			var stale []Handle
			for i := 0; i < 3*poolBlock; i++ {
				stale = append(stale, s.Schedule(Ticks(i)<<(i%50), Priority(i%3*10-10), func() {}))
			}
			s.Schedule(5, PrioTask, s.Halt)
			s.Run(1 << 20)
			if !s.halted || s.Pending() == 0 {
				t.Fatalf("set-up: halted %v with %d pending, want a halt with events pending", s.halted, s.Pending())
			}
			blocks := len(s.p.pay)

			s.Reset()
			if s.Now() != 0 || s.seq != 0 || s.halted || s.Pending() != 0 {
				t.Errorf("after Reset: now %d, seq %d, halted %v, %d pending; want all zero",
					s.Now(), s.seq, s.halted, s.Pending())
			}
			if len(s.p.pay) != blocks {
				t.Errorf("after Reset the pool holds %d blocks, want the %d it grew", len(s.p.pay), blocks)
			}
			for b, blk := range s.p.pay {
				for i, pl := range blk {
					if pl.fn != nil || pl.arg != nil {
						t.Fatalf("after Reset, event %d still holds its callback", b<<poolShift|i)
					}
				}
			}
			for _, h := range stale {
				if s.Scheduled(h) {
					t.Fatalf("handle to event %d is still scheduled after Reset", h.idx)
				}
			}
			if got, want := script(s), script(newSimulator(q.new())); !slices.Equal(got, want) {
				t.Errorf("reset simulator ran the script unlike a new one:\n%v\nwant\n%v", got, want)
			}
		})
	}
}
