package sim

import (
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
			fn(t, &Simulator{q: q.new()})
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
		if !e.Scheduled() {
			t.Fatal("event should be scheduled")
		}
		s.Cancel(e)
		if e.Scheduled() {
			t.Fatal("event should not be scheduled after cancel")
		}
		s.Run(100)
		if fired {
			t.Error("canceled event fired")
		}
		// Double-cancel and zero-handle cancel are no-ops.
		s.Cancel(e)
		s.Cancel(Handle{})
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
