package sim

import (
	"math/rand"
	"testing"

	"repro/internal/units"
)

// TestCancelFromWithinCallback pins that a handler may cancel a same-tick
// sibling that has not fired yet: the sibling must not run even though it was
// already promoted into the ready set when the tick began.
func TestCancelFromWithinCallback(t *testing.T) {
	eachQueue(t, func(t *testing.T, s *Simulator) {
		var got []string
		var victim Handle
		s.Schedule(10, PrioTask, func() {
			got = append(got, "killer")
			s.Cancel(victim)
		})
		victim = s.Schedule(10, PrioTask, func() { got = append(got, "victim") })
		s.Schedule(10, PrioTask, func() { got = append(got, "after") })
		s.Run(100)
		if len(got) != 2 || got[0] != "killer" || got[1] != "after" {
			t.Errorf("order = %v, want [killer after]", got)
		}
	})
}

// TestSameTickCancelReschedule pins cancel-then-reschedule at the current
// instant: the replacement gets a fresh sequence number, so it runs after
// every event already queued for that tick.
func TestSameTickCancelReschedule(t *testing.T) {
	eachQueue(t, func(t *testing.T, s *Simulator) {
		var got []string
		var victim Handle
		s.Schedule(10, PrioTask, func() {
			got = append(got, "first")
			s.Cancel(victim)
			victim = s.Schedule(10, PrioTask, func() { got = append(got, "replacement") })
		})
		victim = s.Schedule(10, PrioTask, func() { got = append(got, "victim") })
		s.Schedule(10, PrioTask, func() { got = append(got, "second") })
		s.Run(100)
		want := []string{"first", "second", "replacement"}
		if len(got) != len(want) {
			t.Fatalf("got %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("got %v, want %v", got, want)
			}
		}
	})
}

// TestStaleHandleAfterReuse pins that a handle kept past its event's firing
// stays inert even after the pool hands the same Event object to a new
// schedule: cancel through the old handle must not kill the new event.
func TestStaleHandleAfterReuse(t *testing.T) {
	s := New() // pooling is wheel-specific
	firedOld := false
	old := s.Schedule(1, PrioTask, func() { firedOld = true })
	s.Run(1)
	if !firedOld || old.Scheduled() {
		t.Fatal("first event should have fired and gone stale")
	}
	// The wheel's free list now holds the old Event; the next schedule
	// reuses it.
	firedNew := false
	fresh := s.Schedule(10, PrioTask, func() { firedNew = true })
	s.Cancel(old) // stale: must be a no-op
	if !fresh.Scheduled() {
		t.Fatal("stale cancel killed a recycled event")
	}
	if old.At() != 0 {
		t.Errorf("stale At = %v, want 0", old.At())
	}
	s.Run(100)
	if !firedNew {
		t.Error("recycled event did not fire")
	}
}

// TestRescheduleSameTickFromHandler pins that a handler scheduling new work
// at the *current* tick gets it dispatched within the same tick, in
// (priority, sequence) order relative to other pending same-tick events.
func TestRescheduleSameTickFromHandler(t *testing.T) {
	eachQueue(t, func(t *testing.T, s *Simulator) {
		var got []string
		s.Schedule(10, PrioTask, func() {
			got = append(got, "a")
			s.Schedule(10, PrioHardware, func() { got = append(got, "hw-late") })
			s.Schedule(10, PrioTask, func() { got = append(got, "task-late") })
		})
		s.Schedule(10, PrioTask, func() { got = append(got, "b") })
		s.Run(100)
		// hw-late was scheduled after "a" started, so it cannot preempt
		// "b" (sequence order within... no: priority dominates). hw-late
		// has PrioHardware < PrioTask, so it runs before "b".
		want := []string{"a", "hw-late", "b", "task-late"}
		if len(got) != len(want) {
			t.Fatalf("got %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("got %v, want %v", got, want)
			}
		}
	})
}

// TestLevelBoundaries exercises delays that land exactly at and around the
// wheel's level boundaries (256, 65536, ... ticks) plus the far-future
// overflow region, checking firing times against the heap oracle implicitly
// via exact expectations.
func TestLevelBoundaries(t *testing.T) {
	eachQueue(t, func(t *testing.T, s *Simulator) {
		delays := []Ticks{
			0, 1, 255, 256, 257,
			65535, 65536, 65537,
			1 << 24, 1<<24 + 1,
			1 << 32, 1 << 40, 1 << 47,
			1 << 48, 1<<48 + 12345, // overflow region
			1 << 55,
		}
		fires := map[Ticks]int{}
		for _, d := range delays {
			d := d
			s.Schedule(d, PrioTask, func() {
				if s.Now() != d {
					t.Errorf("event for %d fired at %v", d, s.Now())
				}
				fires[d]++
			})
		}
		s.Run(1 << 56)
		for _, d := range delays {
			if fires[d] != 1 {
				t.Errorf("delay %d fired %d times, want 1", d, fires[d])
			}
		}
	})
}

// TestCascadeWithInterleavedSchedules drives the cursor across multiple
// cascades while handlers keep scheduling short- and long-range follow-ups,
// the pattern the kernel's DCO + virtual-timer pair produces.
func TestCascadeWithInterleavedSchedules(t *testing.T) {
	eachQueue(t, func(t *testing.T, s *Simulator) {
		var fired int
		var tick func()
		tick = func() {
			fired++
			if fired < 2000 {
				// Mix of short hops and level-crossing hops.
				d := Ticks(37)
				if fired%7 == 0 {
					d = 300
				}
				if fired%41 == 0 {
					d = 70000
				}
				s.After(d, PrioTask, tick)
			}
		}
		s.Schedule(0, PrioTask, tick)
		s.Run(1 << 40)
		if fired != 2000 {
			t.Errorf("fired = %d, want 2000", fired)
		}
	})
}

// TestScheduleAfterPartialRun pins the limit-gating contract: Run(until)
// leaves the clock at until, and a subsequent schedule at exactly until (or
// slightly later) must be accepted and fire — the wheel must never have
// advanced its cursor past the horizon while peeking.
func TestScheduleAfterPartialRun(t *testing.T) {
	eachQueue(t, func(t *testing.T, s *Simulator) {
		s.Schedule(1_000_000, PrioTask, func() {}) // far future, forces peeks
		s.Run(500)
		if s.Now() != 500 {
			t.Fatalf("Now = %v, want 500", s.Now())
		}
		fired := false
		s.Schedule(500, PrioTask, func() { fired = true })
		s.Run(600)
		if !fired {
			t.Error("event at horizon boundary lost")
		}
		// And again, across a level boundary.
		s.Run(65_000)
		ok := false
		s.Schedule(65_000, PrioTask, func() { ok = true })
		s.Run(70_000)
		if !ok {
			t.Error("event after level-crossing partial run lost")
		}
	})
}

// TestWheelHeapRandomizedEquivalence runs an identical randomized
// schedule/cancel workload through the wheel and the heap and requires the
// two dispatch logs to match exactly. This is the queue-level differential
// test; the scenario-level one (trace bytes across apps) lives in
// internal/scenario.
func TestWheelHeapRandomizedEquivalence(t *testing.T) {
	type logEntry struct {
		at Ticks
		id int
	}
	run := func(q queue, seed int64) []logEntry {
		rng := rand.New(rand.NewSource(seed))
		s := &Simulator{q: q}
		var log []logEntry
		var live []Handle
		id := 0
		var spawn func(depth int) // schedules one random event
		spawn = func(depth int) {
			id++
			me := id
			var d Ticks
			switch rng.Intn(10) {
			case 0: // same tick
				d = 0
			case 1: // far future
				d = Ticks(rng.Int63n(1 << 50))
			default:
				d = Ticks(rng.Int63n(100000))
			}
			prio := []Priority{PrioHardware, PrioIRQ, PrioTask}[rng.Intn(3)]
			h := s.AfterArg(d, prio, func(arg any) {
				log = append(log, logEntry{at: s.Now(), id: arg.(int)})
				if depth < 3 && rng.Intn(3) == 0 {
					spawn(depth + 1)
				}
				if len(live) > 0 && rng.Intn(4) == 0 {
					s.Cancel(live[rng.Intn(len(live))])
				}
			}, me)
			live = append(live, h)
		}
		for i := 0; i < 500; i++ {
			spawn(0)
		}
		// Random cancels before running.
		for i := 0; i < 100; i++ {
			s.Cancel(live[rng.Intn(len(live))])
		}
		// Run in stages to exercise the limit gate.
		s.Run(1000)
		s.Run(100000)
		s.Run(1 << 51)
		return log
	}
	for seed := int64(1); seed <= 5; seed++ {
		wheel := run(newWheel(), seed)
		heap := run(newHeapQueue(), seed)
		if len(wheel) != len(heap) {
			t.Fatalf("seed %d: wheel fired %d events, heap %d", seed, len(wheel), len(heap))
		}
		for i := range wheel {
			if wheel[i] != heap[i] {
				t.Fatalf("seed %d: divergence at %d: wheel %+v heap %+v", seed, i, wheel[i], heap[i])
			}
		}
	}
}

// TestPoolSteadyStateZeroAlloc verifies the headline pooling claim: a
// self-rescheduling workload in steady state performs zero allocations per
// event on the wheel.
func TestPoolSteadyStateZeroAlloc(t *testing.T) {
	s := New()
	var tick func(any)
	n := 0
	tick = func(any) {
		n++
		s.AfterArg(10, PrioTask, tick, nil)
	}
	s.ScheduleArg(0, PrioTask, tick, nil)
	s.Run(10_000) // warm up: arena blocks allocated, free list primed
	start := s.Now()
	allocs := testing.AllocsPerRun(100, func() {
		s.Run(s.Now() + 1000)
	})
	if allocs != 0 {
		t.Errorf("steady-state allocs per 100-event batch = %v, want 0", allocs)
	}
	_ = start
	if n == 0 {
		t.Fatal("workload did not run")
	}
}

func TestPendingCounts(t *testing.T) {
	eachQueue(t, func(t *testing.T, s *Simulator) {
		var hs []Handle
		for i := 0; i < 50; i++ {
			hs = append(hs, s.Schedule(units.Ticks(i*1000), PrioTask, func() {}))
		}
		if s.Pending() != 50 {
			t.Fatalf("pending = %d, want 50", s.Pending())
		}
		for i := 0; i < 10; i++ {
			s.Cancel(hs[i*3])
		}
		if s.Pending() != 40 {
			t.Fatalf("pending = %d, want 40", s.Pending())
		}
		s.Run(20_000)
		s.Run(1 << 30)
		if s.Pending() != 0 {
			t.Fatalf("pending = %d, want 0", s.Pending())
		}
	})
}
