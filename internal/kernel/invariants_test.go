package kernel

import (
	"testing"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/units"
)

// TestRandomWorkloadInvariants throws a randomized mix of timers, tasks, and
// interrupts at the kernel and checks global invariants of the produced
// log:
//
//  1. entry timestamps never decrease;
//  2. the CPU's power state strictly alternates ACTIVE <-> sleep;
//  3. every busy window starts and ends with the CPU activity at idle
//     (handlers restore whatever they preempted);
//  4. interrupts never overlap (non-reentrancy).
func TestRandomWorkloadInvariants(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		s := sim.New()
		dict := core.NewDictionary()
		k := New(s, 1, dict, Options{}, seed)
		sink := core.NewCollector()
		trk := core.NewTracker(core.Config{Node: 1, Clock: k, Meter: countingMeter{}, Cost: k, Sink: sink})
		k.Attach(trk)

		rng := sim.NewRNG(seed * 977)
		irqA := k.NewIRQ("int_A")
		irqB := k.NewIRQ("int_B")
		inHandler := 0

		k.Boot(func() {
			acts := []core.Label{
				k.DefineActivity("W1"),
				k.DefineActivity("W2"),
				k.DefineActivity("W3"),
			}
			for i := 0; i < 8; i++ {
				i := i
				tm := k.NewTimer(func() {
					k.Spend(units.Cycles(50 + rng.Intn(500)))
					if rng.Intn(2) == 0 {
						k.Post(func() { k.Spend(units.Cycles(30 + rng.Intn(200))) })
					}
				})
				k.CPUAct.Set(acts[i%len(acts)])
				tm.StartPeriodic(units.Ticks(30+rng.Intn(200)) * units.Millisecond)
			}
			k.CPUAct.SetIdle()
		})
		// A stream of random interrupts.
		var scheduleIRQ func()
		scheduleIRQ = func() {
			irq := irqA
			if rng.Intn(2) == 0 {
				irq = irqB
			}
			irq.RaiseAfter(units.Ticks(10+rng.Intn(90))*units.Millisecond, func() {
				inHandler++
				if inHandler != 1 {
					t.Errorf("seed %d: reentrant interrupt detected", seed)
				}
				k.Spend(units.Cycles(40 + rng.Intn(300)))
				inHandler--
				scheduleIRQ()
			})
		}
		scheduleIRQ()

		s.Run(5 * units.Second)

		// Invariant 1: monotonic timestamps.
		var prev uint32
		for i, e := range sink.Entries {
			if e.Time < prev {
				t.Fatalf("seed %d: entry %d time went backwards", seed, i)
			}
			prev = e.Time
		}
		// Invariant 2: CPU power state alternation.
		var lastPS core.PowerState = 0xFFFF
		for i, e := range sink.Entries {
			if e.Type != core.EntryPowerState || e.Res != power.ResCPU {
				continue
			}
			if e.State() == lastPS {
				t.Fatalf("seed %d: entry %d repeats CPU state %v", seed, i, lastPS)
			}
			lastPS = e.State()
		}
		// Invariant 3: the label in force whenever the CPU goes to sleep
		// must be idle.
		var curLabel core.Label
		for i, e := range sink.Entries {
			switch {
			case (e.Type == core.EntryActivitySet || e.Type == core.EntryActivityBind) && e.Res == power.ResCPU:
				curLabel = e.Label()
			case e.Type == core.EntryPowerState && e.Res == power.ResCPU && e.State() == power.CPUSleep:
				if i > 0 && !curLabel.IsIdle() {
					t.Fatalf("seed %d: CPU slept under %v at entry %d", seed, curLabel, i)
				}
			}
		}
		if len(sink.Entries) < 100 {
			t.Errorf("seed %d: suspiciously few entries (%d)", seed, len(sink.Entries))
		}
	}
}

// TestBusyWindowsDoNotOverlap reconstructs CPU busy windows from the log and
// asserts they are disjoint and ordered.
func TestBusyWindowsDoNotOverlap(t *testing.T) {
	s := sim.New()
	dict := core.NewDictionary()
	k := New(s, 1, dict, Options{}, 3)
	sink := core.NewCollector()
	trk := core.NewTracker(core.Config{Node: 1, Clock: k, Meter: countingMeter{}, Cost: k, Sink: sink})
	k.Attach(trk)
	k.Boot(func() {
		tm := k.NewTimer(func() { k.Spend(3000) })
		tm.StartPeriodic(10 * units.Millisecond)
		tm2 := k.NewTimer(func() { k.Spend(5000) })
		tm2.StartPeriodic(7 * units.Millisecond)
	})
	s.Run(2 * units.Second)

	type window struct{ start, end int64 }
	var windows []window
	var open *window
	for _, e := range sink.Entries {
		if e.Type != core.EntryPowerState || e.Res != power.ResCPU {
			continue
		}
		if e.State() == power.CPUActive {
			open = &window{start: int64(e.Time)}
		} else if open != nil {
			open.end = int64(e.Time)
			windows = append(windows, *open)
			open = nil
		}
	}
	for i := 1; i < len(windows); i++ {
		if windows[i].start < windows[i-1].end {
			t.Fatalf("busy windows %d and %d overlap: %+v %+v",
				i-1, i, windows[i-1], windows[i])
		}
	}
	if len(windows) < 100 {
		t.Errorf("only %d busy windows", len(windows))
	}
}
