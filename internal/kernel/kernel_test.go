package kernel

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/units"
)

// testNode builds a kernel with a collector-backed tracker and a fake meter.
func testNode(t *testing.T, opts Options) (*sim.Simulator, *Kernel, *core.Collector) {
	t.Helper()
	s := sim.New()
	dict := core.NewDictionary()
	k := New(s, 1, dict, opts, 7)
	sink := core.NewCollector()
	trk := core.NewTracker(core.Config{
		Node:  1,
		Clock: k,
		Meter: countingMeter{},
		Cost:  k,
		Sink:  sink,
	})
	k.Attach(trk)
	return s, k, sink
}

type countingMeter struct{}

func (countingMeter) ReadPulses() uint32 { return 0 }

func TestBootRunsInHandlerContext(t *testing.T) {
	s, k, _ := testNode(t, Options{})
	ran := false
	k.Boot(func() {
		ran = true
		if !k.Running() {
			t.Error("boot should run in handler context")
		}
		k.Spend(100)
	})
	s.Run(units.Second)
	if !ran {
		t.Fatal("boot did not run")
	}
	if k.Running() {
		t.Error("kernel still running after boot")
	}
}

func TestCPUSleepsAfterWork(t *testing.T) {
	s, k, sink := testNode(t, Options{})
	k.Boot(func() { k.Spend(500) })
	s.Run(units.Second)
	// The last CPU power-state entry must be the sleep state.
	var last core.Entry
	for _, e := range sink.Entries {
		if e.Type == core.EntryPowerState && e.Res == power.ResCPU {
			last = e
		}
	}
	if last.State() != power.CPUSleep {
		t.Errorf("final CPU state = %v, want LPM3", last.State())
	}
	if k.CPUState.State() != power.CPUSleep {
		t.Errorf("CPU state var = %v", k.CPUState.State())
	}
}

func TestPostSavesAndRestoresActivity(t *testing.T) {
	s, k, _ := testNode(t, Options{})
	act := k.DefineActivity("App")
	var taskLabel core.Label
	k.Boot(func() {
		k.CPUAct.Set(act)
		k.Post(func() {
			taskLabel = k.CPUAct.Get()
		})
		k.CPUAct.SetIdle()
	})
	s.Run(units.Second)
	if taskLabel != act {
		t.Errorf("task ran under %v, want %v (scheduler must restore the posting activity)", taskLabel, act)
	}
}

func TestPostFIFOOrder(t *testing.T) {
	s, k, _ := testNode(t, Options{})
	var order []int
	k.Boot(func() {
		for i := 0; i < 5; i++ {
			i := i
			k.Post(func() { order = append(order, i) })
		}
	})
	s.Run(units.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("task order = %v, want FIFO", order)
		}
	}
}

func TestPostFromIdleContextWakesCPU(t *testing.T) {
	s, k, _ := testNode(t, Options{})
	ran := false
	// Post directly from outside any handler (e.g. assembly code).
	k.PostLabeled(k.IdleLabel(), func() { ran = true })
	s.Run(units.Second)
	if !ran {
		t.Error("posted task never ran")
	}
}

func TestTimerOneShot(t *testing.T) {
	s, k, _ := testNode(t, Options{})
	var firedAt units.Ticks
	k.Boot(func() {
		tm := k.NewTimer(func() { firedAt = k.NowTicks() })
		tm.StartOneShot(10 * units.Millisecond)
	})
	s.Run(units.Second)
	// The callback runs ~1 ms after the hardware deadline: interrupt
	// dispatch, activity bookkeeping, and the 102-cycle log writes all
	// consume CPU time first.
	if firedAt < 10*units.Millisecond || firedAt > 12*units.Millisecond {
		t.Errorf("fired at %v, want 10-12ms", firedAt)
	}
}

func TestTimerPeriodicRate(t *testing.T) {
	s, k, _ := testNode(t, Options{})
	count := 0
	k.Boot(func() {
		tm := k.NewTimer(func() { count++ })
		tm.StartPeriodic(100 * units.Millisecond)
	})
	s.Run(units.Second)
	if count < 9 || count > 10 {
		t.Errorf("fired %d times in 1 s at 100 ms, want 9-10", count)
	}
}

func TestTimerStop(t *testing.T) {
	s, k, _ := testNode(t, Options{})
	count := 0
	var tm *Timer
	k.Boot(func() {
		tm = k.NewTimer(func() {
			count++
			if count == 3 {
				tm.Stop()
			}
		})
		tm.StartPeriodic(50 * units.Millisecond)
	})
	s.Run(units.Second)
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
	if tm.Running() {
		t.Error("timer should be stopped")
	}
}

// TestTimerListHoldsOnlyArmedTimers chains 1 000 one-shots, each created
// and armed from the previous one's callback, as an app that made a timer
// per event would. The scan list never holds more than the timer firing
// and the one it arms, and is empty at the end; a list of every timer ever
// created would hold all 1 000.
func TestTimerListHoldsOnlyArmedTimers(t *testing.T) {
	const n = 1000
	s, k, _ := testNode(t, Options{})
	fired, most := 0, 0
	var arm func()
	arm = func() {
		k.NewTimer(func() {
			fired++
			if fired < n {
				arm()
			}
			most = max(most, len(k.armed))
		}).StartOneShot(units.Millisecond)
	}
	k.Boot(arm)
	s.Run(10 * units.Second)
	if fired != n {
		t.Fatalf("%d of %d chained one-shots fired", fired, n)
	}
	if most > 2 || len(k.armed) != 0 {
		t.Errorf("scan list held up to %d timers and %d at the end, want at most 2 and 0", most, len(k.armed))
	}
}

// TestTimerArmedDuringPass fires T1, T3, T4 and T5 on one tick. T1's
// callback stops T5 and re-arms the idle T2, which ranks between T1 and T3
// in the armed list. T1, T3 and T4 must fire in creation order (inserting
// into the list being walked would push T4 past the end of the walk), T5
// must be skipped, and T2 must fire at its new deadline.
func TestTimerArmedDuringPass(t *testing.T) {
	s, k, _ := testNode(t, Options{})
	var order []string
	var t2, t5 *Timer
	var t2Due, t2Fired units.Ticks
	log := func(name string) func() { return func() { order = append(order, name) } }
	t1 := k.NewTimer(func() {
		order = append(order, "T1")
		t5.Stop()
		t2Due = k.NowTicks() + 5*units.Millisecond
		t2.StartOneShot(5 * units.Millisecond)
	})
	t2 = k.NewTimer(func() { order = append(order, "T2"); t2Fired = s.Now() })
	t3, t4 := k.NewTimer(log("T3")), k.NewTimer(log("T4"))
	t5 = k.NewTimer(log("T5"))
	k.Boot(func() {
		t2.StartOneShot(units.Millisecond)
		t2.Stop()
		for _, tm := range []*Timer{t1, t3, t4, t5} {
			tm.StartOneShot(units.Millisecond)
		}
	})
	s.Run(units.Second)
	if t1.deadline != t4.deadline || t1.deadline != t5.deadline {
		t.Fatalf("deadlines %v, %v, %v differ: the timers must fall due on one tick", t1.deadline, t4.deadline, t5.deadline)
	}
	if got := strings.Join(order, " "); got != "T1 T3 T4 T2" {
		t.Errorf("fired %q, want \"T1 T3 T4 T2\"", got)
	}
	if t2Fired != t2Due {
		t.Errorf("re-armed T2 fired at %v, want its new deadline %v", t2Fired, t2Due)
	}
}

func TestTimerCarriesActivity(t *testing.T) {
	s, k, _ := testNode(t, Options{})
	act := k.DefineActivity("Red")
	var fireLabel core.Label
	k.Boot(func() {
		tm := k.NewTimer(func() { fireLabel = k.CPUAct.Get() })
		k.CPUAct.Set(act)
		tm.StartOneShot(5 * units.Millisecond)
		k.CPUAct.SetIdle()
	})
	s.Run(units.Second)
	if fireLabel != act {
		t.Errorf("timer fired under %v, want %v", fireLabel, act)
	}
}

func TestMultipleTimersShareCompare(t *testing.T) {
	s, k, _ := testNode(t, Options{})
	var fires []string
	k.Boot(func() {
		a := k.NewTimer(func() { fires = append(fires, "a") })
		b := k.NewTimer(func() { fires = append(fires, "b") })
		a.StartPeriodic(30 * units.Millisecond)
		b.StartPeriodic(70 * units.Millisecond)
	})
	s.Run(210 * units.Millisecond)
	// a at 30,60,90,120,150,180,210(±); b at 70,140,210(±).
	na, nb := 0, 0
	for _, f := range fires {
		if f == "a" {
			na++
		} else {
			nb++
		}
	}
	if na < 6 || nb < 2 {
		t.Errorf("fires: a=%d b=%d (%v)", na, nb, fires)
	}
}

func TestIRQProxyPaintsCPU(t *testing.T) {
	s, k, sink := testNode(t, Options{})
	irq := k.NewIRQ("int_TEST")
	var seen core.Label
	irq.Raise(10*units.Millisecond, func() {
		seen = k.CPUAct.Get()
	})
	s.Run(units.Second)
	if seen != irq.Proxy {
		t.Errorf("handler ran under %v, want proxy %v", seen, irq.Proxy)
	}
	// The proxy label must be registered as a proxy in the dictionary.
	if !k.Dict.IsProxy(irq.Proxy) {
		t.Error("IRQ proxy not marked in dictionary")
	}
	// And an activity entry for the proxy must be in the log.
	found := false
	for _, e := range sink.Entries {
		if e.Type == core.EntryActivitySet && core.Label(e.Val) == irq.Proxy {
			found = true
		}
	}
	if !found {
		t.Error("no activity entry for the proxy")
	}
}

func TestIRQDeferredWhileBusy(t *testing.T) {
	s, k, _ := testNode(t, Options{})
	irq := k.NewIRQ("int_TEST")
	var irqAt units.Ticks
	k.Boot(func() {
		// Busy from boot (t~0) for 50 ms of CPU time.
		irq.Raise(10*units.Millisecond, func() { irqAt = k.NowTicks() })
		k.Spend(units.Cycles(50 * units.Millisecond))
	})
	s.Run(units.Second)
	if irqAt < 50*units.Millisecond {
		t.Errorf("interrupt ran at %v, inside the busy window (non-reentrancy violated)", irqAt)
	}
}

func TestSpendOutsideHandlerPanics(t *testing.T) {
	_, k, _ := testNode(t, Options{})
	defer func() {
		if recover() == nil {
			t.Error("Spend outside handler should panic")
		}
	}()
	k.Spend(10)
}

func TestNowTicksMonotonic(t *testing.T) {
	s, k, sink := testNode(t, Options{})
	k.Boot(func() {
		tm := k.NewTimer(func() { k.Spend(2000) })
		tm.StartPeriodic(10 * units.Millisecond)
	})
	s.Run(300 * units.Millisecond)
	var prev uint32
	for i, e := range sink.Entries {
		if e.Time < prev {
			t.Fatalf("entry %d time %d < previous %d", i, e.Time, prev)
		}
		prev = e.Time
	}
}

func TestDCOCalibrationRate(t *testing.T) {
	s, k, sink := testNode(t, Options{CalibrateDCO: true})
	k.Boot(func() {})
	s.Run(2 * units.Second)
	var target core.Label
	for l, name := range k.Dict.Activities {
		if name == "int_TIMERA1" {
			target = l
		}
	}
	count := 0
	for _, e := range sink.Entries {
		if e.Type == core.EntryActivitySet && core.Label(e.Val) == target {
			count++
		}
	}
	if count < 31 || count > 33 {
		t.Errorf("DCO calibration fired %d times in 2 s, want ~32 (16 Hz)", count)
	}
}

func TestArbiterSerializesAndTransfersLabels(t *testing.T) {
	s, k, _ := testNode(t, Options{})
	dev := core.NewSingleActivityDevice(k.Trk, power.ResSensor)
	arb := k.NewArbiter(dev)
	actA := k.DefineActivity("A")
	actB := k.DefineActivity("B")

	var order []string
	var devDuringA, devDuringB core.Label
	k.Boot(func() {
		k.CPUAct.Set(actA)
		arb.Request(func() {
			order = append(order, "A")
			devDuringA = dev.Get()
			// Hold the resource; B must wait.
			tm := k.NewTimer(func() { arb.Release() })
			tm.StartOneShot(20 * units.Millisecond)
		})
		k.CPUAct.Set(actB)
		arb.Request(func() {
			order = append(order, "B")
			devDuringB = dev.Get()
			arb.Release()
		})
		k.CPUAct.SetIdle()
	})
	s.Run(units.Second)
	if len(order) != 2 || order[0] != "A" || order[1] != "B" {
		t.Fatalf("grant order = %v", order)
	}
	if devDuringA != actA || devDuringB != actB {
		t.Errorf("device labels = %v/%v, want %v/%v", devDuringA, devDuringB, actA, actB)
	}
	if arb.Busy() {
		t.Error("arbiter should be free at the end")
	}
	if arb.Grants() != 2 {
		t.Errorf("grants = %d", arb.Grants())
	}
}

func TestArbiterReleaseWhileFreePanics(t *testing.T) {
	_, k, _ := testNode(t, Options{})
	arb := k.NewArbiter(nil)
	defer func() {
		if recover() == nil {
			t.Error("release while free should panic")
		}
	}()
	arb.Release()
}

func TestChargeCyclesExtendsBusyWindow(t *testing.T) {
	s, k, _ := testNode(t, Options{})
	var before, after units.Ticks
	k.Boot(func() {
		before = k.NowTicks()
		k.ChargeCycles(102)
		after = k.NowTicks()
	})
	s.Run(units.Second)
	if after-before != 102 {
		t.Errorf("charge advanced clock by %v, want 102", after-before)
	}
}

func TestDefineActivityNamesAndIDs(t *testing.T) {
	_, k, _ := testNode(t, Options{})
	a := k.DefineActivity("First")
	b := k.DefineActivity("Second")
	if a == b {
		t.Error("activities must be distinct")
	}
	if a.Origin() != 1 || b.Origin() != 1 {
		t.Error("origin must be the node id")
	}
	if k.Dict.LabelName(a) != "1:First" {
		t.Errorf("name = %q", k.Dict.LabelName(a))
	}
}
