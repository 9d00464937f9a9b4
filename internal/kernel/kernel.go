// Package kernel implements a TinyOS-like mote operating system on top of
// the discrete-event simulator: run-to-completion tasks, non-reentrant
// interrupts, virtual timers multiplexed on a hardware compare timer, and a
// resource arbiter.
//
// It is instrumented exactly where the paper instruments TinyOS
// (Section 3.3 / Table 5):
//
//   - the scheduler saves the current CPU activity when a task is posted and
//     restores it before the task runs;
//   - every interrupt source owns a static proxy activity; dispatch paints
//     the CPU with the proxy until the handler can bind the real activity;
//   - the virtual timer subsystem saves and restores the activity of each
//     scheduled timer;
//   - the arbiter transfers activity labels to and from the device it
//     guards.
//
// Execution/time model: a handler (interrupt or task batch) starts at the
// simulator's current time and advances a node-local clock as code charges
// CPU cycles with Spend. Power-state and activity changes are logged at that
// local clock, so events within one wake-up appear in sequence with real
// durations, exactly as in the paper's fine-grained timelines (Figure 11b).
// The CPU is marked ACTIVE for the whole wake window and interrupts that
// arrive while it is busy are deferred to the end of the window
// (TinyOS on the MSP430 has no reentrant interrupts).
package kernel

import (
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/units"
)

// Cycle costs of kernel code paths, at 1 MHz (1 cycle = 1 us), chosen so
// the Blink experiment lands near the paper's measured CPU duty cycle of
// 0.178% with logging responsible for ~71% of active CPU time (Table 4).
const (
	costIRQEnter       units.Cycles = 90  // interrupt prologue/epilogue
	costTaskDispatch   units.Cycles = 55  // scheduler pop + jump
	costVTimerDispatch units.Cycles = 260 // virtual timer bookkeeping per hardware fire
	costTimerFire      units.Cycles = 180 // per expired virtual timer
	costArbiterGrant   units.Cycles = 60  // arbiter queue handling
	costDCOCalibration units.Cycles = 130 // one DCO calibration pass
)

// SleepState is the low-power mode the CPU drops into when idle (LPM3).
const SleepState = power.CPUSleep

// Options configures a Kernel.
type Options struct {
	// CalibrateDCO enables the digital-oscillator calibration interrupt
	// that fires 16 times per second whether or not anybody needs it — the
	// surprising behaviour Quanto exposed in Figure 15. TinyOS shipped with
	// it always on; here it defaults to off so the other experiments'
	// traces match the paper's logs, and the TimerBug case study re-enables
	// it to recreate the figure.
	CalibrateDCO bool
}

type task struct {
	fn    func()
	label core.Label
}

// Kernel is the operating system instance of one node.
type Kernel struct {
	Sim  *sim.Simulator
	Trk  *core.Tracker
	Dict *core.Dictionary

	// CPUState exposes the processor's power state (ACTIVE / LPMx).
	CPUState *core.PowerStateVar
	// CPUAct is the processor's current activity — the label source and
	// destination for all propagation.
	CPUAct *core.SingleActivityDevice

	node core.NodeID
	opts Options

	localNow  units.Ticks
	busyUntil units.Ticks
	running   bool
	dead      bool

	// tasks is a drain-in-place queue: exit() walks it by index instead of
	// re-slicing, and resets it once empty so the backing array is reused.
	tasks    []task
	taskHead int

	// pumpFn / vtimerFn are the recurring scheduler callbacks, created once
	// so the idle-post and compare-timer hot paths never allocate closures.
	pumpFn   func()
	vtimerFn func()

	nextActID core.ActivityID

	// armed lists the armed virtual timers in creation order (see
	// NewTimer); due is vtimerFired's scratch list of expired ones.
	armed        []*Timer
	due          []*Timer
	timerSeq     uint64
	compareEvent sim.Handle
	timerIRQ     *IRQ

	dcoIRQ *IRQ

	// irqs is the block NewIRQ carves interrupt sources from, so a node's
	// IRQs cost the garbage collector one object, not one each. A full
	// block is left to the IRQs in it and a new one started, so an IRQ
	// never moves.
	irqs []IRQ

	VTimerLabel core.Label

	rng *sim.RNG
}

// New creates a kernel for node id on simulator s. Call Attach with the
// node's tracker before scheduling any work.
func New(s *sim.Simulator, node core.NodeID, dict *core.Dictionary, opts Options, seed uint64) *Kernel {
	k := &Kernel{
		Sim:       s,
		Dict:      dict,
		node:      node,
		opts:      opts,
		nextActID: 2, // 0 = Idle, 1 = VTimer
		// Pre-size the task queue: boot posts on a fresh kernel must not
		// each grow a tiny slice (the queue rarely holds more than a few
		// entries, and drain keeps the capacity).
		tasks: make([]task, 0, 8),
		rng:   sim.NewRNG(seed ^ (uint64(node) << 32)),
	}
	k.pumpFn = k.pumped
	k.vtimerFn = k.vtimerFired
	return k
}

// Node returns the node id.
func (k *Kernel) Node() core.NodeID { return k.node }

// RNG returns the node's deterministic random stream (used for backoff).
func (k *Kernel) RNG() *sim.RNG { return k.rng }

// Attach wires the kernel to the node's tracker, creating the CPU's power
// state and activity devices and starting the background DCO calibration
// timer if configured.
func (k *Kernel) Attach(trk *core.Tracker) {
	k.Trk = trk
	k.CPUState = core.NewPowerStateVar(trk, power.ResCPU, SleepState)
	k.CPUAct = core.NewSingleActivityDevice(trk, power.ResCPU)
	k.VTimerLabel = core.MkLabel(k.node, core.ActVTimer)
	k.Dict.NameActivity(k.node, core.ActVTimer, "VTimer")
	k.Dict.NameActivity(k.node, core.ActIdle, "Idle")
	k.timerIRQ = k.NewIRQ("int_TIMERB0")
	if k.opts.CalibrateDCO {
		k.dcoIRQ = k.NewIRQ("int_TIMERA1")
		k.scheduleDCO(units.Ticks(62_500)) // 16 Hz
	}
}

func (k *Kernel) scheduleDCO(period units.Ticks) {
	var fire func()
	fire = func() {
		if k.dead {
			return // stop self-rescheduling once the node browned out
		}
		k.dispatchIRQ(k.dcoIRQ, func() {
			k.Spend(costDCOCalibration)
		})
		k.Sim.After(period, sim.PrioIRQ, fire)
	}
	k.Sim.Schedule(k.Sim.Now()+period, sim.PrioIRQ, fire)
}

// DefineActivity allocates a fresh node-scoped activity and registers its
// name; this is the application API for creating resource principals.
func (k *Kernel) DefineActivity(name string) core.Label {
	id := k.nextActID
	k.nextActID++
	k.Dict.NameActivity(k.node, id, name)
	return core.MkLabel(k.node, id)
}

// IdleLabel returns this node's idle label.
func (k *Kernel) IdleLabel() core.Label { return core.MkLabel(k.node, core.ActIdle) }

// NowTicks returns the node's effective time: the local handler clock while
// code is running, otherwise the later of the global simulator time and the
// end of the last busy window (a handler's local clock may run slightly
// past the simulator event that started it; node-local time must never move
// backwards). The board and meter use it so that energy integration follows
// the CPU's fine-grained progress.
func (k *Kernel) NowTicks() units.Ticks {
	if k.running {
		return k.localNow
	}
	if now := k.Sim.Now(); now > k.busyUntil {
		return now
	}
	return k.busyUntil
}

// NowMicros implements core.Clock.
func (k *Kernel) NowMicros() uint32 { return uint32(k.NowTicks()) }

// ChargeCycles implements core.CostAccount: Quanto's own logging cost lands
// on the CPU just like application work. Charges arriving while the CPU is
// idle (boot-time instrumentation) are recorded by the tracker's statistics
// but do not create a phantom busy window.
func (k *Kernel) ChargeCycles(n uint32) {
	if k.running {
		k.localNow += units.Ticks(n)
	}
}

// Spend consumes n CPU cycles at the current point of execution. It is the
// simulation stand-in for actual computation.
func (k *Kernel) Spend(n units.Cycles) {
	if !k.running {
		panic("kernel: Spend outside handler context")
	}
	k.localNow += n.Duration()
}

// Running reports whether the CPU is currently executing a handler.
func (k *Kernel) Running() bool { return k.running }

// Kill permanently halts the kernel, modeling a brownout: the task queue is
// dropped, the pending hardware compare event is canceled, and every future
// interrupt dispatch, task post, or boot becomes a no-op. There is no
// resurrection — a depleted node stays dark for the rest of the run.
func (k *Kernel) Kill() {
	k.dead = true
	k.tasks = nil
	k.taskHead = 0
	if k.Sim.Scheduled(k.compareEvent) {
		k.Sim.Cancel(k.compareEvent)
	}
}

// Dead reports whether the kernel has been killed.
func (k *Kernel) Dead() bool { return k.dead }

// enter opens a CPU busy window at the current simulator time (or at the end
// of the previous window if it extends past it).
func (k *Kernel) enter() {
	t := k.Sim.Now()
	if k.busyUntil > t {
		t = k.busyUntil
	}
	k.localNow = t
	k.running = true
	k.CPUState.Set(power.CPUActive)
}

// exit drains the task queue, returns the CPU to its idle activity, and puts
// it to sleep.
func (k *Kernel) exit() {
	for k.taskHead < len(k.tasks) {
		t := k.tasks[k.taskHead]
		k.tasks[k.taskHead] = task{} // drop the closure reference
		k.taskHead++
		k.CPUAct.Set(t.label)
		k.Spend(costTaskDispatch)
		t.fn()
	}
	k.tasks = k.tasks[:0]
	k.taskHead = 0
	k.CPUAct.SetIdle()
	k.CPUState.Set(SleepState)
	k.busyUntil = k.localNow
	k.running = false
}

// Post enqueues fn as a task, saving the current CPU activity so the
// scheduler can restore it when the task runs (the paper's scheduler
// instrumentation). Posting from idle context schedules a wake-up.
func (k *Kernel) Post(fn func()) {
	k.PostLabeled(k.CPUAct.Get(), fn)
}

// PostLabeled enqueues fn to run under an explicit activity label. Queue
// instrumentation (e.g. protocol forwarding queues) uses it to store and
// restore the activity associated with a queue entry.
func (k *Kernel) PostLabeled(label core.Label, fn func()) {
	if k.dead {
		return
	}
	k.tasks = append(k.tasks, task{fn: fn, label: label})
	if !k.running {
		k.pump()
	}
}

// ScheduleDrain implements core.Drainer: the drain work becomes a regular
// task under the self-accounting label, so Quanto's own logging shows up in
// the profile like any other activity.
func (k *Kernel) ScheduleDrain(label core.Label, cycles uint32, work func()) {
	k.PostLabeled(label, func() {
		k.Spend(units.Cycles(cycles))
		work()
	})
}

func (k *Kernel) pump() {
	at := k.Sim.Now()
	if k.busyUntil > at {
		at = k.busyUntil
	}
	k.Sim.Schedule(at, sim.PrioTask, k.pumpFn)
}

// pumped is the wake-up event body (k.pumpFn).
func (k *Kernel) pumped() {
	if k.running || k.dead {
		return // a concurrent wake-up already drained the queue
	}
	if k.Sim.Now() < k.busyUntil {
		k.pump()
		return
	}
	if k.taskHead >= len(k.tasks) {
		return
	}
	k.enter()
	k.exit()
}

// Boot runs fn at time zero in handler context under the idle activity; node
// assembly and application wiring happen inside it.
func (k *Kernel) Boot(fn func()) {
	k.Sim.Schedule(k.Sim.Now(), sim.PrioTask, func() {
		if k.dead {
			return
		}
		if k.running {
			panic("kernel: boot while running")
		}
		k.enter()
		fn()
		k.exit()
	})
}

// IRQ is one interrupt source with its statically assigned proxy activity
// (Section 3.3: "we statically assign to each interrupt handling routine a
// fixed proxy activity").
type IRQ struct {
	k     *Kernel
	Proxy core.Label

	// dispatch is the shared Raise callback: the handler rides along as the
	// event argument (func values are pointer-shaped, so boxing one into an
	// `any` does not allocate), keeping interrupt scheduling closure-free.
	dispatch func(any)
}

// NewIRQ defines an interrupt source; name, which the dictionary keeps as
// the proxy label's name, appears in timelines ("int_TIMERB0", "pxy_RX",
// ...). The proxy label is registered as such in the dictionary so
// accounting knows bind entries may reassign its usage.
func (k *Kernel) NewIRQ(name string) *IRQ {
	label := k.DefineActivity(name)
	k.Dict.MarkProxy(label)
	if len(k.irqs) == cap(k.irqs) {
		k.irqs = make([]IRQ, 0, 8)
	}
	k.irqs = k.irqs[:len(k.irqs)+1]
	irq := &k.irqs[len(k.irqs)-1]
	*irq = IRQ{k: k, Proxy: label}
	irq.dispatch = func(handler any) {
		irq.k.dispatchIRQ(irq, handler.(func()))
	}
	return irq
}

// Raise schedules the interrupt to fire at absolute time at. The returned
// event can be canceled while pending.
func (irq *IRQ) Raise(at units.Ticks, handler func()) sim.Handle {
	return irq.k.Sim.ScheduleArg(at, sim.PrioIRQ, irq.dispatch, handler)
}

// RaiseAfter schedules the interrupt d ticks from now.
func (irq *IRQ) RaiseAfter(d units.Ticks, handler func()) sim.Handle {
	return irq.Raise(irq.k.Sim.Now()+d, handler)
}

// dispatchIRQ runs an interrupt handler: wake the CPU if needed, paint it
// with the proxy activity, run the handler, restore the previous activity,
// then let the scheduler drain any tasks the handler posted.
func (k *Kernel) dispatchIRQ(irq *IRQ, handler func()) {
	if k.dead {
		return // an unpowered CPU takes no interrupts
	}
	if k.running || k.Sim.Now() < k.busyUntil {
		// CPU busy: the interrupt line stays asserted until the current
		// window closes (non-reentrant interrupts).
		at := k.busyUntil
		if t := k.Sim.Now(); t > at {
			at = t
		}
		k.Sim.ScheduleArg(at, sim.PrioIRQ, irq.dispatch, handler)
		return
	}
	k.enter()
	prev := k.CPUAct.Get()
	k.CPUAct.Set(irq.Proxy)
	k.Spend(costIRQEnter)
	handler()
	k.CPUAct.Set(prev)
	k.exit()
}
