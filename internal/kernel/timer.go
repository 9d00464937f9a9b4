package kernel

import (
	"cmp"
	"slices"

	"repro/internal/core"
	"repro/internal/units"
)

// Timer is a virtual timer multiplexed, with all others, onto one hardware
// compare register. Starting a timer captures the CPU's current activity;
// when the timer fires, the virtual timer dispatcher restores that activity
// before invoking the callback — the paper's "timers ... instrumented ... to
// automatically save and restore the CPU activity of scheduled timers".
type Timer struct {
	k        *Kernel
	fn       func()
	label    core.Label
	deadline units.Ticks
	period   units.Ticks
	seq      uint64 // creation order, which orders the armed list
	periodic bool
	running  bool
	listed   bool // in k.armed
}

// NewTimer creates a stopped timer that invokes fn on firing. The kernel
// keeps no reference to a timer until it is armed: the list the compare
// register is scheduled from holds only armed timers, in creation order,
// and drops each one once it has fired (one-shot) or been stopped. So an
// idle timer costs the scan nothing, and same-tick timers still fire in
// creation order: a timer made once and re-armed by every event keeps the
// rank it was made with.
func (k *Kernel) NewTimer(fn func()) *Timer {
	k.timerSeq++
	return &Timer{k: k, fn: fn, seq: k.timerSeq}
}

// StartOneShot arms the timer to fire once, d from now.
func (t *Timer) StartOneShot(d units.Ticks) { t.start(d, 0) }

// StartPeriodic arms the timer to fire every period, first in period from
// now.
func (t *Timer) StartPeriodic(period units.Ticks) { t.start(period, period) }

// StartPeriodicAfter arms the timer to fire every period, first in d from
// now — a phase-shifted StartPeriodic, so many nodes can share a period
// without all firing on the same tick.
func (t *Timer) StartPeriodicAfter(d, period units.Ticks) { t.start(d, period) }

func (t *Timer) start(d, period units.Ticks) {
	if d <= 0 {
		d = 1
	}
	t.label = t.k.CPUAct.Get()
	if t.k.running && t.label == t.k.timerIRQ.Proxy {
		// Timers armed from inside the raw timer interrupt belong to the
		// virtual-timer activity, not to the proxy.
		t.label = t.k.VTimerLabel
	}
	t.deadline = t.k.NowTicks() + d
	t.period = period
	t.periodic = period > 0
	t.running = true
	if !t.listed {
		t.k.list(t)
	}
	t.k.scheduleCompare()
}

// list inserts an armed timer into k.armed at its creation rank.
func (k *Kernel) list(t *Timer) {
	i, _ := slices.BinarySearchFunc(k.armed, t.seq, func(u *Timer, seq uint64) int {
		return cmp.Compare(u.seq, seq)
	})
	k.armed = slices.Insert(k.armed, i, t)
	t.listed = true
}

// Stop disarms the timer.
func (t *Timer) Stop() {
	t.running = false
	t.k.scheduleCompare()
}

// Running reports whether the timer is armed.
func (t *Timer) Running() bool { return t.running }

// Label returns the activity the timer will restore when it fires.
func (t *Timer) Label() core.Label { return t.label }

// scheduleCompare re-arms the hardware compare event for the earliest
// virtual timer deadline. The same walk drops the timers that fired or
// were stopped since the last one from the armed list.
func (k *Kernel) scheduleCompare() {
	var next units.Ticks = -1
	armed := k.armed[:0]
	for _, t := range k.armed {
		if !t.running {
			t.listed = false
			continue
		}
		armed = append(armed, t)
		if next < 0 || t.deadline < next {
			next = t.deadline
		}
	}
	clear(k.armed[len(armed):])
	k.armed = armed
	if next < 0 {
		if k.Sim.Scheduled(k.compareEvent) {
			k.Sim.Cancel(k.compareEvent)
		}
		return
	}
	if k.Sim.Scheduled(k.compareEvent) {
		if k.Sim.At(k.compareEvent) == next {
			return
		}
		k.Sim.Cancel(k.compareEvent)
	}
	if now := k.Sim.Now(); next < now {
		next = now
	}
	k.compareEvent = k.timerIRQ.Raise(next, k.vtimerFn)
}

// vtimerFired is the hardware timer interrupt handler: it runs under the
// int_TIMERB0 proxy, switches to the VTimer activity for dispatch
// bookkeeping, and yields to each expired timer's own activity in
// succession — the exact sequence visible in Figure 11(b).
func (k *Kernel) vtimerFired() {
	k.CPUAct.Set(k.VTimerLabel)
	k.Spend(costVTimerDispatch)
	now := k.Sim.Now()
	// Take the due timers out first: a callback that arms a timer inserts
	// it into k.armed, which must not shift under this walk. A timer armed
	// here falls due after now, so none can join the pass; one an earlier
	// callback stopped or re-armed is skipped below. vtimerFired runs only
	// as its own interrupt, never nested, so one scratch slice serves.
	due := k.due[:0]
	for _, t := range k.armed {
		if t.running && t.deadline <= now {
			due = append(due, t)
		}
	}
	for _, t := range due {
		if !t.running || t.deadline > now {
			continue
		}
		if t.periodic {
			for t.deadline <= now {
				t.deadline += t.period
			}
		} else {
			t.running = false
		}
		k.CPUAct.Set(t.label)
		k.Spend(costTimerFire)
		t.fn()
		k.CPUAct.Set(k.VTimerLabel)
	}
	clear(due)
	k.due = due[:0]
	k.scheduleCompare()
}

// Arbiter serializes access to a shared hardware resource (the paper's
// Arbiter abstraction from the ICEM driver architecture). It transfers the
// requester's activity label to the managed device on grant and back to
// idle on release.
type Arbiter struct {
	k      *Kernel
	dev    *core.SingleActivityDevice
	busy   bool
	owner  core.Label
	queue  []arbReq
	grants uint64
}

type arbReq struct {
	label   core.Label
	granted func()
}

// NewArbiter creates an arbiter guarding the device represented by dev (may
// be nil for a pure lock with no activity transfer).
func (k *Kernel) NewArbiter(dev *core.SingleActivityDevice) *Arbiter {
	return &Arbiter{k: k, dev: dev}
}

// Request asks for the resource; granted runs (as a task, under the
// requester's activity) once the resource is owned.
func (a *Arbiter) Request(granted func()) {
	label := a.k.CPUAct.Get()
	if a.busy {
		a.queue = append(a.queue, arbReq{label: label, granted: granted})
		return
	}
	a.grant(label, granted)
}

func (a *Arbiter) grant(label core.Label, granted func()) {
	a.busy = true
	a.owner = label
	a.grants++
	if a.dev != nil {
		a.dev.Set(label)
	}
	a.k.PostLabeled(label, func() {
		a.k.Spend(costArbiterGrant)
		granted()
	})
}

// Release relinquishes the resource and grants it to the next requester, if
// any.
func (a *Arbiter) Release() {
	if !a.busy {
		panic("kernel: arbiter release while free")
	}
	a.busy = false
	if a.dev != nil {
		a.dev.SetIdle()
	}
	if len(a.queue) > 0 {
		next := a.queue[0]
		a.queue = a.queue[1:]
		a.grant(next.label, next.granted)
	}
}

// Busy reports whether the resource is held.
func (a *Arbiter) Busy() bool { return a.busy }

// Owner returns the activity holding the resource.
func (a *Arbiter) Owner() core.Label { return a.owner }

// Grants returns the number of grants issued.
func (a *Arbiter) Grants() uint64 { return a.grants }
