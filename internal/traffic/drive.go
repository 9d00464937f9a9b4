package traffic

import (
	"repro/internal/kernel"
	"repro/internal/units"
)

// Drive arms src's schedule on the node's kernel: a self-rearming one-shot
// timer chain that calls send at every schedule tick. Entries at or before
// the kernel's current time are skipped — the node wasn't ready to send
// (typically: radio still booting), and a skipped entry is exactly what the
// recorder would not have captured, so record-then-replay round-trips.
//
// record (may be nil) observes every fire with its scheduled tick.
//
// Call Drive with the CPU bound to the activity the sends should be charged
// to: the kernel timer captures the current activity when armed and restores
// it at every fire, the same instrumentation path fixed-period app timers
// use. Each fire arms the next tick before it calls send, so whatever
// activity send switches the CPU to, the next fire restores the armed one.
func Drive(k *kernel.Kernel, src Source, record func(units.Ticks), send func()) {
	// next returns the schedule's first tick strictly after the given one.
	next := func(after units.Ticks) (units.Ticks, bool) {
		at, ok := src.Next()
		for ok && at <= after {
			at, ok = src.Next()
		}
		return at, ok
	}
	at, ok := next(k.NowTicks())
	if !ok {
		return
	}
	var t *kernel.Timer
	t = k.NewTimer(func() {
		fired := at
		if at, ok = next(fired); ok {
			t.StartOneShot(at - k.NowTicks())
		}
		if record != nil {
			record(fired)
		}
		send()
	})
	t.StartOneShot(at - k.NowTicks())
}
