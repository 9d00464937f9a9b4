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
// use.
func Drive(k *kernel.Kernel, src Source, record func(units.Ticks), send func()) {
	now := k.NowTicks()
	at, ok := src.Next()
	for ok && at <= now {
		at, ok = src.Next()
	}
	if !ok {
		return
	}
	var t *kernel.Timer
	t = k.NewTimer(func() {
		if record != nil {
			record(at)
		}
		send()
		prev := at
		var more bool
		at, more = src.Next()
		for more && at <= prev {
			at, more = src.Next()
		}
		if more {
			t.StartOneShot(at - k.NowTicks())
		}
	})
	t.StartOneShot(at - now)
}
