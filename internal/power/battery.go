package power

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/units"
)

// HorizonForever is the segment horizon a Harvester returns when its output
// never changes again.
const HorizonForever units.Ticks = math.MaxInt64

// Harvester is a piecewise-constant energy income source (solar panel,
// thermoelectric generator, RF scavenger). CurrentAt returns the harvested
// current in effect at time t and the first instant at which that output may
// change (HorizonForever if it never does). The piecewise-constant contract
// is what lets the Battery integrate charge exactly and compute depletion
// crossings in closed form, keeping lifetime simulations deterministic.
type Harvester interface {
	CurrentAt(t units.Ticks) (ua units.MicroAmps, until units.Ticks)
}

// ConstantHarvester supplies a fixed current forever (a bench supply, or the
// mean income of a stable light source).
type ConstantHarvester units.MicroAmps

// CurrentAt implements Harvester.
func (c ConstantHarvester) CurrentAt(units.Ticks) (units.MicroAmps, units.Ticks) {
	return units.MicroAmps(c), HorizonForever
}

// PeriodicHarvester supplies UA during the first On of every Period and
// nothing for the rest — a square-wave day/night or duty-cycled source.
// Phase shifts the wave: the "day" of cycle k spans
// [k*Period+Phase, k*Period+Phase+On).
type PeriodicHarvester struct {
	UA     units.MicroAmps
	Period units.Ticks
	On     units.Ticks
	Phase  units.Ticks
}

// CurrentAt implements Harvester.
func (p PeriodicHarvester) CurrentAt(t units.Ticks) (units.MicroAmps, units.Ticks) {
	if p.Period <= 0 || p.On <= 0 {
		return 0, HorizonForever
	}
	on := p.On
	if on > p.Period {
		on = p.Period
	}
	rel := (t - p.Phase) % p.Period
	if rel < 0 {
		rel += p.Period
	}
	cycle := t - rel // start of the containing cycle
	if rel < on {
		return p.UA, cycle + on
	}
	return 0, cycle + p.Period
}

// maxProjectSegments bounds how many harvester segments one depletion
// projection walks before deferring to a re-check event. A node whose income
// beats its draw would otherwise make the projection loop forever.
const maxProjectSegments = 128

// Battery models a finite charge reservoir between the harvester and the
// board. It implements CurrentListener: the Board publishes every aggregate
// draw change, and the battery integrates net charge (draw minus harvest)
// between those events, exactly like the iCount meter integrates energy.
// Charge is capped at capacity (a full battery sheds surplus income) and
// clamped at zero.
//
// When the integrated charge crosses zero the battery computes the exact
// crossing instant in closed form — draw is constant between board events and
// harvest is piecewise constant by contract — and schedules a simulator event
// at that instant to fire the OnDepleted callback. Depletion therefore
// interleaves deterministically with every other simulated event, which is
// what lets a node's death change network behavior mid-run instead of being
// discovered after the fact.
type Battery struct {
	capUC    float64 // capacity in microcoulombs
	chargeUC float64
	epsUC    float64   // crossing tolerance against float rounding
	harv     Harvester // nil: no income

	s      *sim.Simulator
	lastT  units.Ticks
	drawUA units.MicroAmps

	depleted bool
	notified bool
	diedAt   units.Ticks
	check    sim.Handle

	// checkFn / notifyFn are the check-event callbacks, built once so the
	// per-edge re-projection path does not allocate a fresh closure every
	// time the board's draw changes.
	checkFn  func()
	notifyFn func()

	onDepleted func(at units.Ticks)
}

// MicroCoulombsPerMicroAmpHour converts battery capacity units: one µAh of
// charge is 3600 µC.
const MicroCoulombsPerMicroAmpHour = 3600.0

// NewBattery returns a full battery of capacityUAH microamp-hours drained
// through simulator s. harv may be nil for a pure (non-harvesting) battery.
func NewBattery(capacityUAH float64, harv Harvester, s *sim.Simulator) *Battery {
	if capacityUAH <= 0 {
		panic("power: battery capacity must be positive")
	}
	uc := capacityUAH * MicroCoulombsPerMicroAmpHour
	b := &Battery{capUC: uc, chargeUC: uc, epsUC: uc * 1e-12, harv: harv, s: s}
	b.checkFn = func() {
		b.advance(b.s.Now())
		if b.depleted {
			b.notify()
			return
		}
		b.project()
	}
	b.notifyFn = b.notify
	return b
}

// OnDepleted installs the depletion callback, invoked exactly once from a
// dedicated simulator event at the crossing instant (never from inside a
// device handler).
func (b *Battery) OnDepleted(fn func(at units.Ticks)) { b.onDepleted = fn }

// CapacityUAH returns the battery's capacity in microamp-hours.
func (b *Battery) CapacityUAH() float64 { return b.capUC / MicroCoulombsPerMicroAmpHour }

// RemainingUAH returns the charge left, integrated up to the last observed
// event (call Sync for an up-to-the-instant reading).
func (b *Battery) RemainingUAH() float64 { return b.chargeUC / MicroCoulombsPerMicroAmpHour }

// MarginFrac returns the remaining charge as a fraction of capacity in
// [0, 1] — the "energy margin" of a lifetime study.
func (b *Battery) MarginFrac() float64 { return b.chargeUC / b.capUC }

// Depleted reports whether the battery has run out.
func (b *Battery) Depleted() bool { return b.depleted }

// DiedAt returns the exact depletion instant; valid only once Depleted.
func (b *Battery) DiedAt() units.Ticks { return b.diedAt }

// Sync integrates the battery state up to time t (normally the node's
// current time). Reports and end-of-run margins use it; the event-driven
// path does not need it.
func (b *Battery) Sync(t units.Ticks) { b.advance(t) }

// CurrentChanged implements CurrentListener: integrate net charge at the old
// draw level up to t, adopt the new level, and re-project the depletion
// crossing. Stale timestamps (before the last integration point) are
// dropped, mirroring the meter.
func (b *Battery) CurrentChanged(t units.Ticks, total units.MicroAmps) {
	if t < b.lastT {
		return
	}
	b.advance(t)
	b.drawUA = total
	b.project()
}

// harvestAt returns the income segment at t.
func (b *Battery) harvestAt(t units.Ticks) (units.MicroAmps, units.Ticks) {
	if b.harv == nil {
		return 0, HorizonForever
	}
	return b.harv.CurrentAt(t)
}

// netChargeUC converts a constant net draw over dt ticks to microcoulombs:
// uA * us * 1e-6 = uC.
func netChargeUC(net units.MicroAmps, dt units.Ticks) float64 {
	return float64(net) * float64(dt) * 1e-6
}

// crossTicks returns the smallest non-negative dt such that a constant net
// discharge for dt ticks consumes charge (within tolerance). A closed-form
// ceil of the division can land one tick off because 1e-6 is not exactly
// representable; the estimate is corrected by direct evaluation instead.
func (b *Battery) crossTicks(charge float64, net units.MicroAmps) units.Ticks {
	if charge <= b.epsUC {
		return 0
	}
	dt := units.Ticks(charge / netChargeUC(net, 1))
	for netChargeUC(net, dt) < charge-b.epsUC {
		dt++
	}
	for dt > 0 && netChargeUC(net, dt-1) >= charge-b.epsUC {
		dt--
	}
	return dt
}

// advance integrates [lastT, t) segment by segment, capping at capacity and
// detecting the exact zero crossing.
func (b *Battery) advance(t units.Ticks) {
	if b.depleted || t <= b.lastT {
		if t > b.lastT {
			b.lastT = t
		}
		return
	}
	for b.lastT < t {
		in, until := b.harvestAt(b.lastT)
		seg := t
		if until < seg {
			seg = until
		}
		net := b.drawUA - in // positive: discharging
		dt := seg - b.lastT
		dUC := netChargeUC(net, dt)
		if net > 0 && dUC >= b.chargeUC-b.epsUC {
			// Crossing inside this segment: solve for the exact instant.
			cross := b.lastT + b.crossTicks(b.chargeUC, net)
			if cross > seg {
				cross = seg
			}
			b.chargeUC = 0
			b.lastT = t
			b.depleted = true
			b.diedAt = cross
			return
		}
		b.chargeUC -= dUC
		if b.chargeUC > b.capUC {
			b.chargeUC = b.capUC
		}
		b.lastT = seg
	}
}

// project schedules (or re-schedules) the depletion check event from the
// current state. If the walk finds a crossing the event lands exactly there;
// if income keeps the battery alive past the walked horizon, a re-check is
// scheduled at that horizon instead, so projection work per event stays
// bounded.
func (b *Battery) project() {
	if b.notified {
		return
	}
	if b.s.Scheduled(b.check) {
		b.s.Cancel(b.check)
	}
	if b.depleted {
		b.scheduleNotify(b.diedAt)
		return
	}
	charge := b.chargeUC
	at := b.lastT
	for i := 0; i < maxProjectSegments; i++ {
		in, until := b.harvestAt(at)
		net := b.drawUA - in
		if until == HorizonForever {
			if net <= 0 {
				return // steady income >= draw: never depletes at this level
			}
			if charge/netChargeUC(net, 1) >= math.MaxInt64/4 {
				return // depletion beyond any simulable horizon
			}
			b.scheduleCheck(at + b.crossTicks(charge, net))
			return
		}
		dt := until - at
		dUC := netChargeUC(net, dt)
		if net > 0 && dUC >= charge-b.epsUC {
			b.scheduleCheck(at + b.crossTicks(charge, net))
			return
		}
		charge -= dUC
		if charge > b.capUC {
			charge = b.capUC
		}
		at = until
	}
	// No crossing within the walked horizon; re-evaluate there.
	b.scheduleCheck(at)
}

// scheduleCheck arms the check event at the given instant (clamped to the
// simulator's present so a projection computed from a lagging integration
// point cannot schedule into the past).
func (b *Battery) scheduleCheck(at units.Ticks) {
	if now := b.s.Now(); at < now {
		at = now
	}
	b.check = b.s.Schedule(at, sim.PrioHardware, b.checkFn)
}

// scheduleNotify arms the one-shot depletion notification.
func (b *Battery) scheduleNotify(at units.Ticks) {
	if now := b.s.Now(); at < now {
		at = now
	}
	b.check = b.s.Schedule(at, sim.PrioHardware, b.notifyFn)
}

func (b *Battery) notify() {
	if b.notified {
		return
	}
	b.notified = true
	if b.onDepleted != nil {
		b.onDepleted(b.diedAt)
	}
}

// String summarizes the battery state for debug output.
func (b *Battery) String() string {
	return fmt.Sprintf("battery %.0f/%.0f uAh (%.1f%%)",
		b.RemainingUAH(), b.CapacityUAH(), b.MarginFrac()*100)
}
