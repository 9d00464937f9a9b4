// Package scope models the measurement bench the paper calibrated against:
// a digital oscilloscope sensing the mote's supply current through a shunt
// resistor. It records the exact piecewise-constant current waveform of the
// simulated board and can report per-interval means, sampled traces with
// realistic ripple noise, and the iCount pulse instants implied by the
// waveform (Figure 10).
package scope

import (
	"repro/internal/sim"
	"repro/internal/units"
)

// Step is one segment boundary of the piecewise-constant current waveform:
// from T onward the board draws I.
type Step struct {
	T units.Ticks
	I units.MicroAmps
}

// Sample is one noisy oscilloscope reading.
type Sample struct {
	T units.Ticks
	I units.MicroAmps
}

// Scope records the board's true current waveform. It implements
// power.CurrentListener.
type Scope struct {
	steps []Step

	// rippleFrac is the relative standard deviation of sampling noise
	// applied by Samples and MeasuredMean; the underlying waveform stays
	// exact.
	rippleFrac float64
	rng        *sim.RNG
}

// New returns a scope with the given sampling ripple (for example 0.005 for
// 0.5% RMS noise, typical of a shunt measurement) and noise seed.
func New(rippleFrac float64, seed uint64) *Scope {
	return &Scope{rippleFrac: rippleFrac, rng: sim.NewRNG(seed)}
}

// CurrentChanged implements power.CurrentListener.
func (s *Scope) CurrentChanged(t units.Ticks, total units.MicroAmps) {
	if n := len(s.steps); n > 0 && s.steps[n-1].T == t {
		// Several sinks switched at one instant; keep the final value.
		s.steps[n-1].I = total
		return
	}
	s.steps = append(s.steps, Step{T: t, I: total})
}

// Steps returns the recorded waveform.
func (s *Scope) Steps() []Step { return s.steps }

// currentAt returns the draw in effect at time t (0 before the first step).
func (s *Scope) currentAt(t units.Ticks) units.MicroAmps {
	// Binary search for the last step with T <= t.
	lo, hi := 0, len(s.steps)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.steps[mid].T <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return s.steps[lo-1].I
}

// ChargeMicroCoulombs integrates current over [t0, t1) and returns the
// charge in microcoulombs (uA * s).
func (s *Scope) ChargeMicroCoulombs(t0, t1 units.Ticks) float64 {
	if t1 <= t0 {
		return 0
	}
	var total float64 // uA * us
	cur := s.currentAt(t0)
	prev := t0
	for _, st := range s.steps {
		if st.T <= t0 {
			continue
		}
		if st.T >= t1 {
			break
		}
		total += float64(cur) * float64(st.T-prev)
		cur = st.I
		prev = st.T
	}
	total += float64(cur) * float64(t1-prev)
	return total / 1e6 // uA*us -> uA*s = uC
}

// MeanCurrent returns the exact average current over [t0, t1).
func (s *Scope) MeanCurrent(t0, t1 units.Ticks) units.MicroAmps {
	if t1 <= t0 {
		return 0
	}
	uc := s.ChargeMicroCoulombs(t0, t1)
	return units.MicroAmps(uc / (t1 - t0).Seconds())
}

// MeasuredMean returns MeanCurrent with one multiplicative noise draw, as a
// bench measurement of a steady state would see.
func (s *Scope) MeasuredMean(t0, t1 units.Ticks) units.MicroAmps {
	m := s.MeanCurrent(t0, t1)
	return m * units.MicroAmps(1+s.rippleFrac*s.rng.Norm())
}

// EnergyMicroJoules integrates power at volts over [t0, t1).
func (s *Scope) EnergyMicroJoules(volts units.Volts, t0, t1 units.Ticks) float64 {
	return s.ChargeMicroCoulombs(t0, t1) * float64(volts) // uC * V = uJ
}

// Samples returns a noisy sampled trace over [t0, t1) with period dt,
// modeling the oscilloscope display of Figures 10 and 11(c).
func (s *Scope) Samples(t0, t1, dt units.Ticks) []Sample {
	if dt <= 0 {
		dt = units.Millisecond
	}
	var out []Sample
	for t := t0; t < t1; t += dt {
		i := s.currentAt(t)
		noisy := i * units.MicroAmps(1+s.rippleFrac*s.rng.Norm())
		out = append(out, Sample{T: t, I: noisy})
	}
	return out
}

// PulseTimes returns the instants at which an ideal iCount meter fed by this
// waveform would emit pulses in [t0, t1): each time the accumulated energy
// crosses a multiple of pulseUJ. This reproduces the pulse train visible in
// the oscilloscope traces of Figure 10.
func (s *Scope) PulseTimes(volts units.Volts, pulseUJ float64, t0, t1 units.Ticks) []units.Ticks {
	var out []units.Ticks
	var acc float64 // uJ since t0
	cur := s.currentAt(t0)
	prev := t0
	emit := func(from units.Ticks, i units.MicroAmps, until units.Ticks) {
		if i <= 0 || until <= from {
			acc += float64(units.Energy(i, volts, until-from))
			return
		}
		rateUJperTick := float64(i) * float64(volts) * 1e-6
		t := from
		for {
			need := pulseUJ - acc
			dt := units.Ticks(need / rateUJperTick)
			if float64(dt)*rateUJperTick < need {
				dt++
			}
			if t+dt > until {
				acc += rateUJperTick * float64(until-t)
				return
			}
			t += dt
			acc = 0
			out = append(out, t)
		}
	}
	for _, st := range s.steps {
		if st.T <= t0 {
			continue
		}
		if st.T >= t1 {
			break
		}
		emit(prev, cur, st.T)
		cur = st.I
		prev = st.T
	}
	emit(prev, cur, t1)
	return out
}
