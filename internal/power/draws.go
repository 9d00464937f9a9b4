package power

import (
	"repro/internal/core"
	"repro/internal/units"
)

// DrawKey identifies one (sink, state) pair in a draw table.
type DrawKey struct {
	Res   core.ResourceID
	State core.PowerState
}

// DrawTable maps (sink, state) to the current that configuration draws.
// States absent from the table draw zero (their consumption, if any, is part
// of the board baseline).
type DrawTable map[DrawKey]units.MicroAmps

// Draw looks up the draw for (res, st), defaulting to zero.
func (d DrawTable) Draw(res core.ResourceID, st core.PowerState) units.MicroAmps {
	return d[DrawKey{res, st}]
}

// Clone returns a copy of the table.
func (d DrawTable) Clone() DrawTable {
	out := make(DrawTable, len(d))
	//quanto:ordered map-to-map copy over distinct keys; order cannot escape
	for k, v := range d {
		out[k] = v
	}
	return out
}

// DrawGrid is a draw table compiled to a dense (resource, state) grid: a
// Board reads it on every power-state edge of every node, and an array index
// there replaces a map hash. The grid spans every key of the table it was
// compiled from, and pairs outside it draw zero, exactly as absent keys do
// in the table. A DrawGrid never changes after Compile, so one grid can
// serve every board in the process, across concurrent runs.
type DrawGrid struct {
	states int // row width: the highest state in the table, plus one
	draw   []units.MicroAmps
}

// Compile builds the table's dense grid.
func (d DrawTable) Compile() *DrawGrid {
	var maxRes, maxState int
	//quanto:ordered max over keys is commutative; order cannot escape
	for k := range d {
		maxRes = max(maxRes, int(k.Res))
		maxState = max(maxState, int(k.State))
	}
	g := &DrawGrid{states: maxState + 1}
	g.draw = make([]units.MicroAmps, (maxRes+1)*g.states)
	//quanto:ordered each key writes its own grid cell exactly once; order cannot escape
	for k, v := range d {
		g.draw[int(k.Res)*g.states+int(k.State)] = v
	}
	return g
}

// Draw looks up the draw for (res, st), zero outside the grid.
func (g *DrawGrid) Draw(res core.ResourceID, st core.PowerState) units.MicroAmps {
	if i := int(res)*g.states + int(st); int(st) < g.states && i < len(g.draw) {
		return g.draw[i]
	}
	return 0
}

// calibrated is CalibratedDraws compiled once per process.
var calibrated = CalibratedDraws().Compile()

// Calibrated returns the compiled CalibratedDraws every simulated board
// shares. It is built once, at package init, and never modified.
func Calibrated() *DrawGrid { return calibrated }

// BaselineMicroAmps is the calibrated always-on board draw: quiescent
// switching regulator, supply network, and the MCU asleep.
//
// Calibration provenance (the single source for this number — external docs
// reference this constant rather than restating it): the paper never
// measures the baseline directly; it appears as the constant term of the
// energy regressions, and the two reported fits disagree slightly —
// 0.79 mA in the Table 2 bench calibration and 0.83 mA in the Table 3
// in-situ Blink run. The simulation uses 800 uA, between the two, so that
// reproduced regressions recover a constant inside the paper's own spread
// rather than matching one table exactly and missing the other. The
// individual deep-sleep trickle draws of Table 1 are deliberately folded
// into this constant (see CalibratedDraws) because the paper's regressions
// cannot separate them from it either.
const BaselineMicroAmps units.MicroAmps = 800

// NominalDraws builds a draw table from the Table 1 datasheet values. CPU
// sleep draw is kept explicit (2.6 uA in LPM3).
func NominalDraws() DrawTable {
	t := make(DrawTable)
	for _, sink := range Platform() {
		for _, st := range sink.States {
			t[DrawKey{sink.Res, st.State}] = st.Nominal
		}
	}
	t[DrawKey{ResBaseline, StateOff}] = 0
	return t
}

// CalibratedDraws builds the draw table the simulation uses as physical
// ground truth. It starts from the datasheet values and overrides the sinks
// the paper measured on its HydroWatch board:
//
//   - LEDs: Table 2/3 regressions found 2.50/2.51, 2.23/2.24 and 0.83 mA —
//     roughly half the datasheet values (the LEDs are driven through
//     current-limiting resistors).
//   - CPU active: Table 3(b) reports 1.43 mA above baseline when running.
//   - Radio listen: Section 4.3 measured 18.46 mA for LPL listening.
//   - The board baseline replaces the individual deep-sleep trickle draws,
//     which the regressions cannot separate from the constant anyway.
func CalibratedDraws() DrawTable {
	t := NominalDraws()
	t[DrawKey{ResLED0, StateOn}] = 2505
	t[DrawKey{ResLED1, StateOn}] = 2235
	t[DrawKey{ResLED2, StateOn}] = 830
	t[DrawKey{ResCPU, CPUActive}] = 1430
	// Sleep states fold into the board baseline.
	t[DrawKey{ResCPU, CPUSleep}] = 0
	t[DrawKey{ResCPU, CPULPM4}] = 0
	t[DrawKey{ResRadioRx, RadioRxListen}] = 18460
	t[DrawKey{ResBaseline, StateOff}] = BaselineMicroAmps
	return t
}
