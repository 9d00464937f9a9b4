package power

import (
	"testing"

	"repro/internal/core"
	"repro/internal/units"
)

func TestPlatformMatchesTable1(t *testing.T) {
	// Spot-check nominal draws against the paper's Table 1.
	nom := NominalDraws()
	cases := []struct {
		res   core.ResourceID
		state core.PowerState
		ua    units.MicroAmps
	}{
		{ResCPU, CPUActive, 500},
		{ResCPU, CPUSleep, 2.6},
		{ResCPU, CPULPM4, 0.2},
		{ResVRef, StateOn, 500},
		{ResADC, ADCConverting, 800},
		{ResDAC, DACConv7, 700},
		{ResIntFlash, IntFlashProgram, 3000},
		{ResTempSensor, StateOn, 60},
		{ResComparator, StateOn, 45},
		{ResSupply, StateOn, 15},
		{ResRadioReg, RadioRegOn, 22},
		{ResRadioReg, RadioRegPD, 20},
		{ResRadioBatMon, StateOn, 30},
		{ResRadioCtl, RadioCtlIdle, 426},
		{ResRadioRx, RadioRxListen, 19700},
		{ResRadioTx, RadioTx0dBm, 17400},
		{ResRadioTx, RadioTxM25dBm, 8500},
		{ResFlash, FlashPowerDown, 9},
		{ResFlash, FlashWrite, 12000},
		{ResLED0, StateOn, 4300},
		{ResLED1, StateOn, 3700},
		{ResLED2, StateOn, 1700},
	}
	for _, c := range cases {
		if got := nom.Draw(c.res, c.state); got != c.ua {
			t.Errorf("nominal draw(%d,%d) = %v uA, want %v", c.res, c.state, got, c.ua)
		}
	}
}

func TestPlatformInventoryShape(t *testing.T) {
	sinks := Platform()
	if len(sinks) < 17 {
		t.Errorf("platform has %d sinks, want >= 17", len(sinks))
	}
	// The paper counts 8 microcontroller sinks and 5 radio sinks.
	groups := make(map[string]int)
	for _, s := range sinks {
		groups[s.Group]++
	}
	if groups["Microcontroller"] != 8 {
		t.Errorf("microcontroller sinks = %d, want 8", groups["Microcontroller"])
	}
	if groups["Radio"] != 5 {
		t.Errorf("radio sinks = %d, want 5", groups["Radio"])
	}
	// The radio transmit path has eight power levels.
	for _, s := range sinks {
		if s.Res == ResRadioTx && len(s.States) != 8 {
			t.Errorf("TX power levels = %d, want 8", len(s.States))
		}
	}
}

func TestCalibratedDrawsOverrides(t *testing.T) {
	cal := CalibratedDraws()
	if cal.Draw(ResLED0, StateOn) != 2505 {
		t.Errorf("calibrated LED0 = %v", cal.Draw(ResLED0, StateOn))
	}
	if cal.Draw(ResCPU, CPUActive) != 1430 {
		t.Errorf("calibrated CPU = %v", cal.Draw(ResCPU, CPUActive))
	}
	if cal.Draw(ResRadioRx, RadioRxListen) != 18460 {
		t.Errorf("calibrated RX = %v", cal.Draw(ResRadioRx, RadioRxListen))
	}
	if cal.Draw(ResBaseline, StateOff) != BaselineMicroAmps {
		t.Errorf("baseline = %v", cal.Draw(ResBaseline, StateOff))
	}
	// Sleep draws fold into the baseline.
	if cal.Draw(ResCPU, CPUSleep) != 0 {
		t.Errorf("calibrated CPU sleep = %v, want 0", cal.Draw(ResCPU, CPUSleep))
	}
	// Non-overridden values stay nominal.
	if cal.Draw(ResFlash, FlashWrite) != 12000 {
		t.Errorf("flash write = %v", cal.Draw(ResFlash, FlashWrite))
	}
}

func TestDrawTableClone(t *testing.T) {
	a := NominalDraws()
	b := a.Clone()
	b[DrawKey{ResLED0, StateOn}] = 1
	if a.Draw(ResLED0, StateOn) == 1 {
		t.Error("clone shares storage")
	}
}

// TestDrawGridMatchesTable checks the compiled grid against the map it was
// compiled from over every (resource, state) pair, including pairs beyond
// the grid's edge, and the shared grid against a fresh CalibratedDraws.
func TestDrawGridMatchesTable(t *testing.T) {
	tables := []struct {
		name  string
		table DrawTable
	}{
		{"nominal", NominalDraws()},
		{"calibrated", CalibratedDraws()},
		{"sparse", DrawTable{{ResSensor, SensorSample}: 550}},
		{"empty", DrawTable{}},
	}
	for _, tc := range tables {
		g := tc.table.Compile()
		for res := 0; res <= int(NumResources)+2; res++ {
			for st := core.PowerState(0); st < 16; st++ {
				r := core.ResourceID(res)
				if got, want := g.Draw(r, st), tc.table.Draw(r, st); got != want {
					t.Errorf("%s: grid draw(%d,%d) = %v, table %v", tc.name, r, st, got, want)
				}
			}
		}
	}
	cal := CalibratedDraws()
	for res := core.ResourceID(0); res < NumResources; res++ {
		for st := core.PowerState(0); st < 16; st++ {
			if got, want := Calibrated().Draw(res, st), cal.Draw(res, st); got != want {
				t.Errorf("shared grid draw(%d,%d) = %v, want %v", res, st, got, want)
			}
		}
	}
}

func TestStateName(t *testing.T) {
	if StateName(ResCPU, CPUActive) != "ACTIVE" {
		t.Errorf("got %q", StateName(ResCPU, CPUActive))
	}
	if StateName(ResRadioTx, RadioTxM10dBm) != "TX (-10 dBm)" {
		t.Errorf("got %q", StateName(ResRadioTx, RadioTxM10dBm))
	}
	if StateName(ResLED0, StateOff) != "OFF" {
		t.Errorf("got %q", StateName(ResLED0, StateOff))
	}
	if StateName(ResLED0, 42) != "S42" {
		t.Errorf("got %q", StateName(ResLED0, 42))
	}
}

func TestResourceNamesCoverPlatform(t *testing.T) {
	names := ResourceNames()
	for _, s := range Platform() {
		if names[s.Res] == "" {
			t.Errorf("no short name for resource %d (%s)", s.Res, s.Name)
		}
	}
}

type recordingListener struct {
	times []units.Ticks
	draws []units.MicroAmps
}

func (r *recordingListener) CurrentChanged(t units.Ticks, total units.MicroAmps) {
	r.times = append(r.times, t)
	r.draws = append(r.draws, total)
}

func TestBoardAggregatesCurrent(t *testing.T) {
	now := units.Ticks(0)
	draws := DrawTable{
		DrawKey{ResLED0, StateOn}:      2500,
		DrawKey{ResLED1, StateOn}:      2200,
		DrawKey{ResBaseline, StateOff}: 800,
	}
	b := NewBoard(3.0, draws.Compile(), func() units.Ticks { return now })
	b.AddSink(ResBaseline, StateOff)
	b.AddSink(ResLED0, StateOff)
	b.AddSink(ResLED1, StateOff)
	if b.Current() != 800 {
		t.Fatalf("initial current = %v", b.Current())
	}

	rec := &recordingListener{}
	b.Listen(rec)
	if len(rec.draws) != 1 || rec.draws[0] != 800 {
		t.Fatalf("listener should hear the current draw on registration: %v", rec.draws)
	}

	now = 100
	b.PowerStateChanged(ResLED0, StateOff, StateOn)
	if b.Current() != 3300 {
		t.Errorf("current = %v, want 3300", b.Current())
	}
	now = 200
	b.PowerStateChanged(ResLED1, StateOff, StateOn)
	if b.Current() != 5500 {
		t.Errorf("current = %v, want 5500", b.Current())
	}
	now = 300
	b.PowerStateChanged(ResLED0, StateOn, StateOff)
	if b.Current() != 3000 {
		t.Errorf("current = %v, want 3000", b.Current())
	}
	if len(rec.times) != 4 || rec.times[3] != 300 {
		t.Errorf("listener calls = %v", rec.times)
	}
}

func TestBoardNoDriftUnderChurn(t *testing.T) {
	// Repeated toggling must not accumulate floating-point drift because
	// the total is recomputed from states.
	now := units.Ticks(0)
	draws := DrawTable{
		DrawKey{ResLED2, StateOn}:      830.3,
		DrawKey{ResBaseline, StateOff}: 785.1,
	}
	b := NewBoard(3.0, draws.Compile(), func() units.Ticks { return now })
	b.AddSink(ResBaseline, StateOff)
	b.AddSink(ResLED2, StateOff)
	want := b.Current()
	for i := 0; i < 100000; i++ {
		b.PowerStateChanged(ResLED2, StateOff, StateOn)
		b.PowerStateChanged(ResLED2, StateOn, StateOff)
	}
	if b.Current() != want {
		t.Errorf("current drifted: %v -> %v", want, b.Current())
	}
}

func TestBoardLearnsUnknownSink(t *testing.T) {
	b := NewBoard(3.0, DrawTable{DrawKey{ResSensor, SensorSample}: 550}.Compile(), func() units.Ticks { return 0 })
	// A state change for a sink never registered with AddSink still counts.
	b.PowerStateChanged(ResSensor, SensorIdle, SensorSample)
	if b.Current() != 550 {
		t.Errorf("current = %v, want 550", b.Current())
	}
	if b.State(ResSensor) != SensorSample {
		t.Errorf("state = %v", b.State(ResSensor))
	}
}
