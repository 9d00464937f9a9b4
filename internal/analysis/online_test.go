package analysis

import (
	"math"
	"testing"

	"repro/internal/core"
)

// buildActivityEnergyTrace: resource A draws 3 mA over a 0.4 mA baseline;
// activity L1 holds it for 2 s, L2 for 1 s.
func buildActivityEnergyTrace() (*traceBuilder, core.Label, core.Label) {
	b := newTraceBuilder()
	b.draw(resA, 1, 3000)
	b.draw(0, 0, 400)
	b.states[0] = 0
	l1 := core.MkLabel(1, 2)
	l2 := core.MkLabel(1, 3)
	idle := core.MkLabel(1, 0)

	b.ps(resA, 0)
	b.act(core.EntryActivitySet, 0, idle)
	b.act(core.EntryActivitySet, resA, idle)
	b.advance(1_000_000)

	b.act(core.EntryActivitySet, resA, l1)
	b.ps(resA, 1)
	b.advance(2_000_000)
	b.ps(resA, 0)
	b.act(core.EntryActivitySet, resA, idle)
	b.advance(500_000)

	b.act(core.EntryActivitySet, resA, l2)
	b.ps(resA, 1)
	b.advance(1_000_000)
	b.ps(resA, 0)
	b.act(core.EntryActivitySet, resA, idle)
	b.advance(500_000)
	b.marker()
	return b, l1, l2
}

func feed(o *OnlineAccountant, entries []core.Entry) {
	for _, e := range entries {
		o.Record(e)
	}
}

func TestOnlineEnergyMatchesOffline(t *testing.T) {
	b, l1, l2 := buildActivityEnergyTrace()
	tr := b.trace()

	// Offline pass gives the power model and the reference breakdown.
	a, err := Analyze(tr, core.NewDictionary(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	offline := a.EnergyByActivity()

	// Online pass, fed the same event stream with the fitted model.
	o := NewOnlineAccountant(1, tr.PulseUJ, a.Reg.PowerMW)
	feed(o, tr.Entries)
	online := o.EnergyUJ()

	for _, l := range []core.Label{l1, l2} {
		if offline[l] <= 0 {
			t.Fatalf("offline attribution for %v is empty", l)
		}
		rel := math.Abs(online[l]-offline[l]) / offline[l]
		if rel > 0.05 {
			t.Errorf("label %v: online %.1f uJ vs offline %.1f uJ (rel %.3f)",
				l, online[l], offline[l], rel)
		}
	}
}

func TestOnlineTotalsConserved(t *testing.T) {
	b, _, _ := buildActivityEnergyTrace()
	tr := b.trace()
	a, err := Analyze(tr, core.NewDictionary(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	o := NewOnlineAccountant(1, tr.PulseUJ, a.Reg.PowerMW)
	feed(o, tr.Entries)
	measured := tr.TotalEnergyUJ()
	if rel := math.Abs(o.TotalUJ()-measured) / measured; rel > 1e-9 {
		t.Errorf("online total %.2f vs measured %.2f", o.TotalUJ(), measured)
	}
}

func TestOnlineTimePerActivity(t *testing.T) {
	b := newTraceBuilder()
	l1 := core.MkLabel(1, 2)
	idle := core.MkLabel(1, 0)
	b.act(core.EntryActivitySet, 0, idle)
	b.advance(1_000_000)
	b.act(core.EntryActivitySet, 0, l1)
	b.advance(3_000_000)
	b.act(core.EntryActivitySet, 0, idle)
	b.advance(1_000_000)
	b.marker()

	o := NewOnlineAccountant(1, 8.33, nil)
	feed(o, b.entries)
	times := o.TimeUS()
	if times[l1] != 3_000_000 {
		t.Errorf("l1 time = %d, want 3s", times[l1])
	}
	if times[idle] != 2_000_000 {
		t.Errorf("idle time = %d, want 2s", times[idle])
	}
}

func TestOnlineWithoutModelKeepsEnergyInBaseline(t *testing.T) {
	b, _, _ := buildActivityEnergyTrace()
	tr := b.trace()
	o := NewOnlineAccountant(1, tr.PulseUJ, nil)
	feed(o, tr.Entries)
	if len(o.EnergyUJ()) != 0 {
		t.Errorf("attributed energy without a model: %v", o.EnergyUJ())
	}
	measured := tr.TotalEnergyUJ()
	if math.Abs(o.BaselineUJ()-measured) > 1e-9 {
		t.Errorf("baseline %.2f, want all measured %.2f", o.BaselineUJ(), measured)
	}
}

func TestOnlineTimeWrapSafe(t *testing.T) {
	// Entries straddling the 32-bit microsecond wrap.
	l1 := core.MkLabel(1, 2)
	entries := []core.Entry{
		{Type: core.EntryActivitySet, Res: 0, Time: 0xFFFF_F000, IC: 0, Val: uint16(l1)},
		{Type: core.EntryMarker, Res: 0, Time: 0x0000_1000, IC: 10, Val: 0},
	}
	o := NewOnlineAccountant(1, 8.33, nil)
	feed(o, entries)
	if got := o.TimeUS()[l1]; got != 0x2000 {
		t.Errorf("wrapped interval = %d us, want %d", got, 0x2000)
	}
}

func TestOnlineTopOrdering(t *testing.T) {
	b, l1, l2 := buildActivityEnergyTrace()
	tr := b.trace()
	a, err := Analyze(tr, core.NewDictionary(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dict := core.NewDictionary()
	dict.NameActivity(1, 2, "Heavy")
	dict.NameActivity(1, 3, "Light")
	o := NewOnlineAccountant(1, tr.PulseUJ, a.Reg.PowerMW)
	feed(o, tr.Entries)
	rows := o.Top(dict, 0)
	if len(rows) < 2 {
		t.Fatalf("top rows = %d", len(rows))
	}
	if rows[0].Label != l1 || rows[1].Label != l2 {
		t.Errorf("top order = %v, want l1 (2s) before l2 (1s)", rows)
	}
	if rows[0].Name != "1:Heavy" {
		t.Errorf("top name = %q", rows[0].Name)
	}
	if rows[0].EnergyUJ <= rows[1].EnergyUJ {
		t.Error("top not sorted by energy")
	}
}

func TestOnlineMultiActivitySplit(t *testing.T) {
	b := newTraceBuilder()
	b.draw(resB, 1, 2000)
	b.draw(0, 0, 400)
	b.states[0] = 0
	la, lb := core.MkLabel(1, 2), core.MkLabel(1, 3)
	b.ps(resB, 0)
	b.advance(100_000)
	b.ps(resB, 1)
	b.act(core.EntryActivityAdd, resB, la)
	b.act(core.EntryActivityAdd, resB, lb)
	b.advance(2_000_000)
	b.act(core.EntryActivityRemove, resB, la)
	b.act(core.EntryActivityRemove, resB, lb)
	b.ps(resB, 0)
	b.advance(100_000)
	b.marker()

	model := map[Predictor]float64{{resB, 1}: 6.0} // 2 mA at 3 V
	o := NewOnlineAccountant(1, 8.33, model)
	feed(o, b.entries)
	ea, eb := o.EnergyUJ()[la], o.EnergyUJ()[lb]
	if ea <= 0 || math.Abs(ea-eb) > 1e-9 {
		t.Errorf("equal split violated: %v vs %v", ea, eb)
	}
	// Each activity: ~6 mW * 2 s / 2 = 6000 uJ.
	if math.Abs(ea-6000) > 300 {
		t.Errorf("share = %.1f uJ, want ~6000", ea)
	}
}

// TestOnlineTopTieOrder gives two activities the same modeled draw over the
// same stretches, so their energies tie exactly: Top must list them in
// label order on every call.
func TestOnlineTopTieOrder(t *testing.T) {
	b := newTraceBuilder()
	b.draw(resA, 1, 3000)
	b.draw(resB, 1, 3000)
	lo, hi := core.MkLabel(1, 2), core.MkLabel(1, 3)
	b.act(core.EntryActivitySet, resB, hi)
	b.act(core.EntryActivitySet, resA, lo)
	for range 3 {
		b.ps(resA, 1)
		b.ps(resB, 1)
		b.advance(1_000_000)
		b.ps(resA, 0)
		b.ps(resB, 0)
		b.advance(1_000_000)
	}
	b.marker()
	o := NewOnlineAccountant(1, b.pulseUJ, map[Predictor]float64{{resA, 1}: 9, {resB, 1}: 9})
	o.RecordBatch(b.entries)
	dict := core.NewDictionary()
	for i := range 50 {
		rows := o.Top(dict, 0)
		if len(rows) != 2 || rows[0].EnergyUJ != rows[1].EnergyUJ || rows[0].EnergyUJ <= 0 {
			t.Fatalf("rows = %+v, want two tied, non-zero rows", rows)
		}
		if rows[0].Label != lo || rows[1].Label != hi {
			t.Fatalf("call %d: rows in order %v, %v; want %v, %v", i, rows[0].Label, rows[1].Label, lo, hi)
		}
	}
}
