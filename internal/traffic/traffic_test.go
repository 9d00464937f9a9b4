package traffic

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/units"
)

// drain pulls up to n entries or until the source ends or passes limit.
func drain(src Source, n int, limit units.Ticks) []units.Ticks {
	var out []units.Ticks
	for len(out) < n {
		t, ok := src.Next()
		if !ok || t > limit {
			break
		}
		out = append(out, t)
	}
	return out
}

func specs() map[string]*Spec {
	return map[string]*Spec{
		"constant": {Shape: ShapeConstant, RPS: 10},
		"ramp":     {Shape: ShapeRamp, StartRPS: 2, StepRPS: 2, TargetRPS: 10, SlotUS: int64(2 * units.Second)},
		"burst":    {Shape: ShapeBurst, RPS: 1, BurstRPS: 50, BurstUS: int64(100 * units.Millisecond), PeriodUS: int64(units.Second)},
		"diurnal":  {Shape: ShapeDiurnal, RPS: 10, PeriodUS: int64(10 * units.Second)},
		"onoff":    {Shape: ShapeOnOff, RPS: 20},
	}
}

// TestShapesMonotonicAndDeterministic pins the two properties every source
// must have: strictly increasing ticks, and the same seed yielding the same
// schedule.
func TestShapesMonotonicAndDeterministic(t *testing.T) {
	const horizon = 60 * units.Second
	for name, sp := range specs() {
		t.Run(name, func(t *testing.T) {
			ids := []core.NodeID{1, 2, 3}
			a, err := Sources(sp, 42, ids)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Sources(sp, 42, ids)
			if err != nil {
				t.Fatal(err)
			}
			for slot := range ids {
				ta := drain(a[slot], 5000, horizon)
				tb := drain(b[slot], 5000, horizon)
				if len(ta) == 0 {
					t.Fatalf("slot %d produced no sends in %v", slot, horizon)
				}
				if len(ta) != len(tb) {
					t.Fatalf("slot %d not deterministic: %d vs %d sends", slot, len(ta), len(tb))
				}
				for i := range ta {
					if ta[i] != tb[i] {
						t.Fatalf("slot %d send %d differs: %v vs %v", slot, i, ta[i], tb[i])
					}
					if i > 0 && ta[i] <= ta[i-1] {
						t.Fatalf("slot %d not strictly increasing at %d: %v then %v", slot, i, ta[i-1], ta[i])
					}
				}
			}
		})
	}
}

// TestStaggerTieFree pins the stagger contract: across every generated
// shape, no two sender slots ever share a send tick, because slot i only
// emits ticks ≡ i (mod senders).
func TestStaggerTieFree(t *testing.T) {
	const horizon = 120 * units.Second
	for name, sp := range specs() {
		t.Run(name, func(t *testing.T) {
			ids := []core.NodeID{1, 2, 3, 4, 5}
			srcs, err := Sources(sp, 7, ids)
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[units.Ticks]int)
			for slot, src := range srcs {
				for _, tick := range drain(src, 3000, horizon) {
					if int64(tick)%int64(len(ids)) != int64(slot) {
						t.Fatalf("slot %d emitted off-residue tick %d", slot, tick)
					}
					if other, dup := seen[tick]; dup {
						t.Fatalf("slots %d and %d share tick %d", other, slot, tick)
					}
					seen[tick] = slot
				}
			}
		})
	}
}

// TestConstantRate sanity-checks the constant shape's realized rate.
func TestConstantRate(t *testing.T) {
	srcs, err := Sources(&Spec{Shape: ShapeConstant, RPS: 25}, 1, []core.NodeID{9})
	if err != nil {
		t.Fatal(err)
	}
	got := len(drain(srcs[0], 1<<20, 10*units.Second))
	if got < 245 || got > 255 {
		t.Fatalf("constant 25 rps over 10 s: want ~250 sends, got %d", got)
	}
}

// TestRampRate checks the invitro contract: the rate climbs start→target in
// step increments per slot, then holds.
func TestRampRate(t *testing.T) {
	sp := &Spec{Shape: ShapeRamp, StartRPS: 5, StepRPS: 5, TargetRPS: 15, SlotUS: int64(units.Second)}
	srcs, err := Sources(sp, 1, []core.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	perSlot := make(map[int64]int)
	for _, tick := range drain(srcs[0], 1<<20, 5*units.Second) {
		perSlot[int64(tick)/int64(units.Second)]++
	}
	for slot, want := range map[int64]int{0: 5, 1: 10, 2: 15, 3: 15, 4: 15} {
		got := perSlot[slot]
		if got < want-1 || got > want+1 {
			t.Errorf("slot %d: want ~%d sends, got %d", slot, want, got)
		}
	}
}

// TestBurstShape checks that bursts dominate the schedule and the silent
// floor actually silences inter-burst gaps.
func TestBurstShape(t *testing.T) {
	sp := &Spec{Shape: ShapeBurst, RPS: 0, BurstRPS: 100, BurstUS: int64(50 * units.Millisecond), PeriodUS: int64(units.Second)}
	srcs, err := Sources(sp, 3, []core.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	ticks := drain(srcs[0], 1<<20, 10*units.Second)
	if len(ticks) == 0 {
		t.Fatal("no sends")
	}
	for _, tick := range ticks {
		pos := int64(tick) % int64(units.Second)
		// Stagger moves a tick at most stride (=1) µs; allow 2 µs slack.
		if pos > int64(50*units.Millisecond)+2 {
			t.Fatalf("send at %d outside burst window (pos %d)", tick, pos)
		}
	}
}

// TestOnOffDwells checks that the onoff shape actually alternates activity
// and silence with heavy-ish dwells.
func TestOnOffDwells(t *testing.T) {
	sp := &Spec{Shape: ShapeOnOff, RPS: 50}
	srcs, err := Sources(sp, 11, []core.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	ticks := drain(srcs[0], 1<<20, 600*units.Second)
	if len(ticks) < 100 {
		t.Fatalf("onoff produced only %d sends in 600 s", len(ticks))
	}
	gaps := 0
	for i := 1; i < len(ticks); i++ {
		if ticks[i]-ticks[i-1] > units.Second {
			gaps++
		}
	}
	if gaps == 0 {
		t.Fatal("onoff never went silent for >1 s in 600 s; OFF dwells missing")
	}
}

// TestDiurnalCycle checks the rate swings within the cycle: the peak
// half-cycle carries more sends than the trough half-cycle.
func TestDiurnalCycle(t *testing.T) {
	period := 20 * units.Second
	sp := &Spec{Shape: ShapeDiurnal, RPS: 10, PeriodUS: int64(period)}
	srcs, err := Sources(sp, 5, []core.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	var trough, peak int
	for _, tick := range drain(srcs[0], 1<<20, 5*period) {
		pos := tick % period
		if pos < period/4 || pos >= 3*period/4 {
			trough++
		} else {
			peak++
		}
	}
	if peak <= trough*2 {
		t.Fatalf("diurnal swing too flat: peak-half %d vs trough-half %d sends", peak, trough)
	}
}

func TestValidate(t *testing.T) {
	bad := []*Spec{
		{},
		{Shape: "squarewave"},
		{Shape: ShapeConstant},
		{Shape: ShapeConstant, RPS: -1},
		{Shape: ShapeRamp, StartRPS: 5, StepRPS: 5, TargetRPS: 1, SlotUS: 100},
		{Shape: ShapeRamp, StartRPS: 5, StepRPS: 0, TargetRPS: 10, SlotUS: 100},
		{Shape: ShapeBurst, RPS: 1, BurstRPS: 10, BurstUS: 100, PeriodUS: 100},
		{Shape: ShapeBurst, RPS: -1, BurstRPS: 10, BurstUS: 10, PeriodUS: 100},
		{Shape: ShapeDiurnal, RPS: 10},
		{Shape: ShapeDiurnal, RPS: 10, PeriodUS: 100, DepthFrac: 1.5},
		{Shape: ShapeOnOff},
		{Shape: ShapeOnOff, RPS: 10, OnAlpha: 0.5},
		{Shape: ShapeReplay},
	}
	for _, sp := range bad {
		if err := sp.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted an invalid spec", sp)
		}
	}
	good := []*Spec{
		{Shape: ShapeConstant, RPS: 1},
		{Shape: ShapeRamp, StartRPS: 1, StepRPS: 1, TargetRPS: 2, SlotUS: 1000},
		{Shape: ShapeBurst, BurstRPS: 10, BurstUS: 10, PeriodUS: 100},
		{Shape: ShapeDiurnal, RPS: 1, PeriodUS: 1000},
		{Shape: ShapeOnOff, RPS: 1, OnAlpha: 1.5, OffAlpha: 1.9},
		{Shape: ShapeReplay, File: "x.jsonl"},
	}
	for _, sp := range good {
		if err := sp.Validate(); err != nil {
			t.Errorf("Validate(%+v): %v", sp, err)
		}
	}
}

// TestRecorderRoundTrip writes a schedule and parses it back: events, order
// and per-node times must survive, and re-serialization must be
// byte-identical.
func TestRecorderRoundTrip(t *testing.T) {
	rec := NewRecorder([]core.NodeID{3, 7})
	h0, h1 := rec.Hook(0), rec.Hook(1)
	h0(10)
	h0(14)
	h1(11)
	h1(1000)
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.String()

	tr, err := ParseTrace(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Events() != 4 {
		t.Fatalf("want 4 events, got %d", tr.Events())
	}
	src := tr.Source(0, 3, sim.NewRNG(1))
	got := drain(src, 10, math.MaxInt64)
	if len(got) != 2 || got[0] != 10 || got[1] != 14 {
		t.Fatalf("node 3 replay schedule %v, want [10 14]", got)
	}
	if s := tr.Source(0, 99, nil); s == nil {
		t.Fatal("absent node must replay as silence, not nil source")
	} else if _, ok := s.Next(); ok {
		t.Fatal("absent node produced a send")
	}

	// Replaying through a second recorder must re-serialize identically.
	rec2 := NewRecorder([]core.NodeID{3, 7})
	for slot, id := range []core.NodeID{3, 7} {
		hook := rec2.Hook(slot)
		s := tr.Source(slot, int(id), nil)
		for tick, ok := s.Next(); ok; tick, ok = s.Next() {
			hook(tick)
		}
	}
	var buf2 bytes.Buffer
	if err := rec2.WriteJSONL(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != first {
		t.Fatalf("record→replay→record not byte-identical:\n%q\nvs\n%q", first, buf2.String())
	}
}

// TestParseTraceErrors pins errors-not-crashes on malformed traces.
func TestParseTraceErrors(t *testing.T) {
	bad := []string{
		"{\"quanto_traffic\":99}\n",
		"{\"node\":1,\"at_us\":5}\nnot json\n",
		"{\"node\":-1,\"at_us\":5}\n",
		"{\"node\":1,\"at_us\":-5}\n",
		"{\"node\":1,\"at_us\":5}\n{\"node\":1,\"at_us\":5}\n",
		"{\"node\":1,\"at_us\":9}\n{\"node\":1,\"at_us\":3}\n",
		"{\"node\":1,\"at_us\":5,\"extra\":1}\n",
		"{\"node\":1,\"at_us\":5} {\"node\":2,\"at_us\":6}\n",
	}
	for _, in := range bad {
		if _, err := ParseTrace(strings.NewReader(in)); err == nil {
			t.Errorf("ParseTrace(%q) accepted malformed input", in)
		}
	}
	// Headerless and empty traces load.
	if tr, err := ParseTrace(strings.NewReader("{\"node\":2,\"at_us\":7}\n")); err != nil || tr.Events() != 1 {
		t.Errorf("headerless trace: events=%v err=%v", tr, err)
	}
	if tr, err := ParseTrace(strings.NewReader("")); err != nil || tr.Events() != 0 {
		t.Errorf("empty trace: %v err=%v", tr, err)
	}
}
