package core

import (
	"testing"
	"testing/quick"
	"unsafe"
)

type testClock struct{ t uint32 }

func (c *testClock) NowMicros() uint32 { return c.t }

type testMeter struct{ pulses uint32 }

func (m *testMeter) ReadPulses() uint32 { return m.pulses }

type testCost struct{ cycles uint64 }

func (c *testCost) ChargeCycles(n uint32) { c.cycles += uint64(n) }

func newTestTracker() (*Tracker, *testClock, *testMeter, *testCost, *Collector) {
	clock := &testClock{}
	meter := &testMeter{}
	cost := &testCost{}
	sink := NewCollector()
	trk := NewTracker(Config{Node: 1, Clock: clock, Meter: meter, Cost: cost, Sink: sink})
	return trk, clock, meter, cost, sink
}

// TestEntryInMemorySize pins an Entry's in-memory size to its wire size:
// its fields run widest first, so the struct needs no padding, and every
// log holds its entries at 12 bytes each.
func TestEntryInMemorySize(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != EntrySize {
		t.Errorf("an Entry takes %d bytes in memory, want EntrySize = %d", got, EntrySize)
	}
}

func TestLabelPacking(t *testing.T) {
	f := func(origin, id uint8) bool {
		l := MkLabel(NodeID(origin), ActivityID(id))
		return l.Origin() == NodeID(origin) && l.ID() == ActivityID(id)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLabelIdle(t *testing.T) {
	if !MkLabel(5, ActIdle).IsIdle() {
		t.Error("ActIdle label should be idle")
	}
	if MkLabel(5, 3).IsIdle() {
		t.Error("non-idle label misreported")
	}
	if MkLabel(3, 7).String() != "3:7" {
		t.Errorf("String = %q", MkLabel(3, 7).String())
	}
}

func TestTrackerLogStampsTimeAndEnergy(t *testing.T) {
	trk, clock, meter, cost, sink := newTestTracker()
	clock.t = 1000
	meter.pulses = 42
	trk.Log(EntryPowerState, 3, 7)
	if sink.Len() != 1 {
		t.Fatalf("entries = %d", sink.Len())
	}
	e := sink.Entries[0]
	if e.Time != 1000 || e.IC != 42 || e.Res != 3 || e.Val != 7 || e.Type != EntryPowerState {
		t.Errorf("entry = %+v", e)
	}
	if cost.cycles != 102 {
		t.Errorf("charged %d cycles, want 102 (Table 4)", cost.cycles)
	}
}

func TestTrackerDisable(t *testing.T) {
	trk, _, _, cost, sink := newTestTracker()
	trk.SetEnabled(false)
	trk.Log(EntryPowerState, 1, 1)
	if sink.Len() != 0 || cost.cycles != 0 {
		t.Error("disabled tracker must not log or charge")
	}
	trk.SetEnabled(true)
	trk.Log(EntryPowerState, 1, 1)
	if sink.Len() != 1 {
		t.Error("re-enabled tracker must log")
	}
}

func TestTrackerStats(t *testing.T) {
	trk, _, _, _, _ := newTestTracker()
	for i := 0; i < 5; i++ {
		trk.Log(EntryMarker, 0, uint16(i))
	}
	if trk.Entries() != 5 {
		t.Errorf("Entries = %d", trk.Entries())
	}
	if trk.CostCycles() != 5*102 {
		t.Errorf("CostCycles = %d", trk.CostCycles())
	}
}

func TestLogCostsBreakdown(t *testing.T) {
	c := DefaultLogCosts()
	if c.Call != 41 || c.ReadTimer != 19 || c.ReadICount != 24 || c.Other != 18 {
		t.Errorf("cost breakdown = %+v, want Table 4's 41/19/24/18", c)
	}
	if c.Total() != 102 {
		t.Errorf("total = %d, want 102", c.Total())
	}
}

func TestPowerStateIdempotence(t *testing.T) {
	trk, _, _, _, sink := newTestTracker()
	ps := NewPowerStateVar(trk, 4, 0)
	base := sink.Len() // initial state logged
	ps.Set(1)
	ps.Set(1) // idempotent: no new entry
	ps.Set(1)
	if got := sink.Len() - base; got != 1 {
		t.Errorf("logged %d entries for 3 sets of same value, want 1", got)
	}
	ps.Set(0)
	if got := sink.Len() - base; got != 2 {
		t.Errorf("logged %d entries, want 2", got)
	}
}

func TestPowerStateSetBits(t *testing.T) {
	trk, _, _, _, _ := newTestTracker()
	ps := NewPowerStateVar(trk, 4, 0)
	ps.SetBits(0x3, 2, 0x2) // set bits [3:2] to 10
	if ps.State() != 0x8 {
		t.Errorf("state = %#x, want 0x8", ps.State())
	}
	ps.SetBits(0x1, 0, 1)
	if ps.State() != 0x9 {
		t.Errorf("state = %#x, want 0x9", ps.State())
	}
	ps.SetBits(0x3, 2, 0) // clear the field
	if ps.State() != 0x1 {
		t.Errorf("state = %#x, want 0x1", ps.State())
	}
}

func TestPowerStateNotifiesListeners(t *testing.T) {
	trk, _, _, _, _ := newTestTracker()
	var events []PowerState
	trk.ListenPowerStates(psListener(func(res ResourceID, old, now PowerState) {
		events = append(events, now)
	}))
	ps := NewPowerStateVar(trk, 4, 0)
	ps.Set(2)
	ps.Set(2)
	ps.Set(0)
	if len(events) != 2 || events[0] != 2 || events[1] != 0 {
		t.Errorf("events = %v, want [2 0]", events)
	}
}

type psListener func(ResourceID, PowerState, PowerState)

func (f psListener) PowerStateChanged(res ResourceID, old, now PowerState) { f(res, old, now) }

func TestSingleActivityDevice(t *testing.T) {
	trk, _, _, _, sink := newTestTracker()
	dev := NewSingleActivityDevice(trk, 2)
	if !dev.Get().IsIdle() {
		t.Error("device should start idle")
	}
	red := MkLabel(1, 5)
	dev.Set(red)
	if dev.Get() != red {
		t.Errorf("Get = %v", dev.Get())
	}
	n := sink.Len()
	dev.Set(red) // idempotent
	if sink.Len() != n {
		t.Error("idempotent set logged")
	}
	dev.SetIdle()
	if !dev.Get().IsIdle() {
		t.Error("SetIdle failed")
	}
}

func TestSingleActivityBindLogsBindEntry(t *testing.T) {
	trk, _, _, _, sink := newTestTracker()
	dev := NewSingleActivityDevice(trk, 2)
	proxy := MkLabel(1, 9)
	real := MkLabel(4, 3)
	dev.Set(proxy)
	dev.Bind(real)
	last := sink.Entries[sink.Len()-1]
	if last.Type != EntryActivityBind || last.Label() != real {
		t.Errorf("last entry = %v, want bind to %v", last, real)
	}
	if dev.Get() != real {
		t.Errorf("device label = %v after bind", dev.Get())
	}
}

func TestMultiActivityDevice(t *testing.T) {
	trk, _, _, _, _ := newTestTracker()
	dev := NewMultiActivityDevice(trk, 11)
	a, b := MkLabel(1, 2), MkLabel(1, 3)
	if err := dev.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := dev.Add(a); err == nil {
		t.Error("duplicate add should error")
	}
	if err := dev.Add(b); err != nil {
		t.Fatal(err)
	}
	if dev.Count() != 2 || !dev.Has(a) || !dev.Has(b) {
		t.Error("set contents wrong")
	}
	if err := dev.Remove(a); err != nil {
		t.Fatal(err)
	}
	if err := dev.Remove(a); err == nil {
		t.Error("removing absent label should error")
	}
	if dev.Count() != 1 {
		t.Errorf("Count = %d", dev.Count())
	}
}

func TestRAMBufferCapacity(t *testing.T) {
	buf := NewRAMBuffer(3)
	for i := 0; i < 3; i++ {
		if !buf.Record(Entry{Type: EntryMarker, Val: uint16(i)}) {
			t.Fatalf("record %d rejected", i)
		}
	}
	if buf.Record(Entry{Type: EntryMarker, Val: 99}) {
		t.Error("record into full buffer should fail")
	}
	if !buf.Full() || buf.Len() != 3 || buf.Bytes() != 36 {
		t.Errorf("Full=%v Len=%d Bytes=%d", buf.Full(), buf.Len(), buf.Bytes())
	}
	got := buf.Drain()
	if len(got) != 3 || buf.Len() != 0 {
		t.Error("drain should empty the buffer")
	}
}

func TestRAMBufferDefaultSize(t *testing.T) {
	buf := NewRAMBuffer(0)
	for i := 0; i < DefaultRAMBufferEntries; i++ {
		if !buf.Record(Entry{Type: EntryMarker}) {
			t.Fatalf("rejected at %d, want capacity 800", i)
		}
	}
	if buf.Record(Entry{Type: EntryMarker}) {
		t.Error("801st entry should be rejected")
	}
}

func TestTrackerCountsDrops(t *testing.T) {
	clock := &testClock{}
	meter := &testMeter{}
	buf := NewRAMBuffer(2)
	trk := NewTracker(Config{Node: 1, Clock: clock, Meter: meter, Sink: buf})
	for i := 0; i < 5; i++ {
		trk.Log(EntryMarker, 0, 0)
	}
	if trk.Entries() != 2 || trk.Dropped() != 3 {
		t.Errorf("entries=%d dropped=%d, want 2/3", trk.Entries(), trk.Dropped())
	}
}

func TestTee(t *testing.T) {
	a, b := NewCollector(), NewRAMBuffer(1)
	tee := &Tee{Sinks: []Sink{a, b}}
	if !tee.Record(Entry{Type: EntryMarker}) {
		t.Error("first record should succeed everywhere")
	}
	if tee.Record(Entry{Type: EntryMarker}) {
		t.Error("second record should report the RAM buffer drop")
	}
	if a.Len() != 2 {
		t.Errorf("collector got %d entries, want 2", a.Len())
	}
}

func TestCounterSink(t *testing.T) {
	c := NewCounterSink()
	c.Record(Entry{Type: EntryPowerState, Res: 1})
	c.Record(Entry{Type: EntryPowerState, Res: 2})
	c.Record(Entry{Type: EntryActivitySet, Res: 1})
	if c.PerType[EntryPowerState] != 2 || c.PerType[EntryActivitySet] != 1 {
		t.Errorf("PerType = %v", c.PerType)
	}
	if c.PerRes[1] != 2 || c.PerRes[2] != 1 {
		t.Errorf("PerRes = %v", c.PerRes)
	}
}

func TestDictionary(t *testing.T) {
	d := NewDictionary()
	d.NameResource(3, "Led0")
	d.NameActivity(1, 4, "Blue")
	if d.ResourceName(3) != "Led0" {
		t.Errorf("ResourceName = %q", d.ResourceName(3))
	}
	if d.ResourceName(9) != "res9" {
		t.Errorf("fallback = %q", d.ResourceName(9))
	}
	if d.LabelName(MkLabel(1, 4)) != "1:Blue" {
		t.Errorf("LabelName = %q", d.LabelName(MkLabel(1, 4)))
	}
	if d.LabelName(MkLabel(2, ActIdle)) != "2:Idle" {
		t.Errorf("idle name = %q", d.LabelName(MkLabel(2, ActIdle)))
	}
	if d.LabelName(MkLabel(2, ActVTimer)) != "2:VTimer" {
		t.Errorf("vtimer name = %q", d.LabelName(MkLabel(2, ActVTimer)))
	}
}

func TestDictionaryProxiesAndMerge(t *testing.T) {
	d := NewDictionary()
	p := MkLabel(1, 7)
	d.MarkProxy(p)
	d.NameActivity(1, 7, "int_X")
	d.NameActivity(2, 3, "App")
	if !d.IsProxy(p) {
		t.Error("proxy flag not set")
	}
	if d.IsProxy(MkLabel(2, 3)) {
		t.Error("unmarked label reads as a proxy")
	}
	if d.LabelName(p) != "1:int_X" {
		t.Errorf("proxy name = %q", d.LabelName(p))
	}
	if len(d.Proxies()) != 1 {
		t.Errorf("proxies = %v", d.Proxies())
	}
}

func TestTrackerRequiresDependencies(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTracker without clock should panic")
		}
	}()
	NewTracker(Config{Node: 1})
}

func TestEntryTypeStrings(t *testing.T) {
	for typ, want := range map[EntryType]string{
		EntryPowerState:     "ps",
		EntryActivitySet:    "act",
		EntryActivityBind:   "bind",
		EntryActivityAdd:    "add",
		EntryActivityRemove: "rem",
		EntryMarker:         "mark",
		EntryType(99):       "type(99)",
	} {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
}
