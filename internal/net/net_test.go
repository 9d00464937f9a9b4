package net

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/medium"
	"repro/internal/mote"
	"repro/internal/radio"
	"repro/internal/units"
)

func TestBeaconRoundTrip(t *testing.T) {
	cases := []Beacon{
		{Seq: 0, PathETX: 0, Margin: 1},
		{Seq: 65535, PathETX: 3.25, Margin: 0},
		{Seq: 7, PathETX: math.Inf(1), Margin: 0.5},
	}
	for _, b := range cases {
		got, ok := decodeBeacon(b.encode(nil))
		if !ok {
			t.Fatalf("decode failed for %+v", b)
		}
		if got.Seq != b.Seq {
			t.Errorf("seq = %d, want %d", got.Seq, b.Seq)
		}
		if math.IsInf(b.PathETX, 1) != math.IsInf(got.PathETX, 1) {
			t.Errorf("inf mismatch: %v vs %v", got.PathETX, b.PathETX)
		}
		if !math.IsInf(b.PathETX, 1) && math.Abs(got.PathETX-b.PathETX) > 1.0/etxScale {
			t.Errorf("etx = %v, want %v ± 1/%d", got.PathETX, b.PathETX, etxScale)
		}
		if math.Abs(got.Margin-b.Margin) > 1.0/255 {
			t.Errorf("margin = %v, want %v", got.Margin, b.Margin)
		}
	}
	if _, ok := decodeBeacon([]byte{1, 2}); ok {
		t.Error("truncated payload decoded")
	}
	// Out-of-range inputs clamp instead of wrapping.
	got, _ := decodeBeacon(Beacon{PathETX: 1e9, Margin: 7}.encode(nil))
	if math.IsInf(got.PathETX, 1) || got.PathETX < 4000 {
		t.Errorf("huge finite etx encoded as %v", got.PathETX)
	}
	if got.Margin != 1 {
		t.Errorf("margin clamped to %v, want 1", got.Margin)
	}
}

// routedWorld assembles a spatial world with a collection tree: node ids
// are 1..len(pos) in slice order, every node has a radio, and each boots
// into listening with its router started.
func routedWorld(t *testing.T, seed uint64, pos []medium.Position, cfg TreeConfig, perNode func(id core.NodeID, o *mote.Options)) (*mote.World, *Tree) {
	t.Helper()
	w := mote.NewWorld(seed)
	for i := range pos {
		opts := mote.DefaultOptions()
		id := core.NodeID(i + 1)
		if perNode != nil {
			perNode(id, &opts)
		}
		opts.Radio = true
		opts.RadioConfig = radio.Config{Channel: 26}
		w.AddNode(id, opts)
	}
	tree, err := NewTree(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ConfigureSpatial(medium.SpatialConfig{TxRangeM: 50, TxPowerDBm: 10, Seed: seed}, pos); err != nil {
		t.Fatal(err)
	}
	for i, n := range w.Nodes {
		n, rt := n, tree.Router(i)
		n.K.Boot(func() {
			n.Radio.TurnOn(func() {
				n.Radio.StartListening()
				rt.Start()
			})
		})
	}
	return w, tree
}

// TestTreeFormsOnLine pins tree formation: on a 4-node line (30 m pitch,
// 50 m range — only adjacent nodes hear each other) every node converges to
// its line predecessor as parent, with path ETX increasing down the line.
func TestTreeFormsOnLine(t *testing.T) {
	pos := medium.PlaceLine(4, 90)
	w, tree := routedWorld(t, 42, pos, TreeConfig{Root: 1}, nil)
	w.Run(8 * units.Second)

	for i := 1; i < 4; i++ {
		rt := tree.Router(i)
		parent, ok := rt.Parent()
		if !ok || parent != core.NodeID(i) {
			t.Errorf("node %d parent = %d (ok=%v), want %d", i+1, parent, ok, i)
		}
		if up := tree.Router(i - 1).PathETX(); rt.PathETX() <= up {
			t.Errorf("node %d path etx %v not above its parent's %v", i+1, rt.PathETX(), up)
		}
	}
	s := tree.Stats()
	if s.Routed != 3 {
		t.Errorf("routed = %d, want 3", s.Routed)
	}
	if s.BeaconsTx == 0 || s.BeaconsRx == 0 {
		t.Errorf("no beacon traffic: %+v", s)
	}
	// Lossless links keep ETX pinned at 1, so the line's costs are ~1,2,3.
	if etx := tree.Router(3).PathETX(); math.Abs(etx-3) > 0.5 {
		t.Errorf("tail path etx = %v, want ~3", etx)
	}
}

// TestTreeDeterministic pins that two identically-seeded routed runs
// converge to identical tables, parents, and counters.
func TestTreeDeterministic(t *testing.T) {
	run := func() (parents []core.NodeID, stats TreeStats) {
		pos := medium.PlaceRandomGeometric(8, 100, 5)
		w, tree := routedWorld(t, 11, pos, TreeConfig{Root: 1}, nil)
		w.Run(10 * units.Second)
		for i := range pos {
			p, _ := tree.Router(i).Parent()
			parents = append(parents, p)
		}
		return parents, tree.Stats()
	}
	p1, s1 := run()
	p2, s2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("node %d parent diverged: %d vs %d", i+1, p1[i], p2[i])
		}
	}
}

// TestRerouteOnParentDeath pins energy-aware rerouting end to end: a leaf
// whose parent's battery depletes mid-run switches to the surviving relay
// within a beacon period of the death notification.
func TestRerouteOnParentDeath(t *testing.T) {
	// Diamond: root (1) at origin; relays 2 and 3 both in range of root and
	// leaf (4); leaf out of the root's range. Both relays offer equal-cost
	// routes; the leaf joins relay 3 — its staggered beacon phase puts its
	// route advertisement on the air first — and relay 3's battery dies
	// mid-run, forcing the reroute onto relay 2.
	pos := []medium.Position{
		{X: 0, Y: 0},   // root
		{X: 30, Y: 0},  // relay 2
		{X: 30, Y: 25}, // relay 3 — finite battery
		{X: 60, Y: 0},  // leaf: 30 m to relay 2, 39 m to relay 3, 60 m to root (cut off)
	}
	w, tree := routedWorld(t, 9, pos, TreeConfig{Root: 1}, func(id core.NodeID, o *mote.Options) {
		if id == 3 {
			o.BatteryUAH = 60 // ~10 s at listening draw
		}
	})
	w.Run(60 * units.Second)

	if len(w.Deaths) != 1 || w.Deaths[0].Node != 3 {
		t.Fatalf("deaths = %+v, want exactly node 3", w.Deaths)
	}
	leaf := tree.Router(3)
	parent, ok := leaf.Parent()
	if !ok || parent != 2 {
		t.Fatalf("leaf parent after death = %d (ok=%v), want relay 2", parent, ok)
	}
	if nb := leaf.neighbor(3); nb != nil {
		t.Error("dead relay still in the leaf's neighbor table")
	}
	if s := leaf.Stats(); s.ParentChanges < 2 {
		t.Errorf("parent changes = %d, want ≥ 2 (join + reroute)", s.ParentChanges)
	}
}

// TestWaypointDeterminism pins the mobility contract: a walker's path is a
// pure function of (seed, id, start, area, speed) — replays are identical,
// other ids' paths are independent — and never leaves the area.
func TestWaypointDeterminism(t *testing.T) {
	mk := func(id core.NodeID) *Waypoint {
		return NewWaypoint(3, id, medium.Position{X: 10, Y: 20}, 100, 1.5)
	}
	a, b := mk(7), mk(7)
	other := mk(9)
	diverged := false
	for tick := units.Ticks(0); tick < 600*units.Second; tick += 777 * units.Millisecond {
		pa, pb := a.PositionAt(tick), b.PositionAt(tick)
		if pa != pb {
			t.Fatalf("replay diverged at %v: %v vs %v", tick, pa, pb)
		}
		if pa.X < 0 || pa.X > 100 || pa.Y < 0 || pa.Y > 100 {
			t.Fatalf("left the area at %v: %v", tick, pa)
		}
		if pa != other.PositionAt(tick) {
			diverged = true
		}
	}
	if !diverged {
		t.Error("different node ids walked identical paths")
	}
	// Out-of-order queries re-read materialized legs without changing them.
	far := a.PositionAt(2000 * units.Second)
	if got := a.PositionAt(100 * units.Second); got != b.PositionAt(100*units.Second) {
		t.Errorf("out-of-order read changed history: %v", got)
	}
	if a.PositionAt(2000*units.Second) != far {
		t.Error("repeated far read changed")
	}
}

// TestDriftClosedForm pins the drift model: constant velocity from a single
// heading draw, reflecting off the walls.
func TestDriftClosedForm(t *testing.T) {
	d := NewDrift(3, 5, medium.Position{X: 50, Y: 50}, 100, 2)
	p0 := d.PositionAt(0)
	if p0 != (medium.Position{X: 50, Y: 50}) {
		t.Fatalf("start = %v", p0)
	}
	// Speed check: after 1 s the displacement is exactly 2 m (no wall hit
	// possible from the center at 2 m/s).
	p1 := d.PositionAt(units.Second)
	if got := p0.Distance(p1); math.Abs(got-2) > 1e-9 {
		t.Errorf("1 s displacement = %v m, want 2", got)
	}
	// Stays in bounds arbitrarily far out (reflection, not escape).
	for _, tick := range []units.Ticks{0, units.Second, 500 * units.Second, 12345 * units.Second} {
		p := d.PositionAt(tick)
		if p.X < 0 || p.X > 100 || p.Y < 0 || p.Y > 100 {
			t.Fatalf("drift left the area at %v: %v", tick, p)
		}
	}
	// Replays are identical; a different id draws a different heading.
	if NewDrift(3, 5, medium.Position{X: 50, Y: 50}, 100, 2).PositionAt(7777) != d.PositionAt(7777) {
		t.Error("drift replay diverged")
	}
	if NewDrift(3, 6, medium.Position{X: 50, Y: 50}, 100, 2).PositionAt(units.Second) == d.PositionAt(units.Second) {
		t.Error("different ids drew the same heading")
	}
}

// TestFold pins the reflection helper's edge cases.
func TestFold(t *testing.T) {
	cases := []struct{ x, limit, want float64 }{
		{5, 10, 5},
		{15, 10, 5},
		{25, 10, 5},
		{-5, 10, 5},
		{0, 10, 0},
		{10, 10, 10},
		{20, 10, 0},
		{3, 0, 0},
	}
	for _, c := range cases {
		if got := fold(c.x, c.limit); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("fold(%v, %v) = %v, want %v", c.x, c.limit, got, c.want)
		}
	}
}
