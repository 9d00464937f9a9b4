package medium

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/units"
)

func TestPlacements(t *testing.T) {
	line := PlaceLine(5, 40)
	if len(line) != 5 || line[0] != (Position{}) || line[4] != (Position{X: 40}) {
		t.Errorf("line = %v", line)
	}
	if line[1] != (Position{X: 10}) {
		t.Errorf("line spacing = %v", line[1])
	}

	grid := PlaceGrid(9, 20) // 3x3, 10 m pitch
	if len(grid) != 9 {
		t.Fatalf("grid size = %d", len(grid))
	}
	if grid[4] != (Position{X: 10, Y: 10}) || grid[8] != (Position{X: 20, Y: 20}) {
		t.Errorf("grid = %v", grid)
	}

	rgg := PlaceRandomGeometric(50, 100, 42)
	for i, p := range rgg {
		if p.X < 0 || p.X >= 100 || p.Y < 0 || p.Y >= 100 {
			t.Fatalf("rgg[%d] = %v outside the area", i, p)
		}
	}
}

// TestRGGSeedStability pins that random-geometric placement is a pure
// function of (n, side, seed): replays are identical, different seeds give
// different layouts.
func TestRGGSeedStability(t *testing.T) {
	a := PlaceRandomGeometric(32, 100, 7)
	b := PlaceRandomGeometric(32, 100, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rgg not seed-stable at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := PlaceRandomGeometric(32, 100, 8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced an identical layout")
	}
}

func TestLinkModel(t *testing.T) {
	cfg := SpatialConfig{}.withDefaults()
	// Log-distance: 1 m is the reference loss, each decade costs 10·n dB.
	if got := cfg.RSSI(1); got != -40 {
		t.Errorf("rssi(1m) = %v, want -40", got)
	}
	if got := cfg.RSSI(10); math.Abs(got-(-70)) > 1e-9 {
		t.Errorf("rssi(10m) = %v, want -70", got)
	}
	// Close links are exactly lossless; the range edge sits in the gray
	// region; silence beyond.
	if prr := cfg.PRR(cfg.RSSI(10)); prr != 1 {
		t.Errorf("prr(10m) = %v, want exactly 1", prr)
	}
	edge := cfg.PRR(cfg.RSSI(50))
	if edge <= 0 || edge >= 0.9 {
		t.Errorf("prr(50m) = %v, want a lossy gray-region link", edge)
	}
	// Monotonic in distance.
	prev := 2.0
	for _, d := range []float64{1, 5, 10, 20, 30, 40, 50, 70} {
		p := cfg.PRR(cfg.RSSI(d))
		if p > prev {
			t.Fatalf("prr not monotonic at %v m", d)
		}
		prev = p
	}
}

// spatialWorld builds a medium with receivers at the given positions (node
// ids 1..n in slice order).
func spatialWorld(t *testing.T, cfg SpatialConfig, pos []Position) (*sim.Simulator, *Medium, []*fakeReceiver) {
	t.Helper()
	s := sim.New()
	m := New(s)
	m.EnableSpatial(cfg)
	rcvs := make([]*fakeReceiver, len(pos))
	for i, p := range pos {
		rcvs[i] = &fakeReceiver{node: core.NodeID(i + 1)}
		m.Register(rcvs[i])
		m.SetPosition(rcvs[i].node, p)
	}
	return s, m, rcvs
}

// eagerNeighbors is the reference for the on-demand index: every registered
// node's sorted in-range neighbor list, built all at once in O(nodes ·
// neighbors) with a uniform grid hash of TxRangeM-sized cells. Each row the
// medium builds when its node first sends must equal this one bit for bit.
func eagerNeighbors(m *Medium) map[core.NodeID][]neighbor {
	sp := m.sp
	cell := sp.cfg.TxRangeM
	n := len(m.receivers)

	// Snapshot id/position per receiver index.
	ids := make([]core.NodeID, n)
	xs := make([]float64, n)
	ys := make([]float64, n)
	cells := make([]uint64, n)
	for i, r := range m.receivers {
		id := r.Node()
		p, ok := sp.pos[id]
		if !ok {
			panic(fmt.Sprintf("medium: node %d has no position", id))
		}
		ids[i], xs[i], ys[i] = id, p.X, p.Y
		cells[i] = packCell(int64(math.Floor(p.X/cell)), int64(math.Floor(p.Y/cell)))
	}
	// Chained cell buckets: head maps a cell to its first receiver index,
	// next links the rest.
	head := make(map[uint64]int32, n)
	next := make([]int32, n)
	for i := n - 1; i >= 0; i-- {
		j, ok := head[cells[i]]
		if !ok {
			j = -1
		}
		next[i] = j
		head[cells[i]] = int32(i)
	}

	rangeSq := sp.cfg.TxRangeM * sp.cfg.TxRangeM
	rows := make(map[core.NodeID][]neighbor, n)
	for i := 0; i < n; i++ {
		var list []neighbor
		px, py := xs[i], ys[i]
		cx := int64(math.Floor(px / cell))
		cy := int64(math.Floor(py / cell))
		for dx := int64(-1); dx <= 1; dx++ {
			for dy := int64(-1); dy <= 1; dy++ {
				for j := headOr(head, packCell(cx+dx, cy+dy)); j >= 0; j = next[j] {
					if int(j) == i {
						continue
					}
					ddx, ddy := xs[j]-px, ys[j]-py
					d2 := ddx*ddx + ddy*ddy
					if d2 > rangeSq {
						continue
					}
					rssi := sp.cfg.RSSI(math.Sqrt(d2))
					list = append(list, neighbor{
						id: ids[j], rcv: m.receivers[j], rssi: rssi, prr: sp.cfg.PRR(rssi),
					})
				}
			}
		}
		for a := 1; a < len(list); a++ {
			nb := list[a]
			b := a - 1
			for b >= 0 && list[b].id > nb.id {
				list[b+1] = list[b]
				b--
			}
			list[b+1] = nb
		}
		rows[ids[i]] = list
	}
	return rows
}

// checkRows compares every row the medium's index holds against the
// reference: ids, receivers, and RSSI and PRR as float bits. A node the
// reference has no row for (one that is not registered) must have an
// empty one.
func checkRows(t *testing.T, m *Medium) {
	t.Helper()
	ref := eagerNeighbors(m)
	ix := m.sp.nbr
	for src, r := range ix.rows {
		want := ref[src]
		if int(r.hi-r.lo) != len(want) {
			t.Errorf("node %d: row of %d links, want %d", src, r.hi-r.lo, len(want))
			continue
		}
		for k, nb := range want {
			c := int(r.lo) + k
			if ix.ids[c] != nb.id || ix.rcvs[c] != nb.rcv ||
				math.Float64bits(ix.rssi[c]) != math.Float64bits(nb.rssi) ||
				math.Float64bits(ix.prr[c]) != math.Float64bits(nb.prr) {
				t.Errorf("node %d link %d: (%d, %.17g dBm, prr %.17g), want (%d, %.17g dBm, prr %.17g)",
					src, k, ix.ids[c], ix.rssi[c], ix.prr[c], nb.id, nb.rssi, nb.prr)
			}
		}
	}
}

// TestNeighborRowsMatchEager checks the on-demand index against the eager
// reference on line, grid and random-geometric placements: a node's first
// transmission builds exactly its row, a repeat builds nothing, every built
// row equals the reference's bit for bit, and after a relocation or an
// unregistration the next transmissions start over on the new topology.
func TestNeighborRowsMatchEager(t *testing.T) {
	cases := []struct {
		name string
		pos  []Position
	}{
		{"line", PlaceLine(40, 600)},               // 15.4 m pitch
		{"grid", PlaceGrid(49, 180)},               // 7x7, 30 m pitch
		{"rgg", PlaceRandomGeometric(200, 300, 3)}, // ~17 neighbors each
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := SpatialConfig{TxRangeM: 50, Seed: 1}
			s, m, rcvs := spatialWorld(t, cfg, tc.pos)
			n := len(rcvs)
			// send transmits from each node in turn and checks what each
			// transmission built: the sender's row, appended to the link
			// arrays, the first time; nothing on a repeat.
			send := func(nodes ...int) {
				t.Helper()
				for _, i := range nodes {
					id := core.NodeID(i + 1)
					rows, links, built := 0, 0, false
					if ix := m.sp.nbr; ix != nil {
						rows, links = len(ix.rows), len(ix.ids)
						_, built = ix.rows[id]
					}
					m.Transmit(&Frame{Src: id, Channel: 26, Bytes: 20, Airtime: 640})
					ix := m.sp.nbr
					r := ix.rows[id]
					if built {
						if len(ix.rows) != rows || len(ix.ids) != links {
							t.Fatalf("node %d's repeat transmission built %d rows and %d links, want none",
								id, len(ix.rows)-rows, len(ix.ids)-links)
						}
					} else if len(ix.rows) != rows+1 || r != (colRange{int32(links), int32(len(ix.ids))}) {
						t.Fatalf("node %d's first transmission built %d rows and links [%d, %d) and gave it row [%d, %d); want its own row over the new links",
							id, len(ix.rows)-rows, links, len(ix.ids), r.lo, r.hi)
					}
				}
				s.Run(s.Now() + 1000)
			}
			// Every other node, then all of them: half repeat a row.
			var evens, all []int
			for i := n - 1; i >= 0; i-- {
				if i%2 == 0 {
					evens = append(evens, i)
				}
				all = append(all, i)
			}
			send(evens...)
			if got := len(m.sp.nbr.rows); got != len(evens) {
				t.Fatalf("%d rows after %d senders", got, len(evens))
			}
			send(all...)
			if links := len(m.sp.nbr.ids); links < 2*n {
				t.Fatalf("%d links over %d nodes: too sparse to test rows", links, n)
			}
			checkRows(t, m)

			// Relocations, one into negative cell coordinates: the index
			// starts over, and only the next senders get rows.
			m.SetPosition(1, Position{X: -30, Y: -70})
			m.SetPosition(core.NodeID(n/2), tc.pos[n-1])
			if m.sp.nbr != nil {
				t.Fatal("SetPosition kept the index")
			}
			send(0, n/2-1, n-1, n/3)
			if got := len(m.sp.nbr.rows); got != 4 {
				t.Fatalf("%d rows after 4 senders on the new topology", got)
			}
			checkRows(t, m)

			// An unregistered node drops out of every row, and its own
			// row is empty.
			gone := n / 3
			m.Unregister(rcvs[gone])
			send(all...)
			checkRows(t, m)
			if r := m.sp.nbr.rows[core.NodeID(gone+1)]; r.hi != r.lo {
				t.Errorf("unregistered node %d has a row of %d links", gone+1, r.hi-r.lo)
			}
		})
	}
}

func TestSpatialRangeGating(t *testing.T) {
	// A 30 m-pitch grid with 50 m range and hot transmit power (every
	// in-range link lossless): the corner node reaches exactly its three
	// grid neighbors, nobody else.
	cfg := SpatialConfig{TxRangeM: 50, TxPowerDBm: 10, Seed: 1}
	pos := PlaceGrid(9, 60) // 3x3, 30 m pitch
	s, m, rcvs := spatialWorld(t, cfg, pos)

	f := &Frame{Src: 1, Channel: 26, Bytes: 20, Airtime: 640}
	m.Transmit(f)
	// Only the transmitter's row is built: its 3 links, and no row for the
	// 8 nodes that have not sent (which the whole grid's 40 links would
	// need).
	ix := m.sp.nbr
	if len(ix.rows) != 1 || ix.rows[1] != (colRange{0, 3}) || len(ix.ids) != 3 {
		t.Errorf("index rows %v over %d links, want only node 1's 3 links", ix.rows, len(ix.ids))
	}
	want := map[int]bool{2: true, 4: true, 5: true} // 30, 30, 42.4 m away
	for i, r := range rcvs {
		got := len(r.frames) == 1
		if got != want[i+1] {
			t.Errorf("node %d heard=%v, want %v", i+1, got, want[i+1])
		}
	}
	s.Run(2000)
	ls := m.LinkStats()
	if len(ls) != 3 {
		t.Fatalf("links = %d, want 3: %+v", len(ls), ls)
	}
	for _, l := range ls {
		if l.Src != 1 || l.Attempts != 1 || l.Delivered != 1 || l.PRR != 1 {
			t.Errorf("link %+v", l)
		}
	}
}

// TestCollisionBothCorrupt: two transmitters equidistant from the receiver
// have comparable power, so neither captures and both frames corrupt. In
// the static case fb's row is appended to the link arrays fa's pending state
// aliases. The in-flight case moves a bystander between the two
// transmissions: fb's Transmit starts a new index while fa's pending state
// still aliases the old arrays, and nothing may change. fb's row heads the
// new generation's arrays, as fa's headed the old: a new generation that
// wrote into the old arrays would overwrite the candidates fa still resolves
// against.
func TestCollisionBothCorrupt(t *testing.T) {
	cases := []struct {
		name string
		move *Position // the bystander's position between fa and fb; nil: it stays
	}{
		{name: "static"},
		// 99.8 m from the listener, just over 100 m from either transmitter.
		{name: "topology change in flight", move: &Position{Y: 99.8}},
	}
	want := []LinkStat{
		{Src: 2, Dst: 3, Attempts: 1, Delivered: 1, PRR: 1},
		{Src: 2, Dst: 4, Attempts: 1, Collisions: 1},
		{Src: 3, Dst: 2, Attempts: 1, Delivered: 1, PRR: 1},
		{Src: 3, Dst: 4, Attempts: 1, Collisions: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := SpatialConfig{TxRangeM: 100, TxPowerDBm: 10, Seed: 1}
			s, m, rcvs := spatialWorld(t, cfg, []Position{
				{Y: 500}, // 1: the bystander, out of everyone's range
				{X: -10}, // 2 sends fa
				{X: 10},  // 3 sends fb
				{},       // 4 listens in the middle
			})
			fa := &Frame{Src: 2, Channel: 26, Bytes: 20, Airtime: 640}
			fb := &Frame{Src: 3, Channel: 26, Bytes: 20, Airtime: 640}
			m.Transmit(fa)
			built := m.sp.nbr
			s.Schedule(100, sim.PrioHardware, func() {
				if tc.move != nil {
					m.SetPosition(1, *tc.move)
				}
				m.Transmit(fb)
			})
			s.Run(200)
			if rebuilt := m.sp.nbr != built; rebuilt != (tc.move != nil) {
				t.Fatalf("index rebuilt = %v, want %v", rebuilt, tc.move != nil)
			}

			if m.Delivered(fa, 4) || m.Delivered(fb, 4) {
				// fa was corrupted mid-air by fb; fb arrived under fa's energy.
				t.Errorf("delivered: fa=%v fb=%v, want false/false",
					m.Delivered(fa, 4), m.Delivered(fb, 4))
			}
			// The receiver attempted to sync on both (FrameStart fired for
			// each); the corruption verdict is what the Delivered query at
			// drain time reports, mirroring how the radio discards a
			// corrupted RXFIFO.
			if len(rcvs[3].frames) != 2 || rcvs[3].frames[0] != fa || rcvs[3].frames[1] != fb {
				t.Errorf("receiver 4 frames = %v", rcvs[3].frames)
			}
			if len(rcvs[0].frames) != 0 {
				t.Errorf("bystander heard %d frames, want 0", len(rcvs[0].frames))
			}
			s.Run(2000)
			if got := m.Collisions(); got != 2 {
				t.Errorf("collisions = %d, want 2 (both receptions lost)", got)
			}
			if got := m.LinkStats(); !slices.Equal(got, want) {
				t.Errorf("links = %+v, want %+v", got, want)
			}
		})
	}
}

func TestCaptureStrongerFirstSurvives(t *testing.T) {
	// The ongoing frame is far stronger than the late arrival: capture
	// keeps it decodable; only the weak late frame is lost.
	cfg := SpatialConfig{TxRangeM: 100, Seed: 1}
	s, m, _ := spatialWorld(t, cfg, []Position{
		{X: 1}, {X: 90}, {}, // 1 is 1 m from the listener, 2 is 90 m out
	})
	fa := &Frame{Src: 1, Channel: 26, Bytes: 20, Airtime: 640}
	fb := &Frame{Src: 2, Channel: 26, Bytes: 20, Airtime: 640}
	m.Transmit(fa)
	s.Schedule(100, sim.PrioHardware, func() { m.Transmit(fb) })
	s.Run(200)
	if !m.Delivered(fa, 3) {
		t.Error("strong ongoing frame should capture over the weak arrival")
	}
	if m.Delivered(fb, 3) {
		t.Error("weak late frame should be lost under the capture")
	}
}

func TestCaptureStrongerLateWins(t *testing.T) {
	// The late frame is far stronger: it captures the receiver away from
	// the weak ongoing frame.
	cfg := SpatialConfig{TxRangeM: 100, Seed: 1}
	s, m, _ := spatialWorld(t, cfg, []Position{
		{X: 90}, {X: 1}, {}, // 1 weak/first, 2 strong/late
	})
	fa := &Frame{Src: 1, Channel: 26, Bytes: 40, Airtime: 1440}
	fb := &Frame{Src: 2, Channel: 26, Bytes: 20, Airtime: 640}
	m.Transmit(fa)
	s.Schedule(100, sim.PrioHardware, func() { m.Transmit(fb) })
	s.Run(200)
	if m.Delivered(fa, 3) {
		t.Error("weak ongoing frame should be corrupted by the strong arrival")
	}
	if !m.Delivered(fb, 3) {
		t.Error("strong late frame should capture the receiver")
	}
}

// refusingReceiver models a radio that never syncs (off, busy, detuned).
type refusingReceiver struct{ node core.NodeID }

func (r *refusingReceiver) Node() core.NodeID        { return r.node }
func (r *refusingReceiver) FrameStart(f *Frame) bool { return false }

// TestMissNotCollision pins the classification contract: a receiver that
// never synced (half-duplex busy, off, or detuned) tallies overlapping
// frames as MAC-level misses, never as collisions — there was no reception
// to lose, so the collision counters must not inflate.
func TestMissNotCollision(t *testing.T) {
	s := sim.New()
	m := New(s)
	m.EnableSpatial(SpatialConfig{TxRangeM: 100, TxPowerDBm: 10, Seed: 1})
	for i, p := range []Position{{X: -10}, {X: 10}} {
		r := &fakeReceiver{node: core.NodeID(i + 1)}
		m.Register(r)
		m.SetPosition(r.node, p)
	}
	busy := &refusingReceiver{node: 3}
	m.Register(busy)
	m.SetPosition(3, Position{})

	fa := &Frame{Src: 1, Channel: 26, Bytes: 20, Airtime: 640}
	fb := &Frame{Src: 2, Channel: 26, Bytes: 20, Airtime: 640}
	m.Transmit(fa)
	s.Schedule(100, sim.PrioHardware, func() { m.Transmit(fb) })
	s.Run(5000)

	if got := m.Collisions(); got != 0 {
		t.Errorf("collisions = %d, want 0 (receiver never synced)", got)
	}
	for _, l := range m.LinkStats() {
		if l.Dst != 3 {
			continue
		}
		if l.Attempts != 1 || l.Delivered != 0 || l.Collisions != 0 {
			t.Errorf("link %+v, want 1 attempt, 0 delivered, 0 collisions", l)
		}
	}
}

// TestSpatialDeterminism pins that two identically-configured spatial
// worlds produce identical delivery outcomes and link tables.
func TestSpatialDeterminism(t *testing.T) {
	run := func() []LinkStat {
		cfg := SpatialConfig{TxRangeM: 60, Seed: 99}
		s, m, _ := spatialWorld(t, cfg, PlaceRandomGeometric(30, 120, 5))
		for i := 0; i < 20; i++ {
			src := core.NodeID(i%30 + 1)
			at := units.Ticks(i) * 1000
			s.Schedule(at, sim.PrioHardware, func() {
				m.Transmit(&Frame{Src: src, Channel: 26, Bytes: 20, Airtime: 640})
			})
		}
		s.Run(40000)
		return m.LinkStats()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("link table sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("link %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestEnergyOnHalfOpenBoundary pins the deterministic CCA boundary: a frame
// occupies exactly [SentAt, SentAt+Airtime), independent of whether the
// expiry event has run yet.
func TestEnergyOnHalfOpenBoundary(t *testing.T) {
	s := sim.New()
	m := New(s)
	f := &Frame{Src: 1, Channel: 26, Bytes: 20, Airtime: 640}
	m.Transmit(f)
	// The frame is still in m.active (no events have run), so only the
	// time gate can exclude it.
	if e := m.EnergyOn(26, 0); e != 1 {
		t.Errorf("energy at start = %v, want 1", e)
	}
	if e := m.EnergyOn(26, 639); e != 1 {
		t.Errorf("energy at last tick = %v, want 1", e)
	}
	if e := m.EnergyOn(26, 640); e != 0 {
		t.Errorf("energy at SentAt+Airtime = %v, want 0 (half-open)", e)
	}
}

func TestEnergyOnAtSpatialRange(t *testing.T) {
	cfg := SpatialConfig{TxRangeM: 50, Seed: 1}
	_, m, _ := spatialWorld(t, cfg, []Position{{}, {X: 10}, {X: 200}})
	f := &Frame{Src: 1, Channel: 26, Bytes: 20, Airtime: 640}
	m.Transmit(f)
	if e := m.EnergyOnAt(2, 26, 0); e != 1 {
		t.Errorf("near node sees %v, want 1", e)
	}
	if e := m.EnergyOnAt(3, 26, 0); e != 0 {
		t.Errorf("far node sees %v, want 0", e)
	}
}

// TestDutyCycleBinarySearchMatchesScan pins that the binary-search window
// fold returns exactly what the full scan did.
func TestDutyCycleBinarySearchMatchesScan(t *testing.T) {
	w := NewWiFiSource(6, 5*units.Millisecond, 23*units.Millisecond, 31)
	w.ensure(100 * units.Second)
	scan := func(t0, t1 units.Ticks) float64 {
		var on units.Ticks
		for _, b := range w.bursts {
			if b.end <= t0 || b.start >= t1 {
				continue
			}
			s, e := b.start, b.end
			if s < t0 {
				s = t0
			}
			if e > t1 {
				e = t1
			}
			on += e - s
		}
		return float64(on) / float64(t1-t0)
	}
	for _, win := range [][2]units.Ticks{
		{0, units.Second},
		{90 * units.Second, 91 * units.Second}, // late window, deep in the burst list
		{50*units.Second + 137, 50*units.Second + 999},
		{0, 100 * units.Second},
	} {
		got := w.DutyCycle(win[0], win[1])
		want := scan(win[0], win[1])
		if got != want {
			t.Errorf("DutyCycle%v = %v, want %v", win, got, want)
		}
	}
}
