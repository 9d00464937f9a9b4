// Spatial propagation: node positions, a log-distance path-loss + PRR link
// model, per-receiver delivery, and receiver-side collision handling with
// capture. This is the layer that makes density, range, and contention —
// the dimensions that shape multi-hop energy — sweepable, replacing the
// "every node hears every node" broadcast model when configured.
//
// Delivery is O(neighbors), not O(nodes): the medium builds per-node
// neighbor lists (via a uniform grid hash with cells of TxRangeM) and
// Transmit walks only the transmitter's list. Any topology change — a
// registration, a death, a relocation — drops the index, and the next
// transmission rebuilds it, so a mobility epoch that moves every node costs
// at most one build (see mobility.go).
//
// Determinism: neighbor lists are sorted by node id, exactly one PRR draw
// is consumed per candidate receiver per frame from the medium's own RNG
// stream, and collision outcomes are pure functions of frame timing and
// link RSSI — so a spatial run is as reproducible as a broadcast one.
package medium

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/sim"
)

// Position is a node's fixed location on the deployment plane, in meters.
type Position struct{ X, Y float64 }

// Distance returns the Euclidean distance to q in meters.
func (p Position) Distance(q Position) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Defaults and model constants of the spatial link layer.
const (
	// DefaultPathLossExp is the log-distance path-loss exponent (indoor /
	// light obstruction; free space is 2, dense indoor up to 4+).
	DefaultPathLossExp = 3.0
	// DefaultTxRangeM is the hard delivery cutoff in meters; beyond it a
	// transmission contributes neither frames nor interference.
	DefaultTxRangeM = 50.0
	// DefaultCaptureDB is the power margin at which a receiver decodes the
	// stronger of two overlapping co-channel frames instead of losing both.
	DefaultCaptureDB = 3.0
	// DefaultRefLossDB is the path loss at the 1 m reference distance.
	DefaultRefLossDB = 40.0
	// DefaultNoiseDBm is the receiver noise floor.
	DefaultNoiseDBm = -95.0

	// prrMidSNRDB / prrWidthDB shape the logistic SNR→PRR curve: PRR is 0.5
	// at the midpoint and transitions over a few widths — the classic
	// 802.15.4 "gray region" between solid links and silence.
	prrMidSNRDB = 5.0
	prrWidthDB  = 1.0
	// prrSureSNRDB is the SNR above which the link is treated as lossless
	// (the logistic is within 3e-4 of 1 there), so short links never fail.
	prrSureSNRDB = prrMidSNRDB + 8
	// minDistanceM clamps the path-loss distance so co-located nodes do not
	// produce unbounded RSSI.
	minDistanceM = 0.1
)

// SpatialConfig parameterizes the spatial link layer. The zero value of
// every field selects the default above, so an empty config is a working
// 50 m-range indoor model.
type SpatialConfig struct {
	// PathLossExp is the log-distance path-loss exponent.
	PathLossExp float64
	// TxRangeM is the hard delivery cutoff in meters. It also sizes the
	// neighbor-index grid cells, so it bounds per-transmit work.
	TxRangeM float64
	// CaptureDB is the capture margin: when two co-channel frames overlap
	// at a receiver, the stronger is decoded if it exceeds the other by at
	// least this many dB; otherwise both corrupt.
	CaptureDB float64
	// TxPowerDBm is the transmit power (0 dBm, the CC2420 maximum).
	TxPowerDBm float64
	// RefLossDB is the path loss at the 1 m reference distance.
	RefLossDB float64
	// NoiseDBm is the receiver noise floor.
	NoiseDBm float64
	// Seed drives the per-link PRR delivery draws.
	Seed uint64
}

// withDefaults fills zero fields with the package defaults.
func (c SpatialConfig) withDefaults() SpatialConfig {
	if c.PathLossExp == 0 {
		c.PathLossExp = DefaultPathLossExp
	}
	if c.TxRangeM == 0 {
		c.TxRangeM = DefaultTxRangeM
	}
	if c.CaptureDB == 0 {
		c.CaptureDB = DefaultCaptureDB
	}
	if c.RefLossDB == 0 {
		c.RefLossDB = DefaultRefLossDB
	}
	if c.NoiseDBm == 0 {
		c.NoiseDBm = DefaultNoiseDBm
	}
	return c
}

// RSSI returns the received signal strength in dBm at distance d meters
// under the log-distance model: TxPower - RefLoss - 10·n·log10(d).
func (c SpatialConfig) RSSI(d float64) float64 {
	if d < minDistanceM {
		d = minDistanceM
	}
	return c.TxPowerDBm - c.RefLossDB - 10*c.PathLossExp*math.Log10(d)
}

// PRR returns the packet reception ratio of a link with the given receive
// strength: a logistic in SNR, exactly 1 above the sure threshold so short
// links are lossless and exactly comparable to the broadcast model.
func (c SpatialConfig) PRR(rssiDBm float64) float64 {
	snr := rssiDBm - c.NoiseDBm
	if snr >= prrSureSNRDB {
		return 1
	}
	return 1 / (1 + math.Exp(-(snr-prrMidSNRDB)/prrWidthDB))
}

// PlaceLine returns n positions evenly spaced on a horizontal line of the
// given total length (n==1 sits at the origin).
func PlaceLine(n int, length float64) []Position {
	out := make([]Position, n)
	if n <= 1 {
		return out
	}
	step := length / float64(n-1)
	for i := range out {
		out[i] = Position{X: float64(i) * step}
	}
	return out
}

// PlaceGrid returns n positions on a near-square grid (ceil(sqrt(n))
// columns, row-major) filling a side×side area.
func PlaceGrid(n int, side float64) []Position {
	out := make([]Position, n)
	if n <= 1 {
		return out
	}
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	rows := (n + cols - 1) / cols
	dx, dy := side, side
	if cols > 1 {
		dx = side / float64(cols-1)
	}
	if rows > 1 {
		dy = side / float64(rows-1)
	}
	for i := range out {
		out[i] = Position{X: float64(i%cols) * dx, Y: float64(i/cols) * dy}
	}
	return out
}

// PlaceRandomGeometric returns n positions drawn uniformly over a side×side
// square from the given seed — the random-geometric-graph placement. The
// draw order is fixed (node index order), so the layout is a pure function
// of (n, side, seed).
func PlaceRandomGeometric(n int, side float64, seed uint64) []Position {
	rng := sim.NewRNG(seed)
	out := make([]Position, n)
	for i := range out {
		out[i] = Position{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	return out
}

// rxOutcome is the medium's verdict on one (frame, receiver) pair.
type rxOutcome uint8

const (
	rxFailPRR   rxOutcome = iota // channel loss: the PRR draw failed
	rxReceiving                  // decodable so far (final: delivered)
	rxCollided                   // corrupted by an overlapping frame
	rxMissed                     // receiver off/busy/detuned: never synced
)

// pendingFrame tracks a frame's fate at every candidate receiver while it
// is on the air: parallel slices over the transmitter's neighbor list (so
// ids are sorted and lookups are a binary search, no per-frame maps). rssi
// is kept for capture contests against later frames.
//
// ids and rssi alias the neighbor index's CSR rows directly — if the index
// is rebuilt mid-flight the old arrays stay alive through these references —
// and state comes from a free list, so steady-state transmission allocates
// nothing. pendingFrames hang off Frame.pend rather than a map.
type pendingFrame struct {
	ids   []core.NodeID
	rssi  []float64
	state []rxOutcome
}

// find returns the index of dst in the candidate list, or -1.
func (pf *pendingFrame) find(dst core.NodeID) int {
	i := sort.Search(len(pf.ids), func(i int) bool { return pf.ids[i] >= dst })
	if i < len(pf.ids) && pf.ids[i] == dst {
		return i
	}
	return -1
}

// neighbor is one precomputed in-range link (build-time scratch; the index
// itself stores links column-wise).
type neighbor struct {
	id   core.NodeID
	rcv  Receiver
	rssi float64
	prr  float64
}

// nbrIndex is the neighbor index in CSR form over struct-of-arrays link
// storage: node src's in-range links, sorted by destination id, occupy
// columns [off[rows[src]], off[rows[src]+1]) of the parallel
// ids/rcvs/rssi/prr arrays. The layout keeps a transmitter's whole neighbor
// walk — the inner loop of every spatial transmission — in a few contiguous
// cache lines.
//
// An index is immutable once built: a topology change drops it and the next
// build allocates fresh arrays, because pendingFrames of frames still in
// flight alias the old ones.
type nbrIndex struct {
	rows map[core.NodeID]int32
	off  []int32 // len(rows)+1 row offsets
	ids  []core.NodeID
	rcvs []Receiver
	rssi []float64
	prr  []float64
}

// row returns the column range of src's neighbor list.
func (ix *nbrIndex) row(src core.NodeID) (int32, int32) {
	r, ok := ix.rows[src]
	if !ok {
		return 0, 0
	}
	return ix.off[r], ix.off[r+1]
}

// linkKey identifies a directed link.
type linkKey struct{ src, dst core.NodeID }

// linkTally accumulates one link's delivery outcomes.
type linkTally struct{ attempts, delivered, collisions uint64 }

// LinkStat is one directed link's delivery record: how many frames the
// transmitter put on the air with the receiver in range, how many the
// receiver actually synced and decoded (surviving the PRR draw, collisions,
// and MAC-level misses — a busy or detuned radio counts as an undelivered
// attempt), and how many were lost to collisions specifically. PRR is
// Delivered/Attempts — the observed link quality.
type LinkStat struct {
	Src, Dst   core.NodeID
	Attempts   uint64
	Delivered  uint64
	Collisions uint64
	PRR        float64
}

// spatial is the medium's spatial-propagation state.
type spatial struct {
	cfg SpatialConfig
	rng *sim.RNG
	pos map[core.NodeID]Position
	nbr *nbrIndex // nil: rebuild from receivers+pos

	// pfFree recycles pendingFrame records (their state buffers keep their
	// capacity). tally deliberately stays a map: frames still in flight
	// across an index rebuild must fold into the same accumulators.
	pfFree []*pendingFrame
	tally  map[linkKey]*linkTally

	collisions uint64
}

// getPending returns a pendingFrame with an n-element zeroed state buffer.
func (sp *spatial) getPending(n int) *pendingFrame {
	var pf *pendingFrame
	if k := len(sp.pfFree); k > 0 {
		pf = sp.pfFree[k-1]
		sp.pfFree = sp.pfFree[:k-1]
	} else {
		pf = &pendingFrame{}
	}
	if cap(pf.state) < n {
		pf.state = make([]rxOutcome, n)
	} else {
		pf.state = pf.state[:n]
		for i := range pf.state {
			pf.state[i] = 0
		}
	}
	return pf
}

// putPending releases a finalized pendingFrame, dropping its CSR aliases so
// a retired index can be collected.
func (sp *spatial) putPending(pf *pendingFrame) {
	pf.ids = nil
	pf.rssi = nil
	sp.pfFree = append(sp.pfFree, pf)
}

// EnableSpatial switches the medium from the broadcast model to the spatial
// link layer. Every registered receiver must be given a position with
// SetPosition before the first transmission. Calling it twice replaces the
// configuration (positions are kept).
func (m *Medium) EnableSpatial(cfg SpatialConfig) {
	if m.sp == nil {
		m.sp = &spatial{
			pos:   make(map[core.NodeID]Position),
			tally: make(map[linkKey]*linkTally),
		}
	}
	m.sp.cfg = cfg.withDefaults()
	m.sp.rng = sim.NewRNG(cfg.Seed)
	m.invalidateNeighbors()
}

// SpatialEnabled reports whether the spatial link layer is configured.
func (m *Medium) SpatialEnabled() bool { return m.sp != nil }

// SetPosition places a node on the deployment plane and drops the neighbor
// index; the next transmission rebuilds it. It serves initial placement and
// mid-run relocation alike.
func (m *Medium) SetPosition(id core.NodeID, p Position) {
	if m.sp == nil {
		panic("medium: SetPosition before EnableSpatial")
	}
	m.sp.pos[id] = p
	m.invalidateNeighbors()
}

// PositionOf returns a node's position and whether one was assigned.
func (m *Medium) PositionOf(id core.NodeID) (Position, bool) {
	if m.sp == nil {
		return Position{}, false
	}
	p, ok := m.sp.pos[id]
	return p, ok
}

// Collisions returns how many receptions were lost to co-channel collisions
// (counted per frame per receiver; 0 under the broadcast model).
func (m *Medium) Collisions() uint64 {
	if m.sp == nil {
		return 0
	}
	return m.sp.collisions
}

// LinkStats returns the per-link delivery table of completed frames, sorted
// by (src, dst). Empty under the broadcast model.
func (m *Medium) LinkStats() []LinkStat {
	if m.sp == nil {
		return nil
	}
	out := make([]LinkStat, 0, len(m.sp.tally))
	//quanto:ordered entries are uniquely keyed by (src, dst) and sorted below before returning
	for k, t := range m.sp.tally {
		s := LinkStat{
			Src: k.src, Dst: k.dst,
			Attempts: t.attempts, Delivered: t.delivered, Collisions: t.collisions,
		}
		if t.attempts > 0 {
			s.PRR = float64(t.delivered) / float64(t.attempts)
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// Delivered reports whether frame f survived at the given receiver: true
// unconditionally under the broadcast model, and under the spatial layer
// true iff the PRR draw passed and no overlapping frame corrupted it. The
// radio queries this when the frame's last bit lands, before draining the
// RXFIFO — corruption can happen at any point during the airtime.
func (m *Medium) Delivered(f *Frame, node core.NodeID) bool {
	if m.sp == nil {
		return true
	}
	pf := f.pend
	if pf == nil {
		return true
	}
	i := pf.find(node)
	return i >= 0 && pf.state[i] == rxReceiving
}

// WarmNeighbors builds the neighbor index now instead of lazily at the
// first transmission. The build consumes no randomness and its result is a
// pure function of the registered receivers and their positions, so warming
// changes no outcome — it only moves a large one-time cost (tens of
// milliseconds at 10k nodes) out of the simulation run and into world
// construction. A no-op under the broadcast model or when the index is
// already current.
func (m *Medium) WarmNeighbors() {
	if m.sp != nil && m.sp.nbr == nil && len(m.receivers) > 0 {
		m.buildNeighbors()
	}
}

// invalidateNeighbors drops the neighbor index so the next transmission
// rebuilds it (topology changed: node added, died, or moved).
func (m *Medium) invalidateNeighbors() {
	if m.sp != nil {
		m.sp.nbr = nil
	}
}

// packCell packs a grid cell coordinate pair into one map key.
func packCell(cx, cy int64) uint64 {
	return uint64(uint32(cx))<<32 | uint64(uint32(cy))
}

// buildNeighbors constructs every node's sorted in-range neighbor list in
// O(nodes · neighbors) using a uniform grid hash with TxRangeM-sized cells:
// all links of length <= TxRangeM lie within the 3×3 cell block around the
// transmitter.
//
// The build itself is struct-of-arrays: positions are snapshotted into flat
// slices once (one map lookup per node, not per candidate pair), cells chain
// through an index-linked list instead of per-bucket slices, and each row —
// a dozen entries — is ordered with an insertion sort, so a 10k-node build
// is a few milliseconds of contiguous float math rather than a hash lookup
// per pair. Node ids are unique, so the sorted row is the same permutation
// whatever the sort algorithm: the RNG stream and event sequence downstream
// are unchanged.
func (m *Medium) buildNeighbors() {
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
			panic(fmt.Sprintf("medium: node %d has no position; SetPosition every registered node before transmitting", id))
		}
		ids[i], xs[i], ys[i] = id, p.X, p.Y
		cells[i] = packCell(int64(math.Floor(p.X/cell)), int64(math.Floor(p.Y/cell)))
	}
	// Chained cell buckets: head maps a cell to its first receiver index,
	// next links the rest. No per-bucket allocations.
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

	// inRange calls visit for every other receiver within range of
	// receiver i, with the squared distance between them.
	rangeSq := sp.cfg.TxRangeM * sp.cfg.TxRangeM
	inRange := func(i int, visit func(j int32, d2 float64)) {
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
					visit(j, d2)
				}
			}
		}
	}
	// A counting pass sizes the four link arrays exactly, so the build
	// allocates the index once instead of growing it row by row.
	links := 0
	for i := 0; i < n; i++ {
		inRange(i, func(int32, float64) { links++ })
	}
	ix := &nbrIndex{
		rows: make(map[core.NodeID]int32, n),
		off:  make([]int32, 1, n+1),
		ids:  make([]core.NodeID, 0, links),
		rcvs: make([]Receiver, 0, links),
		rssi: make([]float64, 0, links),
		prr:  make([]float64, 0, links),
	}
	var list []neighbor // per-row scratch, reused across rows
	for i := 0; i < n; i++ {
		list = list[:0]
		inRange(i, func(j int32, d2 float64) {
			rssi := sp.cfg.RSSI(math.Sqrt(d2))
			list = append(list, neighbor{
				id: ids[j], rcv: m.receivers[j], rssi: rssi, prr: sp.cfg.PRR(rssi),
			})
		})
		// Sorted delivery order keeps the RNG stream and the scheduled
		// event sequence independent of bucket iteration order. Rows are
		// small; insertion sort is exact, deterministic, and alloc-free.
		for a := 1; a < len(list); a++ {
			nb := list[a]
			b := a - 1
			for b >= 0 && list[b].id > nb.id {
				list[b+1] = list[b]
				b--
			}
			list[b+1] = nb
		}
		ix.rows[ids[i]] = int32(i)
		for _, nb := range list {
			ix.ids = append(ix.ids, nb.id)
			ix.rcvs = append(ix.rcvs, nb.rcv)
			ix.rssi = append(ix.rssi, nb.rssi)
			ix.prr = append(ix.prr, nb.prr)
		}
		ix.off = append(ix.off, int32(len(ix.ids)))
	}
	sp.nbr = ix
}

// headOr returns the bucket head for key, or -1 when the cell is empty.
func headOr(head map[uint64]int32, key uint64) int32 {
	if j, ok := head[key]; ok {
		return j
	}
	return -1
}

// transmitSpatial delivers frame f under the spatial model: walk the
// transmitter's neighbor list, draw each link's PRR, resolve collisions
// against frames already in the air, and hand FrameStart only to receivers
// that synced onto the preamble. The per-receiver fate stays queryable via
// Delivered until the frame's last bit lands; the finalize event (scheduled
// after every receiver's own end-of-frame event) folds it into link tallies.
func (m *Medium) transmitSpatial(f *Frame) {
	sp := m.sp
	if sp.nbr == nil {
		m.buildNeighbors()
	}
	now := f.SentAt
	lo, hi := sp.nbr.row(f.Src)
	pf := sp.getPending(int(hi - lo))
	pf.ids = sp.nbr.ids[lo:hi]
	pf.rssi = sp.nbr.rssi[lo:hi]
	f.pend = pf
	for i := 0; i < int(hi-lo); i++ {
		nbRSSI := pf.rssi[i]
		nbID := pf.ids[i]
		// Exactly one channel-loss draw per candidate receiver, whatever
		// the collision outcome, so the RNG stream depends only on the
		// frame/topology sequence.
		st := rxReceiving
		if sp.rng.Float64() >= sp.nbr.prr[lo+int32(i)] {
			st = rxFailPRR
		}
		// MAC state next: a radio that is off, mid-transmission, or tuned
		// elsewhere refuses the frame — a miss, never a collision, because
		// there was no reception to lose. Only a synced radio can have one
		// corrupted. (A frame that syncs here and collides below is caught
		// at drain time by the Delivered query.)
		if st == rxReceiving && !sp.nbr.rcvs[lo+int32(i)].FrameStart(f) {
			st = rxMissed
		}
		// Contest against every frame still on the air (half-open airtime
		// window, matching EnergyOn) that is audible at this receiver. The
		// new frame's energy interferes even when its own PRR draw failed
		// or its receiver never synced — an undecodable frame still
		// corrupts what it lands on.
		for _, g := range m.active {
			if g == f || g.Channel != f.Channel {
				continue
			}
			if g.SentAt > now || now >= g.SentAt+g.Airtime {
				continue
			}
			pg := g.pend
			if pg == nil {
				continue
			}
			gi := pg.find(nbID)
			if gi < 0 {
				continue // the ongoing frame is inaudible at this receiver
			}
			grssi := pg.rssi[gi]
			switch {
			case grssi-nbRSSI >= sp.cfg.CaptureDB:
				// The ongoing frame is strong enough to survive; the new
				// one arrives mid-frame under it and is lost here.
				if st == rxReceiving {
					st = rxCollided
				}
			case nbRSSI-grssi >= sp.cfg.CaptureDB:
				// The new frame captures the receiver; the ongoing one is
				// corrupted (if it was still decodable).
				if pg.state[gi] == rxReceiving {
					pg.state[gi] = rxCollided
					sp.collisions++
				}
			default:
				// Comparable power: both corrupt.
				if pg.state[gi] == rxReceiving {
					pg.state[gi] = rxCollided
					sp.collisions++
				}
				if st == rxReceiving {
					st = rxCollided
				}
			}
		}
		if st == rxCollided {
			sp.collisions++
		}
		pf.state[i] = st
	}
	// Finalize after every end-of-frame event scheduled above: receivers
	// query Delivered exactly at SentAt+Airtime, and this event was
	// scheduled after theirs, so the verdict is still available.
	m.s.ScheduleArg(now+f.Airtime, sim.PrioHardware, m.finalizeFn, f)
}

// finalize folds a completed frame's per-receiver fates into the link
// tallies and releases its tracking state back to the pool.
func (sp *spatial) finalize(f *Frame) {
	pf := f.pend
	if pf == nil {
		return
	}
	f.pend = nil
	for i, st := range pf.state {
		k := linkKey{src: f.Src, dst: pf.ids[i]}
		t := sp.tally[k]
		if t == nil {
			t = &linkTally{}
			sp.tally[k] = t
		}
		t.attempts++
		switch st {
		case rxReceiving:
			t.delivered++
		case rxCollided:
			t.collisions++
		}
	}
	sp.putPending(pf)
}
