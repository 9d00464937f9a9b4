// Benchmarks for medium frame delivery: the flat broadcast model walks
// every registered receiver per transmission (O(nodes)), the spatial layer
// walks the transmitter's precomputed neighbor list (O(neighbors)). Both
// run the same constant-density grid (30 m pitch), so the broadcast cost
// grows with the node count while the spatial cost stays flat — the
// scaling contract that lets a 500-node sweep run at interactive speed.
//
// The CI medium-bench step runs these and uploads the numbers next to the
// sweep bench.
package repro

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/medium"
	"repro/internal/sim"
	"repro/internal/units"
)

// nullReceiver is a position-only radio stand-in: delivery work without
// driver work, so the benchmark isolates the medium's own cost.
type nullReceiver struct{ id core.NodeID }

func (r *nullReceiver) Node() core.NodeID               { return r.id }
func (r *nullReceiver) FrameStart(f *medium.Frame) bool { return true }

// benchTransmit transmits b.N frames round-robin across a constant-density
// grid (30 m pitch; ~5 in-range neighbors per node under a 35 m cutoff),
// draining the event queue as it goes so the active-frame list stays
// realistic.
func benchTransmit(b *testing.B, nodes int, spatial bool) {
	s := sim.New()
	m := medium.New(s)
	if spatial {
		m.EnableSpatial(medium.SpatialConfig{TxRangeM: 35, TxPowerDBm: 10, Seed: 1})
	}
	cols := int(math.Ceil(math.Sqrt(float64(nodes))))
	pos := medium.PlaceGrid(nodes, 30*float64(cols-1))
	for i := 0; i < nodes; i++ {
		r := &nullReceiver{id: core.NodeID(i + 1)}
		m.Register(r)
		if spatial {
			m.SetPosition(r.id, pos[i])
		}
	}
	b.ResetTimer()
	now := units.Ticks(0)
	for i := 0; i < b.N; i++ {
		m.Transmit(&medium.Frame{
			Src: core.NodeID(i%nodes + 1), Channel: 26, Bytes: 20, Airtime: 640,
		})
		now += 1000
		s.Run(now)
	}
}

// BenchmarkSpatialTransmit compares broadcast and neighbor-indexed delivery
// at 50/200/500 nodes. ns/op for broadcast scales with the node count;
// spatial ns/op stays flat (sublinear scaling is the acceptance bar).
func BenchmarkSpatialTransmit(b *testing.B) {
	for _, mode := range []string{"broadcast", "spatial"} {
		for _, nodes := range []int{50, 200, 500} {
			b.Run(fmt.Sprintf("%s/nodes=%d", mode, nodes), func(b *testing.B) {
				benchTransmit(b, nodes, mode == "spatial")
			})
		}
	}
}
