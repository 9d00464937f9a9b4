package apps

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mote"
	"repro/internal/radio"
	"repro/internal/scenario"
)

// This file registers every workload with the scenario registry. Each app's
// constructor builds it straight from the Spec into the world the registry
// hands it and resolves the app's defaults; a builder here only rejects the
// Spec fields its app does not honor and names the app's metrics, so
// experiments, examples and `quanto-trace sweep` all define runs the same
// way.

func init() {
	scenario.Register("blink", buildBlink)
	scenario.Register("bounce", buildBounce)
	scenario.Register("lpl", buildLPL)
	scenario.Register("relay", buildRelay)
	scenario.Register("sensesend", buildSenseSend)
	scenario.Register("timerbug", buildTimerBug)
	scenario.Register("dma", buildDMACompare)
}

// defaultChannel is the 802.15.4 channel the radio apps use when the spec
// names none: 26, clear of 802.11b.
const defaultChannel = 26

// addRadioNode adds node id to w with the spec's options for it and a radio
// configured by rc.
func addRadioNode(w *mote.World, spec *scenario.Spec, id core.NodeID, rc radio.Config) *mote.Node {
	o := spec.NodeOptions(id)
	o.Radio = true
	o.RadioConfig = rc
	return w.AddNode(id, o)
}

// noTraffic rejects a traffic shape on apps whose workload is not
// send-driven: failing the build is kinder than silently ignoring the
// field, which would make a sweep axis a no-op.
func noTraffic(spec scenario.Spec, app string) error {
	if spec.Traffic != nil {
		return fmt.Errorf("%s does not honor a traffic shape (supported: bounce, relay, sensesend)", app)
	}
	return nil
}

// noRouting rejects a routed forwarding plane on apps whose wiring is
// fixed — same rationale as noTraffic: a silently inert "routing" sweep
// axis would replicate one behavior under many ConfigKeys.
func noRouting(spec scenario.Spec, app string) error {
	if spec.Routing != "" {
		return fmt.Errorf("%s does not honor routing (supported: relay)", app)
	}
	return nil
}

func buildBlink(spec scenario.Spec, w *mote.World) (*scenario.Instance, error) {
	if err := noTraffic(spec, "blink"); err != nil {
		return nil, err
	}
	if err := noRouting(spec, "blink"); err != nil {
		return nil, err
	}
	b := NewBlink(w.AddNode(1, spec.NodeOptions(1)))
	return &scenario.Instance{
		App: b,
		Metrics: func() map[string]float64 {
			tg := b.Toggles()
			return map[string]float64{
				"toggles_red":   float64(tg[0]),
				"toggles_green": float64(tg[1]),
				"toggles_blue":  float64(tg[2]),
			}
		},
	}, nil
}

func buildBounce(spec scenario.Spec, w *mote.World) (*scenario.Instance, error) {
	if err := noRouting(spec, "bounce"); err != nil {
		return nil, err
	}
	b, err := NewBounce(spec, w)
	if err != nil {
		return nil, err
	}
	return &scenario.Instance{
		App:     b,
		Traffic: b.traffic,
		Metrics: func() map[string]float64 {
			recv, sent := b.Stats()
			offered, dropped := b.Injections()
			return map[string]float64{
				"rx_a": float64(recv[0]), "tx_a": float64(sent[0]),
				"rx_b": float64(recv[1]), "tx_b": float64(sent[1]),
				"injected":       float64(offered),
				"inject_dropped": float64(dropped),
				"hold_dropped":   float64(b.HoldDrops()),
			}
		},
	}, nil
}

func buildLPL(spec scenario.Spec, w *mote.World) (*scenario.Instance, error) {
	if err := noTraffic(spec, "lpl"); err != nil {
		return nil, err
	}
	if err := noRouting(spec, "lpl"); err != nil {
		return nil, err
	}
	l := NewLPL(spec, w)
	return &scenario.Instance{
		App: l,
		Metrics: func() map[string]float64 {
			wake, fps := l.Stats()
			return map[string]float64{
				"wakeups":         float64(wake),
				"false_positives": float64(fps),
				"fp_rate":         l.FalsePositiveRate(),
			}
		},
	}, nil
}

func buildRelay(spec scenario.Spec, w *mote.World) (*scenario.Instance, error) {
	r, err := NewRelay(spec, w)
	if err != nil {
		return nil, err
	}
	return &scenario.Instance{
		App:     r,
		Traffic: r.traffic,
		Metrics: func() map[string]float64 {
			gen, del := r.Stats()
			m := map[string]float64{
				"generated": float64(gen),
				"delivered": float64(del),
				"dropped":   float64(r.Dropped()),
			}
			if r.Tree != nil {
				ts := r.Tree.Stats()
				m["net_routed"] = float64(ts.Routed)
				m["net_beacons_tx"] = float64(ts.BeaconsTx)
				m["net_beacons_rx"] = float64(ts.BeaconsRx)
				m["net_beacons_skipped"] = float64(ts.BeaconsSkipped)
				m["net_parent_changes"] = float64(ts.ParentChanges)
				m["net_loop_avoided"] = float64(ts.LoopAvoided)
				m["net_no_route"] = float64(r.NoRoute())
				m["net_ttl_drops"] = float64(r.TTLDrops())
				m["net_last_delivery_us"] = float64(r.LastDeliveredAt())
				m["net_path_etx_mean"] = r.Tree.MeanPathETX()
			}
			return m
		},
	}, nil
}

func buildSenseSend(spec scenario.Spec, w *mote.World) (*scenario.Instance, error) {
	if err := noRouting(spec, "sensesend"); err != nil {
		return nil, err
	}
	s, err := NewSenseSend(spec, w)
	if err != nil {
		return nil, err
	}
	return &scenario.Instance{
		App:     s,
		Traffic: s.traffic,
		Metrics: func() map[string]float64 {
			sent, received := s.Stats()
			offered, skipped := s.Samples()
			return map[string]float64{
				"reports_sent":     float64(sent),
				"reports_received": float64(received),
				"sensor_reads":     float64(s.Sensor.Sensor.Reads()),
				"samples_offered":  float64(offered),
				"samples_skipped":  float64(skipped),
			}
		},
	}, nil
}

func buildTimerBug(spec scenario.Spec, w *mote.World) (*scenario.Instance, error) {
	if err := noTraffic(spec, "timerbug"); err != nil {
		return nil, err
	}
	if err := noRouting(spec, "timerbug"); err != nil {
		return nil, err
	}
	tb := NewTimerBug(spec, w)
	return &scenario.Instance{
		App: tb,
		Metrics: func() map[string]float64 {
			return map[string]float64{
				"calibration_hz": tb.CalibrationRate(),
				"entries":        float64(len(tb.Node.Log.Entries)),
			}
		},
	}, nil
}

func buildDMACompare(spec scenario.Spec, w *mote.World) (*scenario.Instance, error) {
	if err := noTraffic(spec, "dma"); err != nil {
		return nil, err
	}
	if err := noRouting(spec, "dma"); err != nil {
		return nil, err
	}
	d, err := NewDMACompare(spec, w)
	if err != nil {
		return nil, err
	}
	return &scenario.Instance{
		App: d,
		Metrics: func() map[string]float64 {
			start, end, ok := d.Timing()
			m := map[string]float64{"completed": 0}
			if ok {
				m["completed"] = 1
				m["send_ms"] = float64(end-start) / 1000
			}
			return m
		},
	}, nil
}
