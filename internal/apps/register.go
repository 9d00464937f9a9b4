package apps

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mote"
	"repro/internal/scenario"
	"repro/internal/units"
)

// This file adapts every workload to the scenario registry: each builder
// constructs the app from a declarative Spec, translating zero-valued spec
// fields into the paper's defaults, so experiments, examples, and
// `quanto-trace sweep` all define runs the same way.

func init() {
	scenario.Register("blink", buildBlink)
	scenario.Register("bounce", buildBounce)
	scenario.Register("lpl", buildLPL)
	scenario.Register("relay", buildRelay)
	scenario.Register("sensesend", buildSenseSend)
	scenario.Register("timerbug", buildTimerBug)
	scenario.Register("dma", buildDMACompare)
}

// baseOptions translates the spec's generic node knobs (voltage, kernel,
// logging mode) for the apps that take a config-level base, so sweeping
// e.g. continuous_drain or volts affects every workload, not just blink.
func baseOptions(spec scenario.Spec) *mote.Options {
	o := spec.MoteOptions()
	return &o
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

func buildBlink(spec scenario.Spec) (*scenario.Instance, error) {
	if err := noTraffic(spec, "blink"); err != nil {
		return nil, err
	}
	if err := noRouting(spec, "blink"); err != nil {
		return nil, err
	}
	w := mote.NewWorld(spec.Seed)
	n := w.AddNode(1, spec.MoteOptions())
	b := NewBlink(n)
	return &scenario.Instance{
		World: w,
		App:   b,
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

// perNodeBattery re-applies the spec's battery knobs for each concrete node
// id, so battery_node_uah overrides land on the right mote in multi-node
// topologies (Base carries node 1's configuration otherwise).
func perNodeBattery(spec scenario.Spec) func(id core.NodeID, o *mote.Options) {
	return func(id core.NodeID, o *mote.Options) {
		spec.ApplyBattery(int(id), o)
	}
}

func buildBounce(spec scenario.Spec) (*scenario.Instance, error) {
	if err := noRouting(spec, "bounce"); err != nil {
		return nil, err
	}
	cfg := DefaultBounceConfig()
	cfg.Base = baseOptions(spec)
	cfg.PerNode = perNodeBattery(spec)
	if spec.Channel != 0 {
		cfg.Channel = spec.Channel
	}
	if spec.HoldTimeUS > 0 {
		cfg.HoldTime = units.Ticks(spec.HoldTimeUS)
	}
	cfg.UseDMA = spec.UseDMA
	srcs, rec, err := spec.TrafficSources([]core.NodeID{cfg.NodeA, cfg.NodeB})
	if err != nil {
		return nil, err
	}
	cfg.Traffic, cfg.TrafficRec = srcs, rec
	b := NewBounce(spec.Seed, cfg)
	if err := spec.ApplySpatial(b.World); err != nil {
		return nil, err
	}
	return &scenario.Instance{
		World:   b.World,
		App:     b,
		Traffic: rec,
		Metrics: func() map[string]float64 {
			recv, sent := b.Stats()
			m := map[string]float64{
				"rx_a": float64(recv[0]), "tx_a": float64(sent[0]),
				"rx_b": float64(recv[1]), "tx_b": float64(sent[1]),
			}
			if spec.Traffic != nil {
				offered, dropped := b.Injections()
				m["injected"] = float64(offered)
				m["inject_dropped"] = float64(dropped)
			}
			return m
		},
	}, nil
}

func buildLPL(spec scenario.Spec) (*scenario.Instance, error) {
	if err := noTraffic(spec, "lpl"); err != nil {
		return nil, err
	}
	if err := noRouting(spec, "lpl"); err != nil {
		return nil, err
	}
	channel := spec.Channel
	if channel == 0 {
		channel = 26
	}
	cfg := DefaultLPLConfig(channel)
	cfg.Base = baseOptions(spec)
	if spec.Volts > 0 {
		cfg.Volts = units.Volts(spec.Volts)
	}
	if spec.CheckPeriodUS > 0 {
		cfg.CheckPeriod = units.Ticks(spec.CheckPeriodUS)
	}
	if spec.ReceiveCheckUS > 0 {
		cfg.ReceiveCheck = units.Ticks(spec.ReceiveCheckUS)
	}
	if spec.FalsePositiveHoldUS > 0 {
		cfg.FalsePositiveHold = units.Ticks(spec.FalsePositiveHoldUS)
	}
	if spec.NoWiFi {
		cfg.WiFi = false
	}
	if spec.WiFiBurstUS > 0 {
		cfg.WiFiBurst = units.Ticks(spec.WiFiBurstUS)
	}
	if spec.WiFiGapUS > 0 {
		cfg.WiFiGap = units.Ticks(spec.WiFiGapUS)
	}
	l := NewLPL(spec.Seed, cfg)
	return &scenario.Instance{
		World: l.World,
		App:   l,
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

func buildRelay(spec scenario.Spec) (*scenario.Instance, error) {
	cfg := DefaultRelayConfig()
	cfg.Base = baseOptions(spec)
	cfg.PerNode = perNodeBattery(spec)
	if spec.Nodes != 0 {
		if spec.Nodes < 2 {
			return nil, fmt.Errorf("relay needs at least 2 nodes, got %d", spec.Nodes)
		}
		cfg.Hops = spec.Nodes
	}
	if spec.Channel != 0 {
		cfg.Channel = spec.Channel
	}
	if spec.PeriodUS > 0 {
		cfg.Period = units.Ticks(spec.PeriodUS)
	}
	if spec.Origins > cfg.Hops-1 {
		// NewRelay would clamp, running the clamped count under a ConfigKey
		// of its own: a silently inert sweep axis, like noRouting guards.
		return nil, fmt.Errorf("relay origins must be <= nodes-1 = %d (the sink never originates), got %d",
			cfg.Hops-1, spec.Origins)
	}
	cfg.Origins = spec.Origins
	cfg.Routing = spec.Routing
	if spec.BeaconPeriodMS > 0 {
		cfg.BeaconPeriod = units.Ticks(spec.BeaconPeriodMS) * units.Millisecond
	}
	srcs, rec, err := spec.TrafficSources(RelayOrigins(cfg.Hops, cfg.Origins))
	if err != nil {
		return nil, err
	}
	cfg.Traffic, cfg.TrafficRec = srcs, rec
	r := NewRelay(spec.Seed, cfg)
	if err := spec.ApplySpatial(r.World); err != nil {
		return nil, err
	}
	return &scenario.Instance{
		World:   r.World,
		App:     r,
		Traffic: rec,
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

func buildSenseSend(spec scenario.Spec) (*scenario.Instance, error) {
	if err := noRouting(spec, "sensesend"); err != nil {
		return nil, err
	}
	cfg := DefaultSenseSendConfig()
	cfg.Base = baseOptions(spec)
	cfg.PerNode = perNodeBattery(spec)
	if spec.Channel != 0 {
		cfg.Channel = spec.Channel
	}
	if spec.PeriodUS > 0 {
		cfg.Period = units.Ticks(spec.PeriodUS)
	}
	srcs, rec, err := spec.TrafficSources([]core.NodeID{cfg.SensorNode})
	if err != nil {
		return nil, err
	}
	cfg.Traffic, cfg.TrafficRec = srcs, rec
	s := NewSenseSend(spec.Seed, cfg)
	if err := spec.ApplySpatial(s.World); err != nil {
		return nil, err
	}
	return &scenario.Instance{
		World:   s.World,
		App:     s,
		Traffic: rec,
		Metrics: func() map[string]float64 {
			sent, received := s.Stats()
			m := map[string]float64{
				"reports_sent":     float64(sent),
				"reports_received": float64(received),
				"sensor_reads":     float64(s.Sensor.Sensor.Reads()),
			}
			if spec.Traffic != nil {
				offered, skipped := s.Samples()
				m["samples_offered"] = float64(offered)
				m["samples_skipped"] = float64(skipped)
			}
			return m
		},
	}, nil
}

func buildTimerBug(spec scenario.Spec) (*scenario.Instance, error) {
	if err := noTraffic(spec, "timerbug"); err != nil {
		return nil, err
	}
	if err := noRouting(spec, "timerbug"); err != nil {
		return nil, err
	}
	// The case study's single node is id 32 (as in Figure 15), so its
	// battery override key is "32", not "1".
	opts := spec.MoteOptions()
	spec.ApplyBattery(32, &opts)
	tb := NewTimerBug(spec.Seed, spec.CalibrateDCO, opts)
	return &scenario.Instance{
		World: tb.World,
		App:   tb,
		Metrics: func() map[string]float64 {
			return map[string]float64{
				"calibration_hz": tb.CalibrationRate(),
				"entries":        float64(len(tb.Node.Log.Entries)),
			}
		},
	}, nil
}

func buildDMACompare(spec scenario.Spec) (*scenario.Instance, error) {
	if err := noTraffic(spec, "dma"); err != nil {
		return nil, err
	}
	if err := noRouting(spec, "dma"); err != nil {
		return nil, err
	}
	payload := spec.PayloadBytes
	if payload <= 0 {
		payload = 30
	}
	startAt := units.Ticks(spec.StartAtUS)
	if startAt <= 0 {
		startAt = 100 * units.Millisecond
	}
	// Per-node base options so battery_node_uah lands on the right mote
	// (sender is node 1, receiver node 2).
	sender := spec.MoteOptions()
	receiver := spec.MoteOptions()
	spec.ApplyBattery(2, &receiver)
	d := NewDMACompare(spec.Seed, spec.UseDMA, payload, startAt, sender, receiver)
	if err := spec.ApplySpatial(d.World); err != nil {
		return nil, err
	}
	return &scenario.Instance{
		World: d.World,
		App:   d,
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
