package apps

import (
	"encoding/binary"

	"repro/internal/am"
	"repro/internal/core"
	"repro/internal/mote"
	"repro/internal/radio"
	"repro/internal/traffic"
	"repro/internal/units"
)

// SenseAMType is the Active Message type carrying sensor reports.
const SenseAMType uint8 = 11

// SenseSend reproduces the sense-and-send application excerpted in Figure 7:
// a periodic task samples humidity and temperature under dedicated
// activities (ACT_HUM, ACT_TEMP), then ships the readings in a packet under
// ACT_PKT. A base-station node receives the reports; because the packet
// carries the activity label, the base station's reception work is charged
// to the sensing node's ACT_PKT activity.
type SenseSend struct {
	World *mote.World
	// Sensor is the sampling node, Base the sink.
	Sensor, Base *mote.Node

	ActHum, ActTemp, ActPkt core.Label

	humidity, temperature uint16
	sensingDone           int
	sampling              bool
	reportsSent           uint64
	reportsReceived       uint64
	// Shaped-load counters: samples the traffic schedule offered, and the
	// subset skipped because the previous sample was still in flight (the
	// sensor's natural backpressure at high offered rates).
	sampleOffered uint64
	sampleSkipped uint64
}

// SenseSendConfig parameterizes the application.
type SenseSendConfig struct {
	SensorNode, BaseNode core.NodeID
	Channel              int
	Period               units.Ticks
	// Base, when set, seeds each node's mote options before the radio
	// wiring is applied; nil selects mote.DefaultOptions.
	Base *mote.Options
	// PerNode, when set, adjusts each node's options after Base is copied
	// (called with SensorNode's and BaseNode's ids).
	PerNode func(id core.NodeID, o *mote.Options)
	// Traffic, when non-nil, replaces the fixed sampling period with a
	// shaped schedule (one slot: the sensor node). A scheduled sample that
	// arrives while the previous one is still reading or sending is
	// skipped and counted, not queued.
	Traffic []traffic.Source
	// TrafficRec, when non-nil, captures the sensor's realized samples.
	TrafficRec *traffic.Recorder
}

// DefaultSenseSendConfig samples every 5 seconds.
func DefaultSenseSendConfig() SenseSendConfig {
	return SenseSendConfig{SensorNode: 2, BaseNode: 1, Channel: 26, Period: 5 * units.Second}
}

// NewSenseSend builds the two-node world.
func NewSenseSend(seed uint64, cfg SenseSendConfig) *SenseSend {
	if cfg.Period == 0 {
		cfg.Period = 5 * units.Second
	}
	w := mote.NewWorld(seed)
	s := &SenseSend{World: w}

	mkOpts := func(id core.NodeID) mote.Options {
		o := mote.DefaultOptions()
		if cfg.Base != nil {
			o = *cfg.Base
		}
		if cfg.PerNode != nil {
			cfg.PerNode(id, &o)
		}
		o.Radio = true
		o.RadioConfig = radio.Config{Channel: cfg.Channel}
		return o
	}
	s.Sensor = w.AddNode(cfg.SensorNode, mkOpts(cfg.SensorNode))
	s.Base = w.AddNode(cfg.BaseNode, mkOpts(cfg.BaseNode))

	k := s.Sensor.K
	s.ActHum = k.DefineActivity("ACT_HUM")
	s.ActTemp = k.DefineActivity("ACT_TEMP")
	s.ActPkt = k.DefineActivity("ACT_PKT")

	// Base station: radio always listening; count reports.
	s.Base.AM.Register(SenseAMType, func(p *am.Packet) {
		s.reportsReceived++
		s.Base.LEDs.Toggle(1)
	})
	s.Base.K.Boot(func() {
		s.Base.Radio.TurnOn(func() {
			s.Base.Radio.StartListening()
		})
	})

	// Sensor node: periodic sample-and-send, the Figure 7 sensorTask.
	k.Boot(func() {
		if cfg.Traffic != nil {
			// Shaped load: the sampling schedule comes from the traffic
			// engine, armed once the radio reaches idle so an aggressive
			// shape cannot offer samples to a half-booted transceiver. A
			// sample landing while the previous one is still in flight is
			// skipped — the sensor has one conversion pipeline, so offered
			// load beyond it is backpressure, not a queue.
			var rec func(units.Ticks)
			if cfg.TrafficRec != nil {
				rec = cfg.TrafficRec.Hook(0)
			}
			s.Sensor.Radio.TurnOn(func() {
				traffic.Drive(k, cfg.Traffic[0], rec, func() {
					s.sampleOffered++
					if s.sampling {
						s.sampleSkipped++
						return
					}
					s.sampling = true
					s.sensorTask(cfg.BaseNode)
				})
			})
			k.CPUAct.SetIdle()
			return
		}
		s.Sensor.Radio.TurnOn(nil)
		t := k.NewTimer(func() { s.sensorTask(cfg.BaseNode) })
		t.StartPeriodic(cfg.Period)
		k.CPUAct.SetIdle()
	})
	return s
}

// sensorTask mirrors the paper's excerpt: paint the CPU, read humidity;
// paint again, read temperature; when both are done, switch to the packet
// activity and post the send.
func (s *SenseSend) sensorTask(base core.NodeID) {
	k := s.Sensor.K
	k.CPUAct.Set(s.ActHum)
	s.Sensor.Sensor.ReadHumidity(func(raw uint16) {
		s.humidity = raw
		s.sensingDone++
		s.sendIfDone(base)
	})
	k.CPUAct.Set(s.ActTemp)
	s.Sensor.Sensor.ReadTemperature(func(raw uint16) {
		s.temperature = raw
		s.sensingDone++
		s.sendIfDone(base)
	})
}

func (s *SenseSend) sendIfDone(base core.NodeID) {
	if s.sensingDone < 2 {
		return
	}
	s.sensingDone = 0
	k := s.Sensor.K
	k.CPUAct.Set(s.ActPkt)
	k.Post(func() {
		payload := make([]byte, 4)
		binary.LittleEndian.PutUint16(payload[0:], s.humidity)
		binary.LittleEndian.PutUint16(payload[2:], s.temperature)
		p := &am.Packet{Dest: base, Type: SenseAMType, Payload: payload}
		s.Sensor.AM.Send(p, func() {
			s.reportsSent++
			s.sampling = false
			k.CPUAct.SetIdle()
		})
	})
}

// Samples returns shaped-load sampling counts: samples the traffic schedule
// offered and the subset skipped because the previous sample was still in
// flight. Both are zero for the classic fixed-period run.
func (s *SenseSend) Samples() (offered, skipped uint64) {
	return s.sampleOffered, s.sampleSkipped
}

// Stats returns sent and received report counts.
func (s *SenseSend) Stats() (sent, received uint64) {
	return s.reportsSent, s.reportsReceived
}

// Run advances the world and stamps the end.
func (s *SenseSend) Run(d units.Ticks) {
	s.World.Run(d)
	s.World.StampEnd()
}
