package apps

import (
	"cmp"
	"encoding/binary"

	"repro/internal/am"
	"repro/internal/core"
	"repro/internal/mote"
	"repro/internal/radio"
	"repro/internal/scenario"
	"repro/internal/traffic"
	"repro/internal/units"
)

// SenseAMType is the Active Message type carrying sensor reports.
const SenseAMType uint8 = 11

// The sense-and-send nodes: the sampling sensor and the base station.
const (
	senseSensorNode core.NodeID = 2
	senseBaseNode   core.NodeID = 1
)

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
	// Samples the schedule offered, and the subset skipped because the
	// previous sample was still in flight (the sensor's natural
	// backpressure at high offered rates).
	sampleOffered uint64
	sampleSkipped uint64

	// traffic records the sensor's realized samples under a traffic shape.
	traffic *traffic.Recorder
}

// NewSenseSend builds the two-node world the spec describes into the empty
// world w: sensor node 2 samples every PeriodUS (default 5 s) and reports
// to base station node 1 on Channel (default 26). A traffic shape replaces
// the sampling schedule (one slot: the sensor node). A scheduled sample
// that arrives while the previous one is still reading or sending is
// skipped and counted, not queued, on either schedule.
func NewSenseSend(spec scenario.Spec, w *mote.World) (*SenseSend, error) {
	srcs, rec, err := spec.TrafficSources([]core.NodeID{senseSensorNode})
	if err != nil {
		return nil, err
	}
	period := cmp.Or(units.Ticks(spec.PeriodUS), 5*units.Second)
	s := &SenseSend{World: w, traffic: rec}

	rc := radio.Config{Channel: cmp.Or(spec.Channel, defaultChannel)}
	s.Sensor = addRadioNode(w, &spec, senseSensorNode, rc)
	s.Base = addRadioNode(w, &spec, senseBaseNode, rc)

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

	// Sensor node: the Figure 7 sensorTask every period, or on the traffic
	// shape's schedule, armed at boot (a sample's send waits ~130 ms of
	// conversions, far past the radio's start-up). A sample landing while
	// the previous one is in flight is skipped: the sensor has one
	// conversion pipeline, so offered load beyond it is backpressure.
	k.Boot(func() {
		s.Sensor.Radio.TurnOn(nil)
		src := traffic.Every(k.NowTicks()+period, period)
		if srcs != nil {
			src = srcs[0]
		}
		traffic.Drive(k, src, rec.Hook(0), func() {
			s.sampleOffered++
			if s.sampling {
				s.sampleSkipped++
				return
			}
			s.sampling = true
			s.sensorTask(senseBaseNode)
		})
		k.CPUAct.SetIdle()
	})
	if err := spec.ApplySpatial(w); err != nil {
		return nil, err
	}
	return s, nil
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

// Samples returns samples the schedule offered and the subset skipped
// because the previous sample was still in flight.
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
