// Package medium models the shared 2.4 GHz RF environment: frame delivery
// between motes on 802.15.4 channels and wideband 802.11 interference that
// leaks energy into overlapping 802.15.4 channels.
//
// Two propagation models share the Medium. The default is intentionally
// simple — every registered node hears every other node on the same
// channel, delivery is instantaneous at the speed-of-light scale of a
// testbed — because the paper's experiments (Bounce, the LPL interference
// study) depend on timing and spectral overlap, not on path loss.
// EnableSpatial switches to the spatial link layer (spatial.go): node
// positions, log-distance path loss with a PRR gray region, per-receiver
// delivery over an O(neighbors) index, and receiver-side collisions with
// capture — the model that makes density, range, and contention sweepable.
package medium

import (
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/units"
)

// ChannelFreqMHz returns the center frequency of an 802.15.4 channel
// (11..26): 2405 + 5*(ch-11) MHz. Channel 26 is 2480 MHz, the farthest from
// 802.11b channel 6, exactly as the paper's experiment is set up.
func ChannelFreqMHz(ch int) float64 { return 2405 + 5*float64(ch-11) }

// WiFiFreqMHz returns the center frequency of an 802.11b/g channel (1..13):
// 2407 + 5*ch MHz; channel 6 is 2437 MHz.
func WiFiFreqMHz(ch int) float64 { return 2407 + 5*float64(ch) }

// SpectralOverlap returns the fraction of a 2 MHz-wide 802.15.4 channel
// covered by a 22 MHz-wide 802.11 transmission.
func SpectralOverlap(wifiCenterMHz, panCenterMHz float64) float64 {
	wifiLo, wifiHi := wifiCenterMHz-11, wifiCenterMHz+11
	panLo, panHi := panCenterMHz-1, panCenterMHz+1
	lo, hi := max64(wifiLo, panLo), min64(wifiHi, panHi)
	if hi <= lo {
		return 0
	}
	return (hi - lo) / (panHi - panLo)
}

func max64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Frame is one 802.15.4 frame in flight.
type Frame struct {
	Src     core.NodeID
	Channel int
	Bytes   int         // full frame length including header
	Airtime units.Ticks // transmission duration
	Payload any         // link-layer packet (an *am.Packet in this repo)
	SentAt  units.Ticks

	// actIdx is the frame's slot in Medium.active while on the air (-1
	// otherwise), making expiry a swap-remove instead of a linear scan.
	actIdx int32
	// pend is the spatial layer's per-receiver fate record; nil under the
	// broadcast model or once the frame has been finalized.
	pend *pendingFrame
}

// Receiver is the radio-side interface for frame delivery.
type Receiver interface {
	// Node identifies the receiver.
	Node() core.NodeID
	// FrameStart announces that a frame began arriving now; the frame's
	// last bit lands at SentAt+Airtime. It reports whether the receiver
	// synced onto the frame: false when it is not listening, is itself
	// transmitting (half-duplex), or is tuned to another channel. The
	// spatial layer tallies a refused frame as an undelivered attempt so
	// observed link PRR reflects MAC-level misses, not just channel loss;
	// the broadcast model ignores the result.
	FrameStart(f *Frame) bool
}

// Medium is the shared channel. By default it is the flat broadcast model
// described above; EnableSpatial switches it to the spatial link layer
// (positions, path loss, per-link PRR, collisions) defined in spatial.go.
type Medium struct {
	s         *sim.Simulator
	receivers []Receiver
	wifi      []*WiFiSource

	active []*Frame // transmissions currently in the air

	sp  *spatial  // nil: legacy broadcast propagation
	mob *mobility // nil: every node is stationary

	// expireFn / finalizeFn are the shared per-frame event callbacks; the
	// frame rides along as the event argument so transmitting allocates no
	// closures.
	expireFn   func(any)
	finalizeFn func(any)

	frames uint64
}

// New creates an empty medium on simulator s.
func New(s *sim.Simulator) *Medium {
	m := &Medium{s: s}
	m.expireFn = func(arg any) { m.expire(arg.(*Frame)) }
	m.finalizeFn = func(arg any) { m.sp.finalize(arg.(*Frame)) }
	return m
}

// Register adds a receiver (a node's radio).
func (m *Medium) Register(r Receiver) {
	m.receivers = append(m.receivers, r)
	m.invalidateNeighbors()
}

// Unregister removes a receiver from the medium. A node whose battery
// depletes drops off the air: frames transmitted afterwards are no longer
// delivered to it, and — because the dead node can no longer forward — every
// node that depended on it loses connectivity, the cascade the lifetime
// scenarios observe. Unregistering an unknown receiver is a no-op.
func (m *Medium) Unregister(r Receiver) {
	for i, x := range m.receivers {
		if x == r {
			m.receivers = append(m.receivers[:i], m.receivers[i+1:]...)
			m.invalidateNeighbors()
			return
		}
	}
}

// AddWiFi attaches an interference source.
func (m *Medium) AddWiFi(w *WiFiSource) { m.wifi = append(m.wifi, w) }

// Frames returns the number of frames transmitted so far.
func (m *Medium) Frames() uint64 { return m.frames }

// Transmit puts f on the air starting now. Each in-range receiver gets a
// FrameStart immediately; the frame stays "active" for collision/energy
// queries until its airtime elapses. Under the broadcast model "in range"
// is every registered receiver (O(nodes) per transmission); under the
// spatial layer it is the transmitter's neighbor list (O(neighbors), built
// at its first transmission after a topology change), and reception is
// further gated on the link's PRR and on collisions with overlapping
// co-channel frames.
func (m *Medium) Transmit(f *Frame) {
	f.SentAt = m.s.Now()
	m.frames++
	f.actIdx = int32(len(m.active))
	m.active = append(m.active, f)
	m.s.ScheduleArg(f.SentAt+f.Airtime, sim.PrioHardware, m.expireFn, f)
	if m.sp != nil {
		m.transmitSpatial(f)
		return
	}
	for _, r := range m.receivers {
		if r.Node() == f.Src {
			continue
		}
		r.FrameStart(f)
	}
}

// expire swap-removes a finished frame from the active list. Order within
// active does not matter: energy queries sum exact integers and collision
// contests are pairwise-independent, so removal order cannot change results.
func (m *Medium) expire(f *Frame) {
	i := int(f.actIdx)
	if i < 0 || i >= len(m.active) || m.active[i] != f {
		return
	}
	last := len(m.active) - 1
	m.active[i] = m.active[last]
	m.active[i].actIdx = int32(i)
	m.active[last] = nil
	m.active = m.active[:last]
	f.actIdx = -1
}

// EnergyOn reports the normalized interference+traffic energy present on an
// 802.15.4 channel at time t: 1.0 for a co-channel mote transmission, the
// spectral overlap fraction for an active WiFi burst, 0 for a clear
// channel. A clear-channel-assessment against a threshold is a comparison
// on this value.
//
// A frame occupies the half-open window [SentAt, SentAt+Airtime): the gate
// is on the frame's own timestamps, not on `active` membership, so a CCA
// landing exactly at SentAt+Airtime sees a clear channel no matter how the
// scheduler ordered the expiry event against the query at that tick.
func (m *Medium) EnergyOn(ch int, t units.Ticks) float64 {
	var e float64
	for _, f := range m.active {
		if f.Channel == ch && f.SentAt <= t && t < f.SentAt+f.Airtime {
			e += 1.0
		}
	}
	return e + m.wifiEnergy(ch, t)
}

// wifiEnergy folds every interferer's spectral-overlap contribution on an
// 802.15.4 channel at time t. Shared by EnergyOn and EnergyOnAt so the two
// queries cannot diverge on the interference half.
func (m *Medium) wifiEnergy(ch int, t units.Ticks) float64 {
	var e float64
	panFreq := ChannelFreqMHz(ch)
	for _, w := range m.wifi {
		if w.ActiveAt(t) {
			e += SpectralOverlap(WiFiFreqMHz(w.Channel), panFreq)
		}
	}
	return e
}

// EnergyOnAt is the position-aware form of EnergyOn: under the spatial link
// layer, only mote transmissions audible at the querying node (transmitter
// within TxRangeM) contribute their 1.0, so a busy channel three rooms away
// no longer trips a far node's CCA. WiFi interferers have no position and
// stay global. With no spatial configuration it is exactly EnergyOn.
func (m *Medium) EnergyOnAt(node core.NodeID, ch int, t units.Ticks) float64 {
	if m.sp == nil {
		return m.EnergyOn(ch, t)
	}
	var e float64
	at, ok := m.positionAt(node, t)
	for _, f := range m.active {
		if f.Channel != ch || f.SentAt > t || t >= f.SentAt+f.Airtime {
			continue
		}
		if ok {
			src, known := m.positionAt(f.Src, t)
			if known && src.Distance(at) > m.sp.cfg.TxRangeM {
				continue
			}
		}
		e += 1.0
	}
	return e + m.wifiEnergy(ch, t)
}

// WiFiSource models an 802.11b/g access point plus its clients as a bursty
// on/off process: bursts of mean BurstMean separated by idle gaps of mean
// GapMean, both jittered deterministically. The paper placed the mote 10 cm
// from the AP, so every burst is far above the CCA threshold; only the
// spectral overlap attenuates it.
//
// The bursts are a stream drawn from the seed in time order, and the source
// keeps no history of it: only the stream's RNG, the current burst and the
// previous burst's end. Simulated time only moves forward, so queries step
// forward through the stream; an earlier query replays it from the seed,
// which gives every query order the same answer.
type WiFiSource struct {
	Channel   int
	BurstMean units.Ticks
	GapMean   units.Ticks

	seed    uint64
	rng     sim.RNG
	cur     burst       // the first burst ending after the last query
	prevEnd units.Ticks // end of the burst before cur; 0 before the first
}

type burst struct{ start, end units.Ticks }

// NewWiFiSource creates a source on the given 802.11 channel with the given
// duty pattern. With BurstMean=5ms and GapMean=23ms the long-run duty cycle
// is ~18%, which reproduces the paper's 17.8% false-positive rate for
// 500 ms-spaced CCA checks on an overlapping channel.
func NewWiFiSource(channel int, burstMean, gapMean units.Ticks, seed uint64) *WiFiSource {
	return &WiFiSource{
		Channel:   channel,
		BurstMean: burstMean,
		GapMean:   gapMean,
		seed:      seed,
		rng:       *sim.NewRNG(seed),
	}
}

// ActiveAt reports whether a burst is in progress at time t.
func (w *WiFiSource) ActiveAt(t units.Ticks) bool {
	if t < w.prevEnd {
		// The burst holding t is behind the stream: replay from the seed.
		w.rng, w.cur, w.prevEnd = *sim.NewRNG(w.seed), burst{}, 0
	}
	for w.cur.end <= t {
		w.prevEnd = w.cur.end
		w.cur = w.burstAfter(&w.rng, w.cur.end)
	}
	return w.cur.start <= t
}

// burstAfter draws the burst that follows one ending at end: an idle gap,
// then the burst.
func (w *WiFiSource) burstAfter(rng *sim.RNG, end units.Ticks) burst {
	start := end + jitter(rng, w.GapMean)
	return burst{start: start, end: start + jitter(rng, w.BurstMean)}
}

// jitter returns a duration uniform in [mean/2, 3*mean/2).
func jitter(rng *sim.RNG, mean units.Ticks) units.Ticks {
	if mean <= 1 {
		return mean
	}
	return mean/2 + rng.Ticks(mean)
}
