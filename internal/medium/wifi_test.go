package medium

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

// refWiFi is the interferer as it was before it stopped keeping history:
// it appends every burst it draws to a list that is never trimmed and
// answers each query by binary search over it. It stays here as the oracle
// the streaming WiFiSource must match on every query order.
type refWiFi struct {
	burstMean, gapMean units.Ticks
	rng                *sim.RNG
	bursts             []burst // generated lazily, in time order
	genT               units.Ticks
}

func newRefWiFi(burstMean, gapMean units.Ticks, seed uint64) *refWiFi {
	return &refWiFi{burstMean: burstMean, gapMean: gapMean, rng: sim.NewRNG(seed)}
}

func (w *refWiFi) ensure(t units.Ticks) {
	for w.genT <= t {
		gap := w.jitter(w.gapMean)
		length := w.jitter(w.burstMean)
		start := w.genT + gap
		w.bursts = append(w.bursts, burst{start: start, end: start + length})
		w.genT = start + length
	}
}

func (w *refWiFi) jitter(mean units.Ticks) units.Ticks {
	if mean <= 1 {
		return mean
	}
	return mean/2 + w.rng.Ticks(mean)
}

func (w *refWiFi) activeAt(t units.Ticks) bool {
	w.ensure(t)
	lo := sort.Search(len(w.bursts), func(i int) bool { return w.bursts[i].end > t })
	return lo < len(w.bursts) && w.bursts[lo].start <= t
}

func (w *refWiFi) dutyCycle(t0, t1 units.Ticks) float64 {
	if t1 <= t0 {
		return 0
	}
	w.ensure(t1)
	lo := sort.Search(len(w.bursts), func(i int) bool { return w.bursts[i].end > t0 })
	var on units.Ticks
	for _, b := range w.bursts[lo:] {
		if b.start >= t1 {
			break
		}
		on += min(b.end, t1) - max(b.start, t0)
	}
	return float64(on) / float64(t1-t0)
}

// TestWiFiActiveAtMatchesReference pins that the history-free source
// answers exactly as the stored-history reference on forward, backward and
// random query orders, including queries at burst edges and repeats of
// the same instant.
func TestWiFiActiveAtMatchesReference(t *testing.T) {
	const span = 2 * units.Second
	edges := func(seed uint64) []units.Ticks {
		ref := newRefWiFi(5*units.Millisecond, 23*units.Millisecond, seed)
		ref.ensure(span)
		var ts []units.Ticks
		for _, b := range ref.bursts {
			ts = append(ts, b.start-1, b.start, b.end-1, b.end)
		}
		return ts
	}
	for _, seed := range []uint64{0, 7, 0xBEEF ^ 1} {
		ts := edges(seed)
		rng := rand.New(rand.NewSource(int64(seed)))
		for i := 0; i < 2000; i++ {
			ts = append(ts, units.Ticks(rng.Int63n(int64(span))))
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		backward := make([]units.Ticks, len(ts))
		for i, tm := range ts {
			backward[len(ts)-1-i] = tm
		}
		random := append([]units.Ticks(nil), ts...)
		rng.Shuffle(len(random), func(i, j int) { random[i], random[j] = random[j], random[i] })
		for _, run := range []struct {
			name  string
			order []units.Ticks
		}{{"forward", ts}, {"backward", backward}, {"random", random}} {
			w := NewWiFiSource(6, 5*units.Millisecond, 23*units.Millisecond, seed)
			ref := newRefWiFi(5*units.Millisecond, 23*units.Millisecond, seed)
			for _, tm := range run.order {
				if got, want := w.ActiveAt(tm), ref.activeAt(tm); got != want {
					t.Fatalf("seed %d %s: ActiveAt(%d) = %v, want %v", seed, run.name, tm, got, want)
				}
			}
		}
	}
}
