package analysis_test

import (
	"bytes"
	"io"
	"maps"
	"math"
	"slices"
	"testing"

	"repro/internal/analysis"
	_ "repro/internal/apps" // registers the paper's workloads
	"repro/internal/core"
	"repro/internal/icount"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/units"
)

// FuzzAnalyzeLog feeds arbitrary bytes to the offline path as `quanto-trace
// analyze` reads a log taken elsewhere: trace.Reader.ReadBatch decodes 1 to
// 64 frames per read, each batch goes to StreamAnalyzer.RecordBatch, and
// Finish fits and charges the node. Nothing may panic. A decode error or a
// Finish error ends the input; otherwise every energy the node is charged,
// by activity and by resource, must be finite, and the energy charged by
// activity must not exceed the energy charged by resource plus the constant
// term by more than 1e-9 of the latter: the activity segments charged
// against one state segment never overlap, so its charges never exceed it.
// (They can fall short of it: a state segment no activity segment covers is
// charged to no one.)
func FuzzAnalyzeLog(f *testing.F) {
	logOf := func(app string, dur units.Ticks) []core.Entry {
		in, err := scenario.Build(scenario.Spec{App: app, DurationUS: int64(dur), Seed: 1})
		if err != nil {
			f.Fatalf("build %s: %v", app, err)
		}
		in.Run()
		return in.World.Node(1).Log.Entries
	}
	blink := logOf("blink", 8*units.Second)
	f.Add(trace.Marshal(blink), uint8(63))
	f.Add(trace.Marshal(logOf("bounce", units.Second/4)), uint8(15))
	// A log whose last frame is cut short.
	whole := trace.Marshal(blink)
	f.Add(whole[:len(whole)-5], uint8(7))
	// A log whose clock steps back by 10 us, which no wrap explains.
	stepped := slices.Clone(blink)
	mid := len(stepped) / 2
	stepped[mid].Time = stepped[mid-1].Time - 10
	f.Add(trace.Marshal(stepped), uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, batch uint8) {
		if len(data) > 1<<12 {
			return // a few hundred frames reach every path; more only slows the fuzzer
		}
		r := trace.NewReader(bytes.NewReader(data))
		buf := make([]core.Entry, 1+int(batch)%64)
		sa := analysis.NewStreamAnalyzer(1, icount.PulseEnergyMicroJoules, 3.0, core.NewDictionary(), analysis.DefaultOptions())
		for {
			n, err := r.ReadBatch(buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				return
			}
			sa.RecordBatch(buf[:n])
		}
		a, err := sa.Finish()
		if err != nil {
			return
		}

		byAct := a.EnergyByActivity()
		var act float64
		for _, l := range slices.Sorted(maps.Keys(byAct)) {
			if uj := byAct[l]; math.IsNaN(uj) || math.IsInf(uj, 0) {
				t.Fatalf("label %v charged %v uJ", l, uj)
			}
			act += byAct[l]
		}
		byRes, constUJ := a.EnergyByResource()
		if math.IsNaN(constUJ) || math.IsInf(constUJ, 0) {
			t.Fatalf("constant charged %v uJ", constUJ)
		}
		res := constUJ
		for _, id := range slices.Sorted(maps.Keys(byRes)) {
			if uj := byRes[id]; math.IsNaN(uj) || math.IsInf(uj, 0) {
				t.Fatalf("resource %d charged %v uJ", id, uj)
			}
			res += byRes[id]
		}
		if act > res+1e-9*math.Abs(res) {
			t.Fatalf("%.9g uJ charged by activity, more than the %.9g uJ by resource plus constant", act, res)
		}
	})
}
