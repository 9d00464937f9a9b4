// Package experiments contains one harness per table and figure in the
// paper's evaluation (Section 4), plus exhibits beyond it: the network-wide
// footprint and one ablation per design choice the paper argues for. Each
// harness runs its workload on the simulated platform, performs the offline
// analysis, and renders the rows or series the paper reports, alongside
// structured values that experiments_test.go checks against the paper.
package experiments

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/mote"
	"repro/internal/scenario"
)

// Report is the uniform output of an experiment harness.
type Report struct {
	// ID identifies the experiment ("table2", "fig13", ...).
	ID string
	// Title is the experiment's headline.
	Title string
	// Text is the rendered table or series, human-readable.
	Text string
	// Values carries headline numbers keyed by stable names, for
	// programmatic assertions.
	Values map[string]float64
}

// String renders the report.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	sb.WriteString(r.Text)
	if len(r.Values) > 0 {
		sb.WriteString("\n-- values --\n")
		for _, k := range slices.Sorted(maps.Keys(r.Values)) {
			fmt.Fprintf(&sb, "%-36s %.6g\n", k, r.Values[k])
		}
	}
	return sb.String()
}

// newReport allocates a report.
func newReport(id, title string) *Report {
	return &Report{ID: id, Title: title, Values: make(map[string]float64)}
}

// runScenario builds one declarative spec through the app registry, runs it
// to completion, and returns the instance for analysis. Every experiment
// harness defines its workload this way, so the same configurations are
// sweepable from `quanto-trace sweep` without touching harness code.
func runScenario(spec scenario.Spec) (*scenario.Instance, error) {
	in, err := scenario.Build(spec)
	if err != nil {
		return nil, err
	}
	in.Run()
	return in, nil
}

// analyzeNode runs the default analysis pipeline on one node's log via the
// single-pass streaming analyzer.
func analyzeNode(w *mote.World, n *mote.Node) (*analysis.Analysis, error) {
	return analyzeNodeWith(w, n, analysis.DefaultOptions())
}

// analyzeNodeWith is analyzeNode under the given options, for the ablations.
func analyzeNodeWith(w *mote.World, n *mote.Node, opts analysis.Options) (*analysis.Analysis, error) {
	sa := analysis.NewStreamAnalyzer(n.ID, n.Meter.PulseEnergy(), n.Volts, w.Dict, opts)
	sa.RecordBatch(n.Log.Entries)
	return sa.Finish()
}

// labelName renders a label through the world dictionary.
func labelName(w *mote.World, l core.Label) string {
	if l == analysis.ConstLabel {
		return "Const."
	}
	return w.Dict.LabelName(l)
}

// Exhibit is one experiment harness: a table or figure of the paper's
// evaluation, or an exhibit beyond it.
type Exhibit struct {
	// ID names the exhibit on cmd/quanto's command line; its report
	// carries the same ID.
	ID string
	// Run renders the exhibit's report from the seed.
	Run func(seed uint64) (*Report, error)
}

// Exhibits lists every harness in report order: the paper's tables and
// figures in paper order, the network-wide footprint of §5.3, then the
// ablations. It is what cmd/quanto runs and lists.
var Exhibits = []Exhibit{
	{"table1", func(uint64) (*Report, error) { return Table1(), nil }},
	{"fig10", Figure10},
	{"table2", Table2},
	{"fig11", Figure11},
	{"table3", Table3},
	{"fig12", Figure12},
	{"fig13", Figure13},
	{"fig14", Figure14},
	{"fig15", Figure15},
	{"fig16", Figure16},
	{"table4", Table4},
	{"table5", func(uint64) (*Report, error) { return Table5() }},
	{"network", NetworkFootprint},
	{"ablation-weights", AblationWeights},
	{"ablation-proxy", AblationProxy},
	{"ablation-split", AblationSplit},
	{"ablation-counters", AblationCounters},
}

// All runs every exhibit with the given seed and returns the reports in
// Exhibits order.
func All(seed uint64) ([]*Report, error) {
	var out []*Report
	for _, e := range Exhibits {
		r, err := e.Run(seed)
		if err != nil {
			return out, fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		out = append(out, r)
	}
	return out, nil
}
