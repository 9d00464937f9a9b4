// Package lint is quantovet's home: a small static-analysis suite that
// machine-checks the repo's byte-identical-replay contract at `go vet` time,
// before a sweep ever runs.
//
// The simulator's load-bearing invariant — established by the scenario
// layer's derived seeds and escalated by wheel/heap differential testing
// and traffic record-and-replay — is that every run is a pure function of
// its Spec and seed. The trace-identity tests prove that after the fact; the
// three analyzers here reject the classic ways the contract silently rots:
//
//   - maporder: `for range` over a map in a deterministic package. Map
//     iteration order is randomized per run, so any map-order-dependent
//     output breaks replay. Sort the keys first, or waive the loop with
//     `//quanto:ordered <reason>` when order provably cannot escape.
//   - wallclock: `time.Now` / `time.Since` / timer construction, and any use
//     of the global math/rand, inside a deterministic package. All simulated
//     time must flow from Ticks; all randomness from the domain-tagged
//     streams `internal/sim/rng.go` derives. Waive with
//     `//quanto:wallclock <reason>` (e.g. benchmarks' wall-clock reporting).
//   - rngdomain: every sim.DeriveSeed / sim.DeriveRNG call site must pass a
//     distinct compile-time domain tag, namespaced by its package. Two
//     consumers sharing a stream is exactly the hidden coupling that broke
//     determinism classes in PRs 5–8.
//
// The Spec's ConfigKey needs no analyzer: it is the Spec's JSON without name
// and seed, and the scenario package's TestConfigKeyIdentityInvariance and
// TestConfigKeyIncludedFieldsMoveKey check that field by field.
//
// maporder and wallclock check the deterministic packages: repro/internal
// and every package under it (see Deterministic), that is the simulator,
// the analysis that turns its logs into reported numbers, and the tooling
// around them.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) so the analyzers could be ported to the real
// multichecker verbatim if the dependency ever becomes available; this
// module builds offline from the standard library alone, so the x/tools
// driver is reimplemented in load.go on top of `go list` and the gc
// export-data importer.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one check, mirroring analysis.Analyzer: a name that
// prefixes its diagnostics, a doc sentence, and a Run function applied once
// per loaded package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one package's parsed and type-checked state to an analyzer,
// mirroring analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)
}

// Diagnostic is one finding, positioned at Pos.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the file:line:col style `go vet` uses,
// with the analyzer name appended so a finding names the rule to waive.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full quantovet suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{MapOrder, WallClock, RNGDomain}
}

// Run applies every analyzer in the suite to every package and returns the
// findings sorted by (file, line, col, analyzer) so output is stable across
// load order.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				report:   func(d Diagnostic) { diags = append(diags, d) },
			}
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// deterministicRoot is the import path under which every package must be
// replayable byte for byte.
const deterministicRoot = "repro/internal"

// Deterministic reports whether path is repro/internal or a package under
// it. Each of those runs inside the simulated world, configures it, or
// computes a reported number from its output, so none may depend on map
// order, read the wall clock, or draw global randomness; with no list to
// maintain, a new internal package is checked from its first commit. The
// commands, examples and benchmarks outside it may use host facilities.
func Deterministic(path string) bool {
	return path == deterministicRoot || strings.HasPrefix(path, deterministicRoot+"/")
}

// waiver looks for a `//quanto:<kind> <reason>` comment attached to the node
// at pos: trailing on the same line, or alone on the line immediately above.
// It returns the reason and whether a well-formed waiver was found; a waiver
// with an empty reason does not count, so every suppression names its
// justification.
func waiver(fset *token.FileSet, files []*ast.File, pos token.Pos, kind string) (string, bool) {
	p := fset.Position(pos)
	for _, f := range files {
		if fset.Position(f.Pos()).Filename != p.Filename {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				cp := fset.Position(c.Pos())
				if cp.Line != p.Line && cp.Line != p.Line-1 {
					continue
				}
				if reason, ok := waiverComment(c, kind); ok && reason != "" {
					return reason, true
				}
			}
		}
	}
	return "", false
}

// waiverComment reports whether c is a `//quanto:<kind>` comment, and
// returns the reason it gives, if any.
func waiverComment(c *ast.Comment, kind string) (string, bool) {
	text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
	reason, ok := strings.CutPrefix(text, "quanto:"+kind)
	return strings.TrimSpace(reason), ok
}
