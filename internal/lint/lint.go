// Package lint is quantovet's home: a small static-analysis suite that
// machine-checks the repo's byte-identical-replay contract at `go vet` time,
// before a sweep ever runs.
//
// The simulator's load-bearing invariant — established by the scenario
// layer's derived seeds and escalated by wheel/heap differential testing
// and traffic record-and-replay — is that every run is a pure function of
// its Spec and seed. The
// trace-identity tests prove that after the fact; the analyzers here reject
// the classic ways the contract silently rots:
//
//   - maporder: `for range` over a map in a deterministic package. Map
//     iteration order is randomized per run, so any map-order-dependent
//     output breaks replay. Sort the keys first, or waive the loop with
//     `//quanto:ordered <reason>` when order provably cannot escape.
//   - wallclock: `time.Now` / `time.Since` / timer construction, and any use
//     of the global math/rand, inside a sim-facing package. All simulated
//     time must flow from Ticks; all randomness from the domain-tagged
//     streams `internal/sim/rng.go` derives. Waive with
//     `//quanto:wallclock <reason>` (e.g. benchmarks' wall-clock reporting).
//   - configkey: every scenario.Spec field must have a declared cache-key
//     fate — serialized into ConfigKey, an identity field (seed/name), or on
//     the single exclusion list of knobs proven not to change results — and
//     the ConfigKey body must clear exactly the excluded+identity fields.
//     Adding a Spec field without deciding is a lint error, because an
//     undecided field silently poisons the ConfigKey-addressed result cache.
//   - rngdomain: every sim.DeriveSeed / sim.DeriveRNG call site must pass a
//     distinct compile-time domain tag, namespaced by its package. Two
//     consumers sharing a stream is exactly the hidden coupling that broke
//     determinism classes in PRs 5–8.
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
	return []*Analyzer{MapOrder, WallClock, ConfigKey, RNGDomain}
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

// DeterministicPackages lists the import paths whose code executes inside
// (or configures) the simulated world and therefore must be replayable
// byte-for-byte: no map-order dependence, no wall-clock reads, no global
// randomness. maporder and wallclock scope themselves to these paths and
// their subpackages; everything else (analysis, CLI frontends, benchmarks)
// may use host facilities freely.
var DeterministicPackages = []string{
	"repro/internal/sim",
	"repro/internal/medium",
	"repro/internal/apps",
	"repro/internal/scenario",
	"repro/internal/traffic",
	"repro/internal/mote",
	"repro/internal/power",
	"repro/internal/radio",
	"repro/internal/net",
}

// Deterministic reports whether path is one of the deterministic packages or
// a subpackage of one.
func Deterministic(path string) bool {
	for _, p := range DeterministicPackages {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// waiver looks for a `//quanto:<kind> <reason>` comment attached to the node
// at pos: trailing on the same line, or alone on the line immediately above.
// It returns the reason and whether a well-formed waiver was found; a waiver
// with an empty reason does not count, so every suppression names its
// justification.
func waiver(fset *token.FileSet, files []*ast.File, pos token.Pos, kind string) (string, bool) {
	p := fset.Position(pos)
	marker := "quanto:" + kind
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
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, marker) {
					continue
				}
				reason := strings.TrimSpace(strings.TrimPrefix(text, marker))
				if reason != "" {
					return reason, true
				}
			}
		}
	}
	return "", false
}
