// Fixture-driven analyzer tests, analysistest style: each fixture package
// under testdata/src declares its expected diagnostics inline with
// `// want` comments — positive hits, negative non-hits, and waivers.
package lint_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

func testdata(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(wd, "testdata")
}

func TestMapOrder(t *testing.T) {
	linttest.Run(t, testdata(t), lint.MapOrder,
		"repro/internal/sim/mapfix", // acceptance: unsorted map-range under internal/sim is flagged
		"otherpkg",                  // outside the deterministic set: silent
	)
}

func TestWallClock(t *testing.T) {
	linttest.Run(t, testdata(t), lint.WallClock,
		"repro/internal/apps/clockfix", // acceptance: time.Now under internal/apps is flagged
		"otherpkg",                     // outside the deterministic set: silent
	)
}

func TestConfigKey(t *testing.T) {
	linttest.Run(t, testdata(t), lint.ConfigKey,
		"configkey/good",    // consistent contract: silent
		"configkey/bad",     // acceptance: undecided new field + every drift mode flagged
		"configkey/missing", // lists absent: demanded
		"configkey/nokey",   // Spec without ConfigKey: not a cache key, silent
	)
}

func TestRNGDomain(t *testing.T) {
	linttest.Run(t, testdata(t), lint.RNGDomain, "rngfix")
}

// TestQuantovetTreeClean is the acceptance gate in test form: the whole tree
// must carry zero diagnostics from every analyzer.
func TestQuantovetTreeClean(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.Load(wd, "repro/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range lint.Run(pkgs, lint.Analyzers()) {
		t.Errorf("%s", d)
	}
}

func TestDeterministicScope(t *testing.T) {
	for path, want := range map[string]bool{
		"repro/internal":               true,
		"repro/internal/sim":           true,
		"repro/internal/sim/mapfix":    true,
		"repro/internal/scenario":      true,
		"repro/internal/analysis":      true, // computes every reported number
		"repro/internal/core":          true,
		"repro/internal/experiments":   true,
		"repro/internal/kernel":        true, // runs inside the simulated world
		"repro/internal/trace":         true,
		"repro/internal/apps/clockfix": true,
		"repro/internal/newpkg":        true,  // checked from its first commit
		"repro/internalx":              false, // prefix match must not cross path elements
		"repro/cmd/quantovet":          false,
		"otherpkg":                     false,
	} {
		if got := lint.Deterministic(path); got != want {
			t.Errorf("Deterministic(%q) = %v, want %v", path, got, want)
		}
	}
}
