// Fixture-driven analyzer tests, analysistest style: each fixture package
// under testdata/src declares its expected diagnostics inline with
// `// want` comments — positive hits, negative non-hits, and waivers.
package lint_test

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
	"repro/internal/scenario"
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

// TestConfigKeyExclusionListPinned ties three views of the exclusion list
// together: the declaration the configkey analyzer reads from the scenario
// source, the runtime accessor the TestConfigKey* invariance tests exercise,
// and the literal set those invariance tests pin. Adding a field to any one
// of the three without the others fails here.
func TestConfigKeyExclusionListPinned(t *testing.T) {
	pinned := []string{"queue", "record_traffic"}

	runtime := scenario.ConfigKeyExcluded()
	slices.Sort(runtime)
	if !slices.Equal(runtime, pinned) {
		t.Errorf("scenario.ConfigKeyExcluded() = %v, invariance tests pin %v", runtime, pinned)
	}

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.Load(wd, "repro/internal/scenario")
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, pkg := range pkgs {
		if pkg.Path == "repro/internal/scenario" {
			declared = lint.ExclusionList(pkg)
		}
	}
	slices.Sort(declared)
	if !slices.Equal(declared, pinned) {
		t.Errorf("configKeyExcluded in scenario source = %v, invariance tests pin %v", declared, pinned)
	}
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
		"repro/internal/sim":           true,
		"repro/internal/sim/mapfix":    true,
		"repro/internal/scenario":      true,
		"repro/internal/analysis":      false,
		"repro/internal/simx":          false, // prefix match must not cross path elements
		"repro/cmd/quantovet":          false,
		"repro/internal/traffic":       true,
		"repro/internal/trace":         false, // host-side trace tooling
		"repro/internal/mote":          true,
		"repro/internal/power":         true,
		"repro/internal/radio":         true,
		"repro/internal/medium":        true,
		"repro/internal/apps":          true,
		"repro/internal/apps/clockfix": true,
		"repro/internal/net":           true, // routing runs inside the world
		"repro/internal/network":       false,
	} {
		if got := lint.Deterministic(path); got != want {
			t.Errorf("Deterministic(%q) = %v, want %v", path, got, want)
		}
	}
}
