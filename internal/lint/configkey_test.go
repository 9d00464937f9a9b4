package lint

import (
	"os"
	"slices"
	"testing"

	"repro/internal/scenario"
)

// TestConfigKeyExclusionListPinned ties three views of the exclusion list
// together: the declaration the configkey analyzer reads from the scenario
// source, the runtime accessor the TestConfigKey* invariance tests exercise,
// and the literal set those invariance tests pin. Adding a field to any one
// of the three without the others fails here.
func TestConfigKeyExclusionListPinned(t *testing.T) {
	pinned := []string{"record_traffic"}

	runtime := scenario.ConfigKeyExcluded()
	slices.Sort(runtime)
	if !slices.Equal(runtime, pinned) {
		t.Errorf("scenario.ConfigKeyExcluded() = %v, invariance tests pin %v", runtime, pinned)
	}

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(wd, "repro/internal/scenario")
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, pkg := range pkgs {
		if pkg.Path == "repro/internal/scenario" {
			entries, _ := findStringSlice(pkg.Files, "configKeyExcluded")
			for _, e := range entries {
				declared = append(declared, e.val)
			}
		}
	}
	slices.Sort(declared)
	if !slices.Equal(declared, pinned) {
		t.Errorf("configKeyExcluded in scenario source = %v, invariance tests pin %v", declared, pinned)
	}
}
