// TestDocLinks is the repo's link checker: every relative link and
// every backtick-quoted path reference in README.md, docs/*.md, and the
// per-example walkthroughs (examples/*/README.md) must resolve to a real
// file or directory, so architecture-doc references cannot rot silently
// when packages move. CI runs it in the docs job.
package repro

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches [text](target) markdown links.
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// codePath matches backtick-quoted repo paths like `internal/power/draws.go`
// or `cmd/quanto-trace` or `examples/` — references the docs make to code.
// Only spans that look like paths (contain a slash) are checked; command
// lines and identifiers don't.
var codePath = regexp.MustCompile("`([A-Za-z0-9_.-]+(?:/[A-Za-z0-9_.*-]+)+/?)`")

func docFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md"}
	entries, err := os.ReadDir("docs")
	if err != nil {
		if os.IsNotExist(err) {
			return files
		}
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".md") {
			files = append(files, filepath.Join("docs", e.Name()))
		}
	}
	walkthroughs, err := filepath.Glob(filepath.Join("examples", "*", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	return append(files, walkthroughs...)
}

func TestDocLinks(t *testing.T) {
	for _, file := range docFiles(t) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		text := string(data)
		dir := filepath.Dir(file)

		for _, m := range mdLink.FindAllStringSubmatch(text, -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "#") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			target = strings.SplitN(target, "#", 2)[0]
			if target == "" {
				continue
			}
			if _, err := os.Stat(filepath.Join(dir, target)); err != nil {
				t.Errorf("%s: broken link target %q", file, m[1])
			}
		}

		for _, m := range codePath.FindAllStringSubmatch(text, -1) {
			p := strings.TrimSuffix(m[1], "/")
			if strings.ContainsAny(p, "*") {
				// Glob references like bench patterns: check the directory
				// part only.
				p = filepath.Dir(p)
			}
			// Code paths are repo-root relative regardless of which doc
			// mentions them.
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s: code path reference `%s` does not exist", file, m[1])
			}
		}
	}
}

// TestDocsMentionNewLayers pins that the architecture doc exists and keeps
// covering the load-bearing contracts; a rewrite that drops one of these
// sections should be a conscious decision, not an accident.
func TestDocsMentionNewLayers(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("docs", "ARCHITECTURE.md"))
	if err != nil {
		t.Fatalf("docs/ARCHITECTURE.md missing: %v", err)
	}
	text := string(data)
	for _, want := range []string{
		"internal/power", "internal/scenario", "internal/analysis",
		"Battery", "determinism", "Sink",
		"One serial event loop", "Parallelism lives across sweep runs",
		"internal/traffic", "replay",
		"internal/lint", "quantovet", "quanto:ordered", "quanto:wallclock",
		"internal/net", "collection tree", "NeighborDied", "mobility",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("ARCHITECTURE.md no longer mentions %q", want)
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("README.md missing: %v", err)
	}
	for _, want := range []string{"Determinism contract, machine-checked", "quantovet"} {
		if !strings.Contains(string(readme), want) {
			t.Errorf("README.md no longer mentions %q", want)
		}
	}
}
