// TestDocLinks is the repo's link checker: every relative link and
// every backtick-quoted path reference in README.md, docs/*.md, and the
// per-example walkthroughs (examples/*/README.md) must resolve to a real
// file or directory, so architecture-doc references cannot rot silently
// when packages move; and every markdown file a Go comment cites must
// exist. CI runs it in the docs job.
package repro

import (
	"go/parser"
	"go/token"
	"io/fs"
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

// modulePath is this repository's module path (go.mod). A backticked import
// path under it, such as `repro/internal/sim`, names that package's
// directory.
const modulePath = "repro"

// codePathFile returns the repository-relative file or directory a code
// path reference names: an import path under the module resolves to its
// package directory, a glob to the directory it sits in, and any other
// reference is already relative to the repository root, whichever doc
// mentions it.
func codePathFile(ref string) string {
	p := strings.TrimSuffix(ref, "/")
	if strings.ContainsAny(p, "*") {
		p = filepath.Dir(p)
	}
	if rel, ok := strings.CutPrefix(p, modulePath+"/"); ok {
		p = rel
	}
	return p
}

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
			if _, err := os.Stat(codePathFile(m[1])); err != nil {
				t.Errorf("%s: code path reference `%s` does not exist", file, m[1])
			}
		}
	}

	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, ref := range mdName.FindAllString(cg.Text(), -1) {
				if !mdCited(ref, filepath.Dir(path)) {
					t.Errorf("%s: comment cites %s, which is not at the repository root, in docs/ or beside the file", fset.Position(cg.Pos()), ref)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// mdName matches a markdown file a Go comment cites, by name or by path:
// README.md, docs/ARCHITECTURE.md.
var mdName = regexp.MustCompile(`\b[A-Za-z0-9_][A-Za-z0-9_./-]*\.md\b`)

// mdCited reports whether a markdown file that a Go comment in dir cites
// exists at the repository root, in docs/ or in dir itself.
func mdCited(ref, dir string) bool {
	for _, base := range []string{".", "docs", dir} {
		if _, err := os.Stat(filepath.Join(base, ref)); err == nil {
			return true
		}
	}
	return false
}

// TestMDCited pins where a markdown file a Go comment cites may live.
func TestMDCited(t *testing.T) {
	for _, c := range []struct {
		ref, dir string
		exists   bool
	}{
		{"README.md", "internal/sim", true},            // the root
		{"ARCHITECTURE.md", "internal/analysis", true}, // docs/
		{"docs/ARCHITECTURE.md", "cmd/quanto", true},   // a path from the root
		{"README.md", "examples/traffic", true},        // beside the file
		{"DESIGN.md", ".", false},                      // nowhere
		{"EXPERIMENTS.md", "internal/experiments", false},
	} {
		if got := mdCited(c.ref, c.dir); got != c.exists {
			t.Errorf("mdCited(%q, %q) = %v, want %v", c.ref, c.dir, got, c.exists)
		}
	}
}

// TestCodePathFile pins how a code path reference resolves: an import path
// under the module to its package directory, which must still exist, and a
// plain path to itself.
func TestCodePathFile(t *testing.T) {
	for _, c := range []struct {
		ref, file string
		exists    bool
	}{
		{"repro/internal/sim", "internal/sim", true},
		{"repro/internal/nosuchpkg", "internal/nosuchpkg", false},
		{"internal/power/draws.go", "internal/power/draws.go", true},
	} {
		file := codePathFile(c.ref)
		if file != c.file {
			t.Errorf("codePathFile(%q) = %q, want %q", c.ref, file, c.file)
		}
		if _, err := os.Stat(file); (err == nil) != c.exists {
			t.Errorf("`%s` resolves to %s: exists = %v, want %v", c.ref, file, err == nil, c.exists)
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
