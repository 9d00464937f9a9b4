// Package linttest runs a lint.Analyzer over fixture packages and checks
// its diagnostics against `// want "regexp"` comments — the same contract as
// golang.org/x/tools/go/analysis/analysistest, reimplemented on the standard
// library so the module keeps building offline.
//
// Fixtures live in a GOPATH-style tree: testdata/src/<importpath>/*.go.
// Imports resolve fixture-first — testdata/src/repro/internal/sim can stub
// the real sim package, which is how the rngdomain fixtures exercise
// sim.DeriveSeed call sites, and how fixture packages land inside the
// deterministic-package set that scopes maporder and wallclock — and fall
// back to real export data (standard library included) via the go command.
//
// Every line that should produce a diagnostic carries a trailing
// `// want "re"` comment (several quoted regexps for several diagnostics on
// one line); a diagnostic with no matching want, or a want with no matching
// diagnostic, fails the test with the position attached.
package linttest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
)

// Run applies the analyzer to each fixture package (import paths under
// testdata/src) and reports mismatches against the fixtures' want comments
// as test errors.
func Run(t *testing.T, testdata string, a *lint.Analyzer, paths ...string) {
	t.Helper()
	ld := newLoader(testdata)
	for _, path := range paths {
		pkg, err := ld.load(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		diags := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{a})
		checkWants(t, ld.fset, pkg.Files, diags)
	}
}

// wantRe matches one quoted expectation in a want comment: a double-quoted
// Go string or a backquoted raw pattern, as in analysistest.
var wantRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// checkWants compares diagnostics against the fixtures' `// want` comments,
// matching per (file, line).
func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []lint.Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				k := key{pos.Filename, pos.Line}
				for _, m := range wantRe.FindAllString(text[len("want "):], -1) {
					pat, err := strconv.Unquote(m)
					if err != nil {
						t.Errorf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, m, err)
						continue
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
						continue
					}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}

	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		matched := false
		for i, re := range wants[k] {
			if re != nil && re.MatchString(d.Message) {
				wants[k][i] = nil // consume
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic:\n  %s", d)
		}
	}
	leftover := make([]string, 0)
	//quanto:ordered leftover is sorted before it is reported
	for k, res := range wants {
		for _, re := range res {
			if re != nil {
				leftover = append(leftover, fmt.Sprintf("%s:%d: want %q matched no diagnostic", k.file, k.line, re.String()))
			}
		}
	}
	sort.Strings(leftover)
	for _, l := range leftover {
		t.Error(l)
	}
}

// loader resolves fixture packages GOPATH-style from root, with real export
// data (via `go list -export`) for everything else.
type loader struct {
	root    string // testdata/src
	fset    *token.FileSet
	cache   map[string]*fixturePkg
	exports map[string]string
	gc      types.Importer
}

type fixturePkg struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
	err   error
}

func newLoader(testdata string) *loader {
	ld := &loader{
		root:    filepath.Join(testdata, "src"),
		fset:    token.NewFileSet(),
		cache:   make(map[string]*fixturePkg),
		exports: make(map[string]string),
	}
	ld.gc = importer.ForCompiler(ld.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := ld.exports[path]
		if !ok {
			return nil, fmt.Errorf("linttest: no export data for %q", path)
		}
		return os.Open(f)
	})
	return ld
}

// load parses and type-checks one fixture package.
func (ld *loader) load(path string) (*lint.Package, error) {
	fp := ld.fixture(path)
	if fp.err != nil {
		return nil, fp.err
	}
	return &lint.Package{
		Path:  path,
		Fset:  ld.fset,
		Files: fp.files,
		Types: fp.types,
		Info:  fp.info,
	}, nil
}

func (ld *loader) fixture(path string) *fixturePkg {
	if fp, ok := ld.cache[path]; ok {
		return fp
	}
	fp := &fixturePkg{}
	ld.cache[path] = fp

	dir := filepath.Join(ld.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		fp.err = fmt.Errorf("linttest: fixture %s: %v", path, err)
		return fp
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			fp.err = fmt.Errorf("linttest: parse %s: %v", e.Name(), err)
			return fp
		}
		fp.files = append(fp.files, f)
	}
	if len(fp.files) == 0 {
		fp.err = fmt.Errorf("linttest: fixture %s has no Go files", path)
		return fp
	}

	fp.info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: (*fixtureImporter)(ld)}
	fp.types, err = conf.Check(path, ld.fset, fp.files, fp.info)
	if err != nil {
		fp.err = fmt.Errorf("linttest: typecheck %s: %v", path, err)
	}
	return fp
}

// fixtureImporter resolves imports fixture-first, then through export data.
type fixtureImporter loader

func (im *fixtureImporter) Import(path string) (*types.Package, error) {
	ld := (*loader)(im)
	if st, err := os.Stat(filepath.Join(ld.root, filepath.FromSlash(path))); err == nil && st.IsDir() {
		fp := ld.fixture(path)
		if fp.err != nil {
			return nil, fp.err
		}
		return fp.types, nil
	}
	if _, ok := ld.exports[path]; !ok {
		if err := ld.listExports(path); err != nil {
			return nil, err
		}
	}
	return ld.gc.Import(path)
}

// listExports compiles and records export data for path and all its
// dependencies.
func (ld *loader) listExports(path string) error {
	cmd := exec.Command("go", "list", "-e", "-export", "-deps", "-json=ImportPath,Export", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("linttest: go list -export %s: %v\n%s", path, err, stderr.Bytes())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("linttest: parse go list output: %v", err)
		}
		if p.Export != "" {
			ld.exports[p.ImportPath] = p.Export
		}
	}
	return nil
}
