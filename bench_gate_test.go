// TestEveryBenchmarkGated keeps every benchmark under a gate: each
// Benchmark function in the module must be selected by a `go test -bench`
// command in the CI workflow, for its package, and not removed whole by
// that command's -skip; and a committed BENCH_*.json record must hold its
// rows. A benchmark that no gate runs measures nothing anyone reads.
package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/benchfmt"
)

const ciWorkflow = ".github/workflows/ci.yml"

// benchCommand is one `go test -bench` invocation: the packages it runs
// and its -bench and -skip patterns, each split into per-level elements.
type benchCommand struct {
	line        string
	pkgs        []string
	bench, skip []string
}

// shellWord matches one word of a workflow command line: quoted whole,
// bare, or the pipe that ends the command.
var shellWord = regexp.MustCompile(`'[^']*'|"[^"]*"|[^\s'"|]+|\|`)

// shellWords splits a command line into words, unquoted, up to a pipe.
func shellWords(line string) []string {
	var words []string
	for _, w := range shellWord.FindAllString(line, -1) {
		if w == "|" {
			break
		}
		words = append(words, strings.Trim(w, `'"`))
	}
	return words
}

// splitPattern splits a -bench or -skip pattern into its per-level
// elements at each slash outside brackets and parentheses, as the testing
// package does.
func splitPattern(p string) []string {
	var out []string
	depth, start := 0, 0
	for i, r := range p {
		switch r {
		case '[', '(':
			depth++
		case ']', ')':
			depth--
		case '/':
			if depth == 0 {
				out = append(out, p[start:i])
				start = i + 1
			}
		}
	}
	return append(out, p[start:])
}

// valueFlags are the go test flags that take the next word as their value.
var valueFlags = map[string]bool{
	"run": true, "bench": true, "skip": true, "benchtime": true, "count": true,
	"cpu": true, "fuzz": true, "fuzztime": true, "timeout": true, "shuffle": true,
}

// parseBenchCommands returns every `go test` command with a -bench flag in
// the workflow text.
func parseBenchCommands(workflow string) []benchCommand {
	var cmds []benchCommand
	for _, line := range strings.Split(workflow, "\n") {
		i := strings.Index(line, "go test ")
		if i < 0 || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		words := shellWords(line[i+len("go test "):])
		cmd := benchCommand{line: strings.TrimSpace(line)}
		for j := 0; j < len(words); j++ {
			w := words[j]
			if !strings.HasPrefix(w, "-") {
				cmd.pkgs = append(cmd.pkgs, w)
				continue
			}
			name, value, inline := strings.Cut(strings.TrimLeft(w, "-"), "=")
			if !inline && valueFlags[name] && j+1 < len(words) {
				j++
				value = words[j]
			}
			switch name {
			case "bench":
				cmd.bench = splitPattern(value)
			case "skip":
				cmd.skip = splitPattern(value)
			}
		}
		if cmd.bench != nil {
			cmds = append(cmds, cmd)
		}
	}
	return cmds
}

// runsPackage reports whether the command names the package in dir (slash
// separated, relative to the module root, "." for the root).
func (c benchCommand) runsPackage(dir string) bool {
	for _, p := range c.pkgs {
		if p == dir || p == "./"+dir {
			return true
		}
	}
	return false
}

// selects reports whether the command runs the benchmark function name: its
// -bench matches the name at the top level, and its -skip, if it has no
// sub-benchmark element, does not.
func (c benchCommand) selects(t *testing.T, name string) bool {
	match := func(pattern string) bool {
		re, err := regexp.Compile(pattern)
		if err != nil {
			t.Fatalf("%s: bad pattern %q: %v", c.line, pattern, err)
		}
		return re.MatchString(name)
	}
	if !match(c.bench[0]) {
		return false
	}
	return len(c.skip) != 1 || !match(c.skip[0])
}

// benchmarkFuncs returns each Benchmark function of the module, keyed by
// name, with its package directory. Nested modules and testdata are not
// the module's.
func benchmarkFuncs(t *testing.T) map[string]string {
	t.Helper()
	funcs := make(map[string]string)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Benchmark") {
				funcs[fn.Name.Name] = filepath.ToSlash(filepath.Dir(path))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

func TestEveryBenchmarkGated(t *testing.T) {
	data, err := os.ReadFile(ciWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	cmds := parseBenchCommands(string(data))
	if len(cmds) == 0 {
		t.Fatalf("%s: no go test -bench command found", ciWorkflow)
	}
	records, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, path := range records {
		doc, err := benchfmt.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range doc.Benchmarks {
			rows = append(rows, b.Name)
		}
	}

	funcs := benchmarkFuncs(t)
	if len(funcs) == 0 {
		t.Fatal("no benchmark functions found")
	}
	for _, name := range slices.Sorted(maps.Keys(funcs)) {
		dir := funcs[name]
		selected := false
		for _, c := range cmds {
			if c.runsPackage(dir) && c.selects(t, name) {
				selected = true
				break
			}
		}
		if !selected {
			t.Errorf("%s (in %s) is selected by no go test -bench command in %s", name, dir, ciWorkflow)
		}
		short := strings.TrimPrefix(name, "Benchmark")
		recorded := false
		for _, r := range rows {
			if r == short || strings.HasPrefix(r, short+"/") {
				recorded = true
				break
			}
		}
		if !recorded {
			t.Errorf("%s (in %s) has no row in any committed BENCH_*.json", name, dir)
		}
	}
}
