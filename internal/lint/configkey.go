package lint

import (
	"go/ast"
	"go/token"
	"reflect"
	"strconv"
	"strings"
)

// ConfigKey cross-checks scenario.Spec's struct fields against the ConfigKey
// serialization path and the package's declared cache-key decision lists.
// ConfigKey is the cache key for every sweep result (seed derivation hashes
// it; Aggregate groups by it; the sweep-as-a-service roadmap item serves
// cached results by it), so each Spec field must have an explicit fate:
//
//   - configKeyIncluded: serialized into the key — the field is
//     configuration and changes results;
//   - configKeyExcluded: cleared before serialization — a performance or
//     observation knob proven (and pinned by a TestConfigKey* invariance
//     test) not to change results;
//   - configKeyIdentity: cleared before serialization — names a run rather
//     than configuring it (seed, name).
//
// The analyzer errors when a Spec field appears in no list (adding a field
// without deciding its cache-key fate), in two lists, when a list entry
// names no field (a stale decision), and when the ConfigKey body's cleared
// fields disagree with excluded+identity — so docs, code, and lint cannot
// drift apart. It triggers on any package declaring a struct type Spec with
// a ConfigKey method, which is how its fixtures exercise it without
// importing the real scenario package.
var ConfigKey = &Analyzer{
	Name: "configkey",
	Doc:  "every Spec field must have a declared ConfigKey fate (included, excluded, or identity) matching what ConfigKey clears",
	Run:  runConfigKey,
}

// configKeyLists names the package-level string-slice vars that declare each
// fate.
var configKeyLists = []string{"configKeyIncluded", "configKeyExcluded", "configKeyIdentity"}

func runConfigKey(pass *Pass) {
	spec := findStruct(pass.Files, "Spec")
	body := findMethodBody(pass.Files, "Spec", "ConfigKey")
	if spec == nil || body == nil {
		return
	}

	// JSON wire name of every Spec field, and Go field name -> wire name for
	// resolving the clears in the ConfigKey body.
	fieldPos := make(map[string]token.Pos)
	goToJSON := make(map[string]string)
	for _, f := range spec.Fields.List {
		tag := ""
		if f.Tag != nil {
			unq, err := strconv.Unquote(f.Tag.Value)
			if err == nil {
				tag = reflect.StructTag(unq).Get("json")
			}
		}
		name, _, _ := strings.Cut(tag, ",")
		for _, ident := range f.Names {
			wire := name
			switch wire {
			case "-":
				continue // not serialized: no cache-key fate to decide
			case "":
				wire = ident.Name // encoding/json falls back to the Go name
			}
			fieldPos[wire] = ident.Pos()
			goToJSON[ident.Name] = wire
		}
	}

	// The three decision lists.
	fate := make(map[string]string)       // wire name -> list
	listPos := make(map[string]token.Pos) // "list/entry" -> pos
	for _, list := range configKeyLists {
		lit, pos := findStringSlice(pass.Files, list)
		if lit == nil {
			pass.Reportf(spec.Pos(), "package declares Spec with ConfigKey but no %s list: every Spec field needs a declared cache-key fate", list)
			return
		}
		_ = pos
		for _, entry := range lit {
			if prev, ok := fate[entry.val]; ok {
				pass.Reportf(entry.pos, "Spec field %q appears in both %s and %s: a field has exactly one cache-key fate", entry.val, prev, list)
				continue
			}
			fate[entry.val] = list
			listPos[list+"/"+entry.val] = entry.pos
			if _, ok := fieldPos[entry.val]; !ok {
				pass.Reportf(entry.pos, "%s entry %q names no Spec JSON field: stale cache-key decision", list, entry.val)
			}
		}
	}

	// Every field decided exactly once.
	for _, f := range spec.Fields.List {
		for _, ident := range f.Names {
			wire, ok := goToJSON[ident.Name]
			if !ok {
				continue
			}
			if _, ok := fate[wire]; !ok {
				pass.Reportf(ident.Pos(), "Spec field %s (json %q) has no declared ConfigKey fate: add it to configKeyIncluded, or to configKeyExcluded with a TestConfigKey* invariance test, or to configKeyIdentity", ident.Name, wire)
			}
		}
	}

	// The serialization path: ConfigKey copies the spec and clears fields
	// before marshaling. Cleared fields must be exactly excluded+identity.
	cleared := make(map[string]token.Pos)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN {
			return true
		}
		for _, lhs := range as.Lhs {
			sel, ok := lhs.(*ast.SelectorExpr)
			if !ok {
				continue
			}
			if _, ok := sel.X.(*ast.Ident); !ok {
				continue
			}
			if wire, ok := goToJSON[sel.Sel.Name]; ok {
				cleared[wire] = sel.Pos()
			}
		}
		return true
	})
	//quanto:ordered each wire reports at its own position, and Run sorts every diagnostic by position
	for wire, list := range fate {
		if _, ok := fieldPos[wire]; !ok {
			continue // stale entry, already reported above
		}
		pos, isCleared := cleared[wire]
		switch {
		case list == "configKeyIncluded" && isCleared:
			pass.Reportf(pos, "ConfigKey clears field %q, but %s declares it part of the cache key", wire, list)
		case list != "configKeyIncluded" && !isCleared:
			if p, ok := listPos[list+"/"+wire]; ok {
				pass.Reportf(p, "%s declares %q cleared from the cache key, but ConfigKey does not clear it", list, wire)
			}
		}
	}
}

// findStruct returns the struct type declared with the given name, if any.
func findStruct(files []*ast.File, name string) *ast.StructType {
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, s := range gd.Specs {
				ts, ok := s.(*ast.TypeSpec)
				if !ok || ts.Name.Name != name {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					return st
				}
			}
		}
	}
	return nil
}

// findMethodBody returns the body of the method recv.name, matching either
// value or pointer receivers.
func findMethodBody(files []*ast.File, recv, name string) *ast.BlockStmt {
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != name || fd.Recv == nil || len(fd.Recv.List) != 1 {
				continue
			}
			t := fd.Recv.List[0].Type
			if star, ok := t.(*ast.StarExpr); ok {
				t = star.X
			}
			if ident, ok := t.(*ast.Ident); ok && ident.Name == recv {
				return fd.Body
			}
		}
	}
	return nil
}

type stringEntry struct {
	val string
	pos token.Pos
}

// findStringSlice returns the entries of a package-level
// `var name = []string{...}` (or `[...]string{...}`) declaration.
func findStringSlice(files []*ast.File, name string) ([]stringEntry, token.Pos) {
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, s := range gd.Specs {
				vs, ok := s.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, ident := range vs.Names {
					if ident.Name != name || i >= len(vs.Values) {
						continue
					}
					cl, ok := vs.Values[i].(*ast.CompositeLit)
					if !ok {
						continue
					}
					entries := make([]stringEntry, 0, len(cl.Elts))
					for _, e := range cl.Elts {
						bl, ok := e.(*ast.BasicLit)
						if !ok || bl.Kind != token.STRING {
							continue
						}
						v, err := strconv.Unquote(bl.Value)
						if err != nil {
							continue
						}
						entries = append(entries, stringEntry{val: v, pos: bl.Pos()})
					}
					return entries, cl.Pos()
				}
			}
		}
	}
	return nil, token.NoPos
}
