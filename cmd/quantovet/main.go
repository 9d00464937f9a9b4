// quantovet is the repo's determinism linter: a multichecker running the
// internal/lint analyzers (maporder, wallclock, rngdomain) over the given
// package patterns, so violations of the byte-identical-replay contract fail
// `go run ./cmd/quantovet ./...` — and CI — before a sweep ever runs.
//
// Usage:
//
//	quantovet [-json] [packages]
//
// With no patterns it checks ./.... Exit status: 0 when clean, 1 when any
// analyzer reported a diagnostic, 2 on usage or load errors. -json replaces
// the vet-style file:line:col lines with a machine-readable array of
// {analyzer, file, line, col, message} objects.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// jsonDiagnostic is the -json wire form of one finding.
type jsonDiagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("quantovet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array instead of vet-style lines")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: quantovet [-json] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "quantovet: %v\n", err)
		return 2
	}
	pkgs, err := lint.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "quantovet: %v\n", err)
		return 2
	}

	diags := lint.Run(pkgs, lint.Analyzers())
	if *jsonOut {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				Analyzer: d.Analyzer,
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "quantovet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
