// Command tiresias-vet is the repo's invariant checker: a multichecker
// running the internal/analysis suite (hotpath, locks, goroline,
// atomiccheck, wireerr, ckptsec, forbidimport, deadexport)
// over the given packages. It exits non-zero when any analyzer reports
// a finding, so CI can run it as a blocking lint step:
//
//	go run ./cmd/tiresias-vet ./...
//
// deadexport needs that whole-module load, from the module root: on a
// narrower pattern it reports nothing.
//
// Findings are printed one per line as file:line:col: [analyzer]
// message, or — with -json — as a JSON array of
// {file,line,col,analyzer,message} objects on stdout, for machine
// consumption (CI step summaries, editor integrations). A finding can
// be suppressed — deliberately and reviewably — with a trailing or
// preceding `//tiresias:ignore [analyzer ...] (justification)` comment
// at the flagged line.
//
// Flags:
//
//	-only name[,name...]   run only the named analyzers
//	-json                  emit findings as a JSON array on stdout
//	-list                  print the analyzers and exit
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"tiresias/internal/analysis"
)

// jsonFinding is the machine-readable shape of one diagnostic. Type
// errors are reported under the pseudo-analyzer "typecheck" so a JSON
// consumer sees every reason the run failed in one stream.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	var (
		only     = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		list     = flag.Bool("list", false, "list analyzers and exit")
		jsonOut  = flag.Bool("json", false, "emit findings as a JSON array on stdout")
		findings []jsonFinding
	)
	flag.Parse()

	analyzers := analysis.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		analyzers = filterAnalyzers(analyzers, strings.Split(*only, ","))
		if len(analyzers) == 0 {
			fmt.Fprintf(os.Stderr, "tiresias-vet: no analyzer matches -only %q\n", *only)
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tiresias-vet: %v\n", err)
		os.Exit(2)
	}

	failed := false
	for _, pkg := range pkgs {
		for _, e := range pkg.TypeErrors {
			failed = true
			if *jsonOut {
				findings = append(findings, jsonFinding{Analyzer: "typecheck", Message: fmt.Sprintf("%s: %v", pkg.PkgPath, e)})
			} else {
				fmt.Fprintf(os.Stderr, "tiresias-vet: %s: %v\n", pkg.PkgPath, e)
			}
		}
	}
	diags, err := analysis.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tiresias-vet: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		failed = true
		if *jsonOut {
			findings = append(findings, jsonFinding{
				File:     d.Position.Filename,
				Line:     d.Position.Line,
				Col:      d.Position.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		} else {
			fmt.Println(d)
		}
	}
	if *jsonOut {
		// Always an array — `[]` on a clean tree — so consumers can
		// jq without guarding against null.
		if findings == nil {
			findings = []jsonFinding{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "tiresias-vet: encoding findings: %v\n", err)
			os.Exit(2)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// filterAnalyzers keeps the analyzers whose names appear in names.
func filterAnalyzers(all []*analysis.Analyzer, names []string) []*analysis.Analyzer {
	keep := map[string]bool{}
	for _, n := range names {
		keep[strings.TrimSpace(n)] = true
	}
	var out []*analysis.Analyzer
	for _, a := range all {
		if keep[a.Name] {
			out = append(out, a)
		}
	}
	return out
}
