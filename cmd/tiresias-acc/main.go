// Command tiresias-acc runs the adversarial scenario suite and scores
// detection quality against the injected ground truth — the accuracy
// sibling of the `go run ./bench -compare` perf gate.
//
// Usage:
//
//	tiresias-acc                       # run all scenarios, print the table
//	tiresias-acc -json ACC_pr.json     # also write the scorecard ("-" = stdout)
//	tiresias-acc -md -                 # write the markdown table ("-" = stdout)
//	tiresias-acc -scenario dup-flood   # run a single scenario
//	tiresias-acc -seed 42              # override the suite seed
//	tiresias-acc -list                 # list scenario names
//	tiresias-acc -compare old.json new.json -tolerance 0.05
//	                                   # accuracy-regression gate: exit
//	                                   # non-zero when any scenario's F1
//	                                   # dropped beyond tolerance
//
// When -json or -md is "-", stdout carries only that document and the
// summary line and table go to stderr; -json and -md cannot both be
// "-".
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"tiresias/internal/scenario"
)

// defaultSeed pins the suite when no -seed is given: scorecards are
// comparable across runs and machines by construction.
const defaultSeed = 1

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "tiresias-acc:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tiresias-acc", flag.ContinueOnError)
	var (
		jsonPath  = fs.String("json", "", "write the scorecard JSON to this file (\"-\" = stdout)")
		mdPath    = fs.String("md", "", "write the markdown scorecard table to this file (\"-\" = stdout)")
		names     = fs.String("scenario", "", "comma-separated scenario names to run (default all)")
		seed      = fs.Int64("seed", defaultSeed, "suite seed; identical seeds give byte-identical scorecards")
		list      = fs.Bool("list", false, "list scenario names and exit")
		compare   = fs.Bool("compare", false, "compare two ACC_*.json files (old new); exit non-zero on regression")
		tolerance = fs.Float64("tolerance", 0.05, "absolute F1 regression tolerance for -compare (0.05 = 5 F1 points)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		rest := fs.Args()
		if len(rest) < 2 {
			return fmt.Errorf("-compare needs two files: old.json new.json")
		}
		oldPath, newPath := rest[0], rest[1]
		if len(rest) > 2 {
			// Trailing flags after the positional files
			// (`-compare old.json new.json -tolerance 0.05`): the
			// first non-flag argument stops the initial Parse, so
			// re-parse the remainder.
			if err := fs.Parse(rest[2:]); err != nil {
				return err
			}
		}
		return runCompare(oldPath, newPath, *tolerance, stdout)
	}
	if *list {
		for _, sc := range scenario.All(*seed) {
			fmt.Fprintf(stdout, "%-18s %-8s %s\n", sc.Name, sc.Driver, sc.Description)
		}
		return nil
	}

	report := stdout
	switch {
	case *jsonPath == "-" && *mdPath == "-":
		return fmt.Errorf("-json - and -md - would put two documents on stdout; write one to a file")
	case *jsonPath == "-" || *mdPath == "-":
		report = stderr
	}
	var only []string
	if *names != "" {
		only = strings.Split(*names, ",")
	}
	begin := time.Now()
	card, err := scenario.RunSuite(*seed, only)
	if err != nil {
		return err
	}
	fmt.Fprintf(report, "tiresias-acc seed=%d (%d scenarios in %v)\n\n",
		card.Seed, len(card.Scores), time.Since(begin).Round(time.Millisecond))
	fmt.Fprint(report, card.Markdown())

	if *jsonPath != "" {
		raw, err := card.JSON()
		if err != nil {
			return err
		}
		if err := writeOut(*jsonPath, raw, stdout, report); err != nil {
			return err
		}
	}
	if *mdPath != "" {
		if err := writeOut(*mdPath, []byte(card.Markdown()), stdout, report); err != nil {
			return err
		}
	}
	return nil
}

// writeOut writes data to path, with "-" selecting stdout, and notes
// a written file on report.
func writeOut(path string, data []byte, stdout, report io.Writer) error {
	if path == "-" {
		_, err := stdout.Write(data)
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(report, "wrote %s\n", path)
	return nil
}

// runCompare loads two scorecards and applies the accuracy gate: an
// error (non-zero exit) when any scenario present in both dropped
// more than tolerance F1 points.
func runCompare(oldPath, newPath string, tolerance float64, stdout io.Writer) error {
	if tolerance < 0 {
		return fmt.Errorf("tolerance must be >= 0, got %g", tolerance)
	}
	oldCard, err := scenario.Load(oldPath)
	if err != nil {
		return err
	}
	newCard, err := scenario.Load(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "comparing %s (seed %d) -> %s (seed %d), tolerance %.2f F1\n",
		oldPath, oldCard.Seed, newPath, newCard.Seed, tolerance)
	lines, ok := scenario.Compare(oldCard, newCard, tolerance)
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	if !ok {
		return fmt.Errorf("detection-quality regression beyond %.2f F1 tolerance", tolerance)
	}
	fmt.Fprintln(stdout, "no regressions")
	return nil
}
