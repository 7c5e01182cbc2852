// Command tiresias-bench regenerates the paper's tables and figures
// on synthetic workloads.
//
// Usage:
//
//	tiresias-bench                 # run everything, quick profile
//	tiresias-bench -profile full   # paper-scale dimensions
//	tiresias-bench -exp table3     # a single experiment
//	tiresias-bench -list           # list experiment identifiers
//	tiresias-bench -seed 7         # override the profile seed
//	tiresias-bench -data DIR       # also write raw figure point data (CSV)
//
// The served system's cost is measured by `go run ./bench`; the hot
// paths have `go test -bench` benchmarks in the repository root.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"tiresias/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tiresias-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tiresias-bench", flag.ContinueOnError)
	var (
		profile = fs.String("profile", "quick", "workload profile: quick | full")
		exp     = fs.String("exp", "", "run a single experiment (see -list)")
		list    = fs.Bool("list", false, "list experiment identifiers and exit")
		seed    = fs.Int64("seed", 0, "override the profile seed (0 keeps default)")
		dataDir = fs.String("data", "", "write raw figure point data (CSV) into this directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return nil
	}
	var p experiments.Profile
	switch *profile {
	case "quick":
		p = experiments.Quick()
	case "full":
		p = experiments.Full()
	default:
		return fmt.Errorf("unknown profile %q", *profile)
	}
	if *seed != 0 {
		p.Seed = *seed
	}
	fmt.Fprintf(stdout, "tiresias-bench profile=%s (netScale=%.2f, ℓ=%d, run=%d units, Δ=%v, θ=%.0f, %s)\n\n",
		p.Name, p.NetScale, p.WindowLen, p.RunUnits, p.Delta, p.Theta, forecaster(p))
	if *exp != "" {
		start := time.Now()
		r, err := experiments.ByID(*exp, p)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, r.Text)
		fmt.Fprintf(stdout, "[%s in %v]\n", r.ID, time.Since(start).Round(time.Millisecond))
		return writePlotData(*dataDir, r, stdout)
	}
	for _, id := range experiments.IDs() {
		start := time.Now()
		r, err := experiments.ByID(id, p)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Fprintln(stdout, r.Text)
		fmt.Fprintf(stdout, "[%s in %v]\n\n", r.ID, time.Since(start).Round(time.Millisecond))
		if err := writePlotData(*dataDir, r, stdout); err != nil {
			return err
		}
	}
	return nil
}

// forecaster names the forecaster the profile's engines run, as
// checkpoint.Config.Engine chooses it.
func forecaster(p experiments.Profile) string {
	switch {
	case p.AutoSeason:
		return fmt.Sprintf("periods=auto hw=%g/%g/%g", p.HWAlpha, p.HWBeta, p.HWGamma)
	case len(p.SeasonPeriods) == 0:
		return fmt.Sprintf("periods=[] ewma=%g", p.HWAlpha)
	}
	return fmt.Sprintf("periods=%v hw=%g/%g/%g", p.SeasonPeriods, p.HWAlpha, p.HWBeta, p.HWGamma)
}

// writePlotData dumps a result's raw CSV point series under dir.
func writePlotData(dir string, r *experiments.Result, stdout io.Writer) error {
	if dir == "" || len(r.PlotData) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	names := make([]string, 0, len(r.PlotData))
	for name := range r.PlotData {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(dir, name+".csv")
		if err := os.WriteFile(path, []byte(r.PlotData[name]), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
	}
	return nil
}
