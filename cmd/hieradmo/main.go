// Command hieradmo runs the reproduction experiments: every table and
// figure of the HierAdMo paper (ICDCS 2023), at a configurable scale.
//
// Usage:
//
//	hieradmo -list
//	hieradmo -exp table2 -scale bench
//	hieradmo -exp fig2e -scale default -train 8000 -T 2000
//	hieradmo -exp all -scale bench
package main

import (
	"flag"
	"fmt"
	"os"

	"hieradmo/internal/experiment"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hieradmo:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hieradmo", flag.ContinueOnError)
	var (
		list      = fs.Bool("list", false, "list experiment IDs and exit")
		exp       = fs.String("exp", "table2", `experiment ID (see -list) or "all"`)
		scaleName = fs.String("scale", "bench", `scale preset: "bench" or "default"`)
		train     = fs.Int("train", 0, "override training samples")
		test      = fs.Int("test", 0, "override test samples")
		tConvex   = fs.Int("tconvex", 0, "override convex-model iteration budget")
		tNonConv  = fs.Int("tnonconvex", 0, "override non-convex iteration budget")
		batch     = fs.Int("batch", 0, "override batch size")
		target    = fs.Float64("target", 0, "override time-to-accuracy target (fig2h/l)")
		repeats   = fs.Int("repeats", 0, "run Table II cells with N seeds and report mean ± std")
		workers   = fs.Int("workers", 0, "goroutine pool size for each run's parallel training phase (0 = GOMAXPROCS, 1 = sequential; results are identical at any setting)")
		csvOut    = fs.Bool("csv", false, "emit tables as CSV instead of aligned text")
		seed      = fs.Uint64("seed", 0, "override seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, id := range experiment.ExperimentIDs() {
			fmt.Println(id)
		}
		return nil
	}

	s, err := experiment.ScaleByName(*scaleName)
	if err != nil {
		return err
	}
	if *train > 0 {
		s.TrainSamples = *train
	}
	if *test > 0 {
		s.TestSamples = *test
	}
	if *tConvex > 0 {
		s.TConvex = *tConvex
	}
	if *tNonConv > 0 {
		s.TNonConvex = *tNonConv
	}
	if *batch > 0 {
		s.BatchSize = *batch
	}
	if *target > 0 {
		s.TargetAcc = *target
	}
	if *repeats > 0 {
		s.Repeats = *repeats
	}
	if *workers < 0 {
		return fmt.Errorf("-workers %d must be >= 0", *workers)
	}
	s.Workers = *workers
	if *seed > 0 {
		s.Seed = *seed
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiment.ExperimentIDs()
	}
	reg := experiment.Registry()
	for _, id := range ids {
		runner, ok := reg[id]
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", id)
		}
		tbl, err := runner(s)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		fmt.Println()
		if *csvOut {
			fmt.Print(tbl.RenderCSV())
		} else {
			fmt.Print(tbl.Render())
		}
	}
	return nil
}
