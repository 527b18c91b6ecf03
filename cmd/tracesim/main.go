// Command tracesim runs the paper's trace-driven training-time study
// (Fig. 2(h)/(l)): it trains CNN-on-MNIST with every algorithm, replays the
// accuracy curves onto the simulated testbed timelines, and reports the
// wall-clock time each algorithm needs to reach the target accuracy,
// together with the HierAdMo speedup factors.
//
// Usage:
//
//	tracesim -setting 1            # Fig. 2(h): tau=10, pi=2 / two-tier tau=20
//	tracesim -setting 2 -target 0.8
package main

import (
	"flag"
	"fmt"
	"os"

	"hieradmo/internal/experiment"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tracesim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tracesim", flag.ContinueOnError)
	var (
		setting   = fs.Int("setting", 1, "paper setting: 1 (Fig. 2h) or 2 (Fig. 2l)")
		target    = fs.Float64("target", 0, "target accuracy (default from scale preset)")
		scaleName = fs.String("scale", "bench", `scale preset: "bench" or "default"`)
		seed      = fs.Uint64("seed", 0, "override seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := experiment.ScaleByName(*scaleName)
	if err != nil {
		return err
	}
	if *target > 0 {
		s.TargetAcc = *target
	}
	if *seed > 0 {
		s.Seed = *seed
	}
	var ts experiment.TimingSetting
	switch *setting {
	case 1:
		ts = experiment.TimingSetting1
	case 2:
		ts = experiment.TimingSetting2
	default:
		return fmt.Errorf("setting %d, want 1 or 2", *setting)
	}
	tbl, err := experiment.RunFig2TrainingTime(s, ts)
	if err != nil {
		return err
	}
	fmt.Print(tbl.Render())
	return nil
}
