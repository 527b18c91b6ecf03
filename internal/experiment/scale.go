// Package experiment regenerates every table and figure of the paper's
// evaluation section (§V): Table II's 11-algorithm comparison over seven
// model×dataset combinations, the τ/π hyper-parameter sweeps (Fig. 2a–c),
// the 100-worker run (Fig. 2d), the non-IID level study (Fig. 2e–g), the
// trace-driven training-time comparison (Fig. 2h/l), and the adaptive-γℓ
// versus exhaustive-fixed-γℓ study (Fig. 2i–k), plus two ablations of the
// adaptation design.
//
// All experiments are parameterized by a Scale so the full suite runs in
// minutes on a laptop (BenchScale) or at paper-like iteration counts
// (PaperScale) from the CLI.
package experiment

import "fmt"

// Scale sets the cost/fidelity trade-off of an experiment run.
type Scale struct {
	// TrainSamples/TestSamples size the synthetic datasets.
	TrainSamples, TestSamples int
	// TConvex and TNonConvex are total local-iteration budgets for convex
	// (linear/logistic) and non-convex (CNN/VGG/ResNet) models.
	TConvex, TNonConvex int
	// BatchSize is the worker mini-batch size.
	BatchSize int
	// EvalEvery is the curve-recording period (0 derives T/10).
	EvalEvery int
	// EvalSamples caps per-point evaluation cost (0 = full test set).
	EvalSamples int
	// TargetAcc is the time-to-accuracy target for the Fig. 2h/l study.
	TargetAcc float64
	// Repeats runs each Table II cell with that many different seeds and
	// reports "mean ± std" like the paper (0 or 1 = single run).
	Repeats int
	// Workers bounds the goroutine pool of every run's parallel
	// local-training phase (0 = runtime.GOMAXPROCS(0), 1 = sequential).
	// Results are bit-identical at every setting; only wall-clock changes.
	Workers int
	// Seed drives all randomness.
	Seed uint64
}

// Validate checks the scale for structural errors.
func (s Scale) Validate() error {
	switch {
	case s.TrainSamples <= 0 || s.TestSamples <= 0:
		return fmt.Errorf("experiment: non-positive dataset sizes %d/%d", s.TrainSamples, s.TestSamples)
	case s.TConvex <= 0 || s.TNonConvex <= 0:
		return fmt.Errorf("experiment: non-positive iteration budgets %d/%d", s.TConvex, s.TNonConvex)
	case s.BatchSize <= 0:
		return fmt.Errorf("experiment: non-positive batch size %d", s.BatchSize)
	case s.TargetAcc <= 0 || s.TargetAcc >= 1:
		return fmt.Errorf("experiment: target accuracy %v outside (0,1)", s.TargetAcc)
	case s.Repeats < 0:
		return fmt.Errorf("experiment: negative repeats %d", s.Repeats)
	case s.Workers < 0:
		return fmt.Errorf("experiment: negative worker pool size %d", s.Workers)
	}
	return nil
}

// BenchScale is the scaled-down preset used by the bench harness: small
// datasets and iteration budgets that preserve ordering (who beats whom) at
// a fraction of the paper's cost.
func BenchScale() Scale {
	return Scale{
		TrainSamples: 800,
		TestSamples:  600,
		TConvex:      400,
		TNonConvex:   320,
		BatchSize:    8,
		EvalEvery:    40,
		EvalSamples:  150,
		// The paper targets 0.95 at full scale; at bench scale the curves
		// top out near 0.87, so the time-to-accuracy study targets 0.75.
		TargetAcc: 0.75,
		Seed:      1,
	}
}

// DefaultScale is the CLI preset: closer to the paper's budgets while still
// laptop-friendly.
func DefaultScale() Scale {
	return Scale{
		TrainSamples: 4000,
		TestSamples:  1000,
		TConvex:      1000,
		TNonConvex:   1600,
		BatchSize:    16,
		EvalEvery:    80,
		EvalSamples:  400,
		TargetAcc:    0.95,
		Seed:         1,
	}
}

// ScaleByName resolves a CLI -scale flag: "bench" is BenchScale and
// "default" is DefaultScale.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "bench":
		return BenchScale(), nil
	case "default":
		return DefaultScale(), nil
	}
	return Scale{}, fmt.Errorf("unknown scale %q (want bench or default)", name)
}
