// Command perfbench is the repository's benchmark: it runs one named
// training workload end to end, checks every run's output, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as one JSON
// object on the last line of standard output. See README.md for the
// workloads, the metrics and what each is predicted to move.
//
//	bash perfbench/run.sh --workload sim-cnn --seed 1 --seconds 20 --trace 0
//
// "--workload all" runs every workload in turn from one process and
// prefixes each metric with its workload's name.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"hieradmo/internal/core"
	"hieradmo/internal/experiment"
	"hieradmo/internal/fl"
)

// setupReps is how many times a run rebuilds the workload's config to time
// set-up; the median is reported.
const setupReps = 15

// minRuns is the fewest training runs a measurement makes of each kind,
// however short --seconds is.
const minRuns = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or \"all\"")
	seed := fs.Uint64("seed", 1, "workload seed (feeds the dataset, partition and model init)")
	seconds := fs.Int("seconds", 20, "how long to keep starting measured training runs")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var selected []workload
	if *name == "all" {
		selected = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		selected = []workload{w}
	}

	total := output{Correct: true, Metrics: map[string]metric{}}
	budget := time.Duration(*seconds) * time.Second
	for _, w := range selected {
		b, err := newBench(w, *seed, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		var out output
		if *trace == 1 {
			out = b.traced(budget)
		} else {
			out = b.untraced(budget)
		}
		printReport(stdout, w.name, *seed, out)
		total.Correct = total.Correct && out.Correct
		total.Attempted += out.Attempted
		total.Failed += out.Failed
		for k, v := range out.Metrics {
			if len(selected) > 1 {
				k = w.name + "." + k
			}
			total.Metrics[k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func printReport(w io.Writer, name string, seed uint64, out output) {
	fmt.Fprintf(w, "%s seed=%d runs=%d failed=%d correct=%v\n", name, seed, out.Attempted, out.Failed, out.Correct)
	for _, k := range sortedKeys(out.Metrics) {
		m := out.Metrics[k]
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", k, m.Value, m.Unit)
	}
}

// bench holds one workload's built config and the outcome of its runs.
type bench struct {
	w      workload
	cfg    *fl.Config
	sh     shape
	log    io.Writer
	buildS []float64
	// ref is the reference simulation's result, for workloads whose output
	// is checked against it; first is the first run's result otherwise.
	ref, first *fl.Result

	attempted, failed int
	lossMismatches    int
}

// newBench builds the workload's config setupReps times, timing each build.
func newBench(w workload, seed uint64, log io.Writer) (*bench, error) {
	b := &bench{w: w, log: log}
	scale := w.scale
	scale.Seed = seed
	for i := 0; i < setupReps; i++ {
		// Start every build from the same collected heap, so one build does
		// not pay for the garbage of the one before it.
		runtime.GC()
		t0 := time.Now()
		cfg, err := experiment.BuildConfig(w.spec, scale)
		if err != nil {
			return nil, err
		}
		b.buildS = append(b.buildS, time.Since(t0).Seconds())
		b.cfg = cfg
	}
	sh, err := w.shape(b.cfg)
	if err != nil {
		return nil, err
	}
	b.sh = sh
	if w.checkedAgainstCore() {
		// Outside every timed region: the reference the cluster must match.
		ref, err := core.New().Run(b.cfg)
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		b.ref = ref
	}
	return b, nil
}

// checkedAgainstCore reports whether the workload's output must equal the
// reference simulation's: the 3-tier cluster runs the same arithmetic.
func (w workload) checkedAgainstCore() bool { return w.transport != "" && w.topology == "" }

// measure makes one training run and checks its output.
func (b *bench) measure(trace bool, workers int) (runResult, bool) {
	r := b.w.run(b.cfg, b.sh, trace, workers)
	b.attempted++
	err := r.err
	if err == nil {
		err = b.check(r.res)
	}
	if err != nil {
		b.failed++
		fmt.Fprintf(b.log, "%s: run %d failed: %v\n", b.w.name, b.attempted, err)
		return r, false
	}
	fmt.Fprintf(b.log, "%s: run %d trace=%v pool=%d: %.0f samples/s, round p50 %.3f ms, start %.4f s\n",
		b.w.name, b.attempted, trace, workers, r.samplesPS, r.roundMs, r.startS)
	return r, true
}

// check verifies one run's output: the cluster 3-tier run against the
// reference simulation, every other workload against its first run (all
// runs of one invocation must agree bit for bit) and its accuracy floor.
func (b *bench) check(res *fl.Result) error {
	if res.FinalAcc < b.w.accFloor {
		return fmt.Errorf("final accuracy %.4f below the floor %.2f", res.FinalAcc, b.w.accFloor)
	}
	if b.ref != nil {
		n, err := compareToReference(res, b.ref)
		if err != nil {
			return fmt.Errorf("differs from the reference simulation: %w", err)
		}
		b.lossMismatches = n
		return nil
	}
	if b.first == nil {
		b.first = res
		return nil
	}
	if !sameBits(res, b.first) {
		return fmt.Errorf("result differs from the first run of this invocation")
	}
	return nil
}

func (b *bench) result(metrics map[string]metric) output {
	return output{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	}
}
