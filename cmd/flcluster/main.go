// Command flcluster runs HierAdMo as an actual distributed protocol: one
// node per worker, edge, and cloud of the aggregation tree, exchanging
// models and momenta over an in-memory hub or real TCP sockets. The distributed run is bit-identical
// to the in-process simulation (same batch streams, same aggregation
// order), which the command verifies when -verify is set.
//
// Usage:
//
//	flcluster -transport tcp -dataset mnist -model cnn
//	flcluster -transport memory -verify -save-result out.json -save-curve out.csv
//
// Fault-tolerance flags turn the run into a deterministic chaos experiment:
//
//	flcluster -crash worker-0-1@40 -min-quorum 0.5 -straggler-deadline 200ms
//	flcluster -drop-rate 0.03 -fault-seed 11 -min-quorum 0.5 \
//	    -straggler-deadline 300ms -recv-timeout 3s
//
// The run then degrades gracefully (quorum aggregation with renormalized
// weights) and prints a fault report instead of dying on the first lost
// message. Tolerance is bounded: a run whose losses exceed what the quorum
// and the one-sync staleness budget can absorb (e.g. heavy sustained loss on
// a topology with no quorum margin) still fails fast, with every node's
// error joined.
//
// Crash recovery: with -checkpoint-dir every node snapshots its state after
// each completed round. SIGINT/SIGTERM stops the run gracefully (exit code
// 3); rerunning with the same flags plus -resume continues from the
// snapshots and finishes with results bit-identical to an uninterrupted run.
// A second signal aborts immediately (exit code 4).
//
//	flcluster -checkpoint-dir ckpt            # ctrl-C mid-run → exit 3
//	flcluster -checkpoint-dir ckpt -resume    # picks up where it stopped
//
// Dynamic membership: -churn-plan replays a deterministic join/leave trace
// (a trace file, or an inline spec) and -retier-every re-clusters workers
// across edges every k cloud syncs; -migration picks the γℓ carry rule on
// cohort change. The whole trajectory is a pure function of the flags, so
// a churn run is bit-identical across reruns and transports:
//
//	flcluster -churn-plan "join:worker-0-1@3,leave:worker-1-0@9" -retier-every 2
//
// Byzantine robustness: -attack-plan injects deterministic adversarial
// reports at the worker boundary (sign-flip, scaling, seeded noise, stale
// replay) and -aggregator swaps the tier aggregation rule for a robust one
// (median, trimmed mean, norm-clipping, cosine-outlier filter), per tier
// if desired: "edge=" sets the rule of the tree's leaf-parent level and
// "cloud=" that of its root. The run prints an attack report with injected and rejected
// counts; both knobs are pure functions of the flags, so Byzantine runs
// replay bit-identically:
//
//	flcluster -attack-plan "signflip:worker-0-1@1" -aggregator median
//	flcluster -attack-plan "noise:worker-1-0@2-6=0.5" \
//	    -aggregator edge=trimmed,cloud=mean -trim 0.2
//
// N-tier topologies: the run always executes on an aggregation tree; the
// default is the paper's cloud/edge/worker tree, and -topology replaces it
// with any other — depth, fan-out, per-level sync periods τℓ, and per-level
// aggregation rules all come from the spec (an agg= that conflicts with
// -aggregator is a usage error); the training leaves regroup the workload's
// worker shards in order:
//
//	flcluster -model logistic \
//	    -topology "cloud:tau=20/region*2:tau=10,agg=median/edge*2:tau=5/worker"
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"hieradmo/internal/cluster"
	"hieradmo/internal/core"
	"hieradmo/internal/experiment"
	"hieradmo/internal/membership"
	"hieradmo/internal/persist"
	"hieradmo/internal/robust"
	"hieradmo/internal/telemetry"
	"hieradmo/internal/topology"
	"hieradmo/internal/transport"
)

func main() {
	os.Exit(mainExit(os.Args[1:], installInterrupt("flcluster")))
}

// mainExit runs the cluster and maps the outcome to the process exit code:
// 0 success, 1 failure, 3 gracefully interrupted (state checkpointed when
// -checkpoint-dir is set; rerun with -resume to continue).
func mainExit(args []string, interrupt <-chan struct{}) int {
	if err := run(args, interrupt); err != nil {
		fmt.Fprintln(os.Stderr, "flcluster:", err)
		if errors.Is(err, cluster.ErrInterrupted) {
			return 3
		}
		return 1
	}
	return 0
}

// installInterrupt returns a channel closed on the first SIGINT/SIGTERM,
// requesting a graceful checkpoint-and-stop. A second signal aborts the
// process immediately with exit code 4.
func installInterrupt(name string) <-chan struct{} {
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	interrupt := make(chan struct{})
	//flvet:allow goexec -- signal watcher must outlive the run loop; parallel.ForEach is for bounded fan-out, not daemons
	go func() {
		<-sigs
		fmt.Fprintf(os.Stderr, "%s: shutdown requested, stopping at the next snapshot point (signal again to abort)\n", name)
		close(interrupt)
		<-sigs
		fmt.Fprintf(os.Stderr, "%s: aborted\n", name)
		os.Exit(4)
	}()
	return interrupt
}

func run(args []string, interrupt <-chan struct{}) error {
	fs := flag.NewFlagSet("flcluster", flag.ContinueOnError)
	var (
		transportName = fs.String("transport", "memory", `"memory" or "tcp" (loopback sockets)`)
		datasetName   = fs.String("dataset", "mnist", "dataset: mnist|cifar10|imagenet|har")
		modelName     = fs.String("model", "cnn", "model: linear|logistic|cnn|vgg-mini|resnet-mini")
		classes       = fs.Int("classes", 0, "x-class non-IID assignment (0 = IID)")
		reduced       = fs.Bool("reduced", false, "run HierAdMo-R (fixed gammaEdge) instead of adaptive")
		verify        = fs.Bool("verify", false, "also run the in-process simulation and compare")
		scaleName     = fs.String("scale", "bench", `"bench" or "default"`)
		seed          = fs.Uint64("seed", 0, "override seed")
		saveResult    = fs.String("save-result", "", "write the run result as JSON to this path")
		saveCurve     = fs.String("save-curve", "", "write the accuracy curve as CSV to this path")

		dropRate  = fs.Float64("drop-rate", 0, "inject message loss with this probability (0 disables)")
		maxDelay  = fs.Duration("max-delay", 0, "inject a uniform per-message delay up to this duration")
		faultSeed = fs.Uint64("fault-seed", 1, "seed for the deterministic fault schedule")
		crash     = fs.String("crash", "", `crash nodes at protocol rounds, e.g. "worker-0-1@40,edge-1@80"`)
		restart   = fs.String("restart-after", "", `revive crashed workers after this many rounds, e.g. "worker-0-1@8" (needs -crash, -min-quorum and -checkpoint-dir)`)
		minQuorum = fs.Float64("min-quorum", 0, "fraction of reporters an aggregation needs (0 or 1 = strict full cohort)")
		straggler = fs.Duration("straggler-deadline", 0, "how long an aggregation waits for the full cohort before proceeding with a quorum")
		recvTO    = fs.Duration("recv-timeout", 0, "receive timeout per blocking wait (default 60s)")

		checkpointDir = fs.String("checkpoint-dir", "", "snapshot every node's state into this directory after each completed round (enables crash recovery)")
		resume        = fs.Bool("resume", false, "reload the newest snapshots from -checkpoint-dir and continue the interrupted run")

		attackSpec = fs.String("attack-plan", "", `Byzantine attack spec like "signflip:worker-0-1@1,noise:worker-1-0@2-6=0.5" (kinds: signflip|scale|noise|replay)`)
		attackSeed = fs.Uint64("attack-seed", 1, "seed for the deterministic noise-attack draws")
		aggregator = fs.String("aggregator", "mean", `aggregation rule (mean|median|trimmed|clip|cosine), or per tier like "edge=median,cloud=mean" (edge = the tree's leaf-parent level, cloud = its root)`)
		trim       = fs.Float64("trim", 0.2, "per-tail trim fraction for -aggregator trimmed, in [0, 0.5)")
		clipNorm   = fs.Float64("clip", 10, "max L2 deviation norm for -aggregator clip")
		cosMin     = fs.Float64("cos-min", 0, "minimum cosine against the cohort's median deviation for -aggregator cosine, in [-1, 1]")

		topologySpec = fs.String("topology", "", `N-tier aggregation tree spec like "cloud:tau=20/region*2:tau=10,agg=median/edge*2:tau=5/worker" (empty = the default cloud/edge/worker tree; the tree's leaf count must equal the workload's workers)`)

		churnSpec   = fs.String("churn-plan", "", `churn trace file, or inline spec like "join:worker-0-1@3,leave:worker-1-0@9"`)
		retierEvery = fs.Int("retier-every", 0, "re-tier workers across edges every this many cloud syncs (0 disables)")
		migration   = fs.String("migration", "zero", "gammaEdge migration policy on cohort change: zero|carry|rescale")

		traceOut    = fs.String("trace-out", "", "write a JSONL event trace (one event per line) to this path")
		metricsAddr = fs.String("metrics-addr", "", `serve Prometheus /metrics and /debug/pprof on this address (e.g. "127.0.0.1:9090"; ":0" picks a port)`)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	crashes, err := parseCrashSpec(*crash)
	if err != nil {
		return err
	}
	restarts, err := parseCrashSpec(*restart)
	if err != nil {
		return err
	}
	for node := range restarts {
		if _, ok := crashes[node]; !ok {
			return fmt.Errorf("-restart-after %s needs a matching -crash entry", node)
		}
	}
	if *verify && (*dropRate > 0 || len(crashes) > 0) {
		return fmt.Errorf("-verify requires a fault-free run: bit-equivalence with the simulation only holds without drops or crashes")
	}
	churnPlan, err := loadChurnPlan(*churnSpec)
	if err != nil {
		return err
	}
	migrate, err := membership.ParseMigrationPolicy(*migration)
	if err != nil {
		return err
	}
	if *verify && (churnPlan != nil || *retierEvery > 0) {
		return fmt.Errorf("-verify requires a static hierarchy: the in-process simulation has no membership dynamics to compare against")
	}
	attackPlan, err := robust.ParsePlan(*attackSpec, *attackSeed)
	if err != nil {
		return err
	}
	edgeAgg, cloudAgg, err := robust.ParseTierSpecs(*aggregator, *trim, *clipNorm, *cosMin)
	if err != nil {
		return err
	}
	if *verify && (attackPlan != nil || edgeAgg.Robust() || cloudAgg.Robust()) {
		return fmt.Errorf("-verify requires an undefended honest run: the in-process simulation has no attackers or robust aggregation to compare against")
	}
	var topo *topology.Topology
	if *topologySpec != "" {
		if topo, err = topology.Parse(*topologySpec); err != nil {
			return err
		}
		if *verify {
			return fmt.Errorf("-verify only covers the default 3-tier tree: the in-process simulation has no N-tier tree to compare against")
		}
	}

	var s experiment.Scale
	switch *scaleName {
	case "bench":
		s = experiment.BenchScale()
	case "default":
		s = experiment.DefaultScale()
	default:
		return fmt.Errorf("unknown scale %q", *scaleName)
	}
	if *seed > 0 {
		s.Seed = *seed
	}
	cfg, err := experiment.BuildConfig(experiment.Workload{
		Dataset:          *datasetName,
		Model:            *modelName,
		ClassesPerWorker: *classes,
	}, s)
	if err != nil {
		return err
	}
	sink, boundAddr, stopTelemetry, err := telemetry.Setup(*traceOut, *metricsAddr)
	if err != nil {
		return err
	}
	defer stopTelemetry()
	cfg.Telemetry = sink
	if boundAddr != "" {
		fmt.Printf("telemetry: serving /metrics and /debug/pprof on http://%s\n", boundAddr)
	}

	var net cluster.Network
	switch *transportName {
	case "memory":
		net = transport.NewMemoryNetwork()
	case "tcp":
		net = transport.NewTCPNetwork()
	default:
		return fmt.Errorf("unknown transport %q", *transportName)
	}
	if *dropRate > 0 || *maxDelay > 0 || len(crashes) > 0 {
		net = transport.NewFaultyNetwork(net, transport.FaultPlan{
			Seed:               *faultSeed,
			DropRate:           *dropRate,
			MaxDelay:           *maxDelay,
			CrashAtRound:       crashes,
			RestartAfterRounds: restarts,
		})
	}

	fmt.Printf("distributed HierAdMo over %s: %d workers, %d edges, tau=%d pi=%d T=%d\n",
		*transportName, cfg.NumWorkers(), cfg.NumEdges(), cfg.Tau, cfg.Pi, cfg.T)
	if topo != nil {
		fmt.Printf("topology: %s (depth %d, %d leaves)\n", topo, topo.Depth(), topo.NumLeaves())
	}
	// -aggregator sets the rules of the spec's leaf-parent and root levels
	// (the edges and the cloud of the default tree).
	if edgeAgg.Robust() || cloudAgg.Robust() {
		base := topo
		if base == nil {
			base = cluster.DefaultTopology(cfg)
		}
		if topo, err = base.WithRules(edgeAgg, cloudAgg); err != nil {
			return fmt.Errorf("-aggregator: %w", err)
		}
	}
	res, err := cluster.Run(cfg, net, cluster.Options{
		Adaptive:          !*reduced,
		MinQuorum:         *minQuorum,
		StragglerDeadline: *straggler,
		RecvTimeout:       *recvTO,
		CheckpointDir:     *checkpointDir,
		Resume:            *resume,
		Interrupt:         interrupt,
		ChurnPlan:         churnPlan,
		RetierEvery:       *retierEvery,
		Migration:         migrate,
		AttackPlan:        attackPlan,
		Topology:          topo,
	})
	if err != nil {
		return err
	}
	fmt.Println(res)
	if res.FaultReport.Any() {
		fmt.Println(res.FaultReport)
	}
	if res.Membership != nil {
		fmt.Println(res.Membership)
	}
	if res.AttackReport != nil {
		fmt.Println(res.AttackReport)
	}

	if *verify {
		alg := core.New()
		if *reduced {
			alg = core.NewReduced()
		}
		sim, err := alg.Run(cfg)
		if err != nil {
			return fmt.Errorf("verification run: %w", err)
		}
		if sim.FinalAcc == res.FinalAcc {
			fmt.Printf("verified: distributed final accuracy %.4f matches the in-process simulation exactly\n", res.FinalAcc)
		} else {
			return fmt.Errorf("verification failed: distributed %.6f vs simulation %.6f",
				res.FinalAcc, sim.FinalAcc)
		}
	}
	if *saveResult != "" {
		if err := persist.SaveResult(*saveResult, res); err != nil {
			return err
		}
		fmt.Println("result written to", *saveResult)
	}
	if *saveCurve != "" {
		f, err := os.Create(*saveCurve)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := persist.WriteCurveCSV(f, res); err != nil {
			return err
		}
		fmt.Println("curve written to", *saveCurve)
	}
	return nil
}

// loadChurnPlan resolves the -churn-plan flag: a path to a churn trace
// file when one exists at that path, otherwise an inline event spec. Empty
// means no churn (nil plan).
func loadChurnPlan(spec string) (*membership.Plan, error) {
	if spec == "" {
		return nil, nil
	}
	if f, err := os.Open(spec); err == nil {
		defer f.Close()
		plan, err := membership.ParseTrace(f)
		if err != nil {
			return nil, fmt.Errorf("churn trace %s: %w", spec, err)
		}
		return &plan, nil
	}
	plan, err := membership.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return &plan, nil
}

// parseCrashSpec parses a comma-separated "node@round" list, e.g.
// "worker-0-1@40,edge-1@80", into a FaultPlan crash map.
func parseCrashSpec(spec string) (map[string]int, error) {
	if spec == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for _, part := range strings.Split(spec, ",") {
		node, roundStr, ok := strings.Cut(strings.TrimSpace(part), "@")
		if !ok || node == "" {
			return nil, fmt.Errorf("malformed crash spec %q (want node@round)", part)
		}
		round, err := strconv.Atoi(roundStr)
		if err != nil || round < 0 {
			return nil, fmt.Errorf("malformed crash round in %q", part)
		}
		out[node] = round
	}
	return out, nil
}
