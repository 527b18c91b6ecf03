package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"hieradmo/internal/baseline"
	"hieradmo/internal/checkpoint"
	"hieradmo/internal/core"
	"hieradmo/internal/dataset"
	"hieradmo/internal/fl"
	"hieradmo/internal/membership"
	"hieradmo/internal/model"
	"hieradmo/internal/robust"
	"hieradmo/internal/telemetry"
	"hieradmo/internal/topology"
	"hieradmo/internal/transport"
)

// treeTopo parses a topology spec or fails the test.
func treeTopo(t *testing.T, spec string) *topology.Topology {
	t.Helper()
	topo, err := topology.Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	return topo
}

// buildFlatConfig is a leaf-count-parametric config over edge shape `edges`,
// otherwise identical to buildConfig: same generator, partitions, model, and
// hyperparameters.
func buildFlatConfig(t *testing.T, seed uint64, edges []int) *fl.Config {
	t.Helper()
	genCfg := dataset.GenConfig{
		Name:          "toy",
		Shape:         dataset.Shape{C: 1, H: 5, W: 5},
		NumClasses:    4,
		TemplateScale: 1.0,
		NoiseStd:      0.6,
		SmoothPasses:  1,
	}
	g, err := dataset.NewGenerator(genCfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	train, test := g.TrainTest(320, 80, seed+1)
	n := 0
	for _, c := range edges {
		n += c
	}
	shards, err := dataset.PartitionIID(train, n, seed+2)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := dataset.Hierarchy(shards, edges)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewLogisticRegression(genCfg.Shape, genCfg.NumClasses)
	if err != nil {
		t.Fatal(err)
	}
	return &fl.Config{
		Model: m, Edges: hier, Test: test,
		Eta: 0.05, Gamma: 0.5, GammaEdge: 0.5,
		Tau: 2, Pi: 2, T: 24, BatchSize: 8, Seed: seed,
		EvalEvery: 8,
	}
}

// sameAsSimulation checks a cluster result against the in-process
// simulation: the final model must be bit-identical, and the loss agrees to
// rounding (the tree sums edge-weighted partial sums, the simulation a flat
// weighted series).
func sameAsSimulation(t *testing.T, name string, res, ref *fl.Result) {
	t.Helper()
	if res.FinalAcc != ref.FinalAcc {
		t.Errorf("%s: FinalAcc %v != simulation %v (models must be bit-identical)",
			name, res.FinalAcc, ref.FinalAcc)
	}
	if math.Abs(res.FinalLoss-ref.FinalLoss) > 1e-12*(1+math.Abs(ref.FinalLoss)) {
		t.Errorf("%s: FinalLoss %v != simulation %v", name, res.FinalLoss, ref.FinalLoss)
	}
}

// simulate runs the in-process reference for cfg.
func simulate(t *testing.T, cfg *fl.Config, adaptive bool) *fl.Result {
	t.Helper()
	alg := core.New()
	if !adaptive {
		alg = core.NewReduced()
	}
	ref, err := alg.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestTreeMatchesSimulation3Tier is the engine's central regression: a tree
// whose shape matches the config's cloud/edge/worker triple must reproduce
// core.HierAdMo's final model bit for bit, in both the adaptive and reduced
// modes, and an explicit spec of that shape must reproduce the default tree
// exactly — same final model, same loss, same curve.
func TestTreeMatchesSimulation3Tier(t *testing.T) {
	for _, adaptive := range []bool{true, false} {
		name := "adaptive"
		if !adaptive {
			name = "reduced"
		}
		t.Run(name, func(t *testing.T) {
			cfg := buildConfig(t, 31, 2)
			def, err := Run(cfg, transport.NewMemoryNetwork(), Options{Adaptive: adaptive})
			if err != nil {
				t.Fatal(err)
			}
			sameAsSimulation(t, "default", def, simulate(t, cfg, adaptive))
			res, err := Run(cfg, transport.NewMemoryNetwork(), Options{
				Adaptive: adaptive,
				Topology: treeTopo(t, "cloud:tau=4/edge*2:tau=2/worker*2"),
			})
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "tree-3tier", res, def)
			if res.Algorithm != "HierAdMo/tree" && adaptive {
				t.Errorf("algorithm = %q", res.Algorithm)
			}
		})
	}
}

// TestTreeMatchesSimulationWorkerCounts sweeps the cohort sizes of the
// golden suite (1, 2, and 8 workers) plus unequal edges ({3,2} and {1,3},
// expressible only through the tree's explicit child lists), in the
// adaptive and reduced modes, at worker pools 1/2/8 and over the TCP
// transport: every run must land on the simulation's final model bit for
// bit, and an explicit spec must reproduce the default tree exactly.
func TestTreeMatchesSimulationWorkerCounts(t *testing.T) {
	cases := []struct {
		name  string
		edges []int
		spec  string
	}{
		{"workers=1", []int{1}, "cloud:tau=4/edge:tau=2/worker"},
		{"workers=2", []int{2}, "cloud:tau=4/edge:tau=2/worker*2"},
		{"workers=8", []int{4, 4}, "cloud:tau=4/edge*2:tau=2/worker*4"},
		{"edges=3,2", []int{3, 2}, "cloud:tau=4/edge*2:tau=2/worker*3+2"},
		{"edges=1,3", []int{1, 3}, "cloud:tau=4/edge*2:tau=2/worker*1+3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, adaptive := range []bool{true, false} {
				mode := "adaptive"
				if !adaptive {
					mode = "reduced"
				}
				t.Run(mode, func(t *testing.T) {
					cfg := buildFlatConfig(t, 67, tc.edges)
					ref := simulate(t, cfg, adaptive)
					def, err := Run(cfg, transport.NewMemoryNetwork(), Options{Adaptive: adaptive})
					if err != nil {
						t.Fatal(err)
					}
					sameAsSimulation(t, "default", def, ref)
					res, err := Run(cfg, transport.NewMemoryNetwork(), Options{
						Adaptive: adaptive,
						Topology: treeTopo(t, tc.spec),
					})
					if err != nil {
						t.Fatal(err)
					}
					sameResult(t, "explicit spec", res, def)
					for _, workers := range []int{1, 2, 8} {
						cfg.Workers = workers
						pooled, err := Run(cfg, transport.NewMemoryNetwork(), Options{Adaptive: adaptive})
						if err != nil {
							t.Fatal(err)
						}
						sameResult(t, fmt.Sprintf("workers=%d", workers), pooled, def)
					}
					cfg.Workers = 0
					tcp, err := Run(cfg, transport.NewTCPNetwork(), Options{Adaptive: adaptive})
					if err != nil {
						t.Fatal(err)
					}
					sameResult(t, "tcp", tcp, def)
				})
			}
		})
	}
}

// TestTreeDepth2MatchesFedNAG pins the two-level degenerate case to the flat
// momentum baseline: a cloud/worker tree with γ=0 at the root and no
// adaptation is exactly FedNAG — every worker runs NAG, the root plainly
// averages [y, x] every τ·π — so the distributed tree must land on the flat
// in-process baseline bit for bit. (A single-edge config keeps the global
// weights bitwise identical: EdgeWeights[0] is exactly 1.0.)
func TestTreeDepth2MatchesFedNAG(t *testing.T) {
	cfg := buildFlatConfig(t, 71, []int{4})
	cfg.EvalEvery = 0 // FedNAG's curve samples between syncs; compare finals
	ref, err := baseline.NewFedNAG().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, transport.NewMemoryNetwork(), Options{
		Topology: treeTopo(t, "cloud:tau=4,gamma=0/worker*4"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc != ref.FinalAcc {
		t.Errorf("depth-2 tree FinalAcc %v != FedNAG %v (must be bit-identical)",
			res.FinalAcc, ref.FinalAcc)
	}
	if res.FinalLoss != ref.FinalLoss {
		t.Errorf("depth-2 tree FinalLoss %v != FedNAG %v", res.FinalLoss, ref.FinalLoss)
	}
}

// depth4Spec is the 4-level shape of the determinism and resume tests:
// per-tier periods 8/4/2 with a robust rule at the region level and the
// adaptive leaf-parent below it.
const depth4Spec = "cloud:tau=8/region*2:tau=4,agg=median/edge*2:tau=2/worker*2"

// TestTreeDepth4Deterministic is the acceptance determinism check: a 4-level
// tree with per-tier τ and mixed aggregators must produce bit-identical
// results across reruns, worker pool sizes 1/2/8, and the memory and TCP
// transports.
func TestTreeDepth4Deterministic(t *testing.T) {
	cfg := buildFlatConfig(t, 73, []int{4, 4})
	run := func(net Network) (*fl.Result, error) {
		return Run(cfg, net, Options{
			Adaptive: true,
			Topology: treeTopo(t, depth4Spec),
		})
	}
	ref, err := run(transport.NewMemoryNetwork())
	if err != nil {
		t.Fatal(err)
	}
	if ref.AttackReport == nil || len(ref.AttackReport.TierAggregators) != 3 {
		t.Fatalf("robust-level run carries attack report %+v", ref.AttackReport)
	}
	rerun, err := run(transport.NewMemoryNetwork())
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "rerun", rerun, ref)
	for _, workers := range []int{1, 2, 8} {
		cfg.Workers = workers
		res, err := run(transport.NewMemoryNetwork())
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("workers=%d", workers), res, ref)
	}
	cfg.Workers = 0
	tcp, err := run(transport.NewTCPNetwork())
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "tcp", tcp, ref)
}

// TestTreeDepth4InterruptResume checks crash recovery through the tree
// engine: an interrupted 4-level run leaves resumable snapshots, a resume
// under a different topology is refused (the spec is part of the
// fingerprint), and a resumed run finishes bit-identical to a
// never-interrupted one.
func TestTreeDepth4InterruptResume(t *testing.T) {
	cfg := buildFlatConfig(t, 79, []int{4, 4})
	cfg.T = 48
	dir := t.TempDir()
	opts := Options{
		Adaptive:      true,
		Topology:      treeTopo(t, depth4Spec),
		CheckpointDir: dir,
	}

	ref, err := Run(cfg, transport.NewMemoryNetwork(), Options{
		Adaptive: true,
		Topology: treeTopo(t, depth4Spec),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupt as soon as any node has written a snapshot; sender-side
	// delays stretch the run so the shutdown lands mid-protocol.
	interrupt := make(chan struct{})
	stop := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if files, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(files) > 0 {
				close(interrupt)
				return
			}
		}
	}()
	iopts := opts
	iopts.Interrupt = interrupt
	net := transport.NewFaultyNetwork(transport.NewMemoryNetwork(),
		transport.FaultPlan{Seed: 4, MaxDelay: 2 * time.Millisecond})
	_, err = Run(cfg, net, iopts)
	close(stop)
	watch.Wait()
	if err == nil {
		t.Fatal("interrupted run succeeded; the shutdown request was ignored")
	}
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run failed with %v, want wrapped ErrInterrupted", err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(files) == 0 {
		t.Fatal("interrupted run left no snapshots behind")
	}

	ropts := opts
	ropts.Resume = true
	res, err := Run(cfg, transport.NewMemoryNetwork(), ropts)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "resumed", res, ref)

	// A different tree shape is a different trajectory: resuming under it
	// must be refused via the fingerprint, not silently blended. Checked
	// against the finished run's snapshots so every node holds one — after
	// the interrupt alone, a subtree whose nodes had not yet saved could
	// legally train a round before noticing its peers are gone.
	wrong := opts
	wrong.Resume = true
	wrong.Topology = treeTopo(t, "cloud:tau=8/region*2:tau=4/edge*2:tau=2/worker*2")
	wrong.RecvTimeout = 500 * time.Millisecond
	if _, err := Run(cfg, transport.NewMemoryNetwork(), wrong); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("resume under changed topology = %v, want wrapped checkpoint.ErrMismatch", err)
	}
}

// robustTierEvents canonicalizes a trace's robust_reject/robust_clip lines
// into per-tier-index counts, for cross-checking against the AttackReport.
func robustTierEvents(t *testing.T, buf *bytes.Buffer, ev string) map[int]int {
	t.Helper()
	events, err := telemetry.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[int]int)
	for _, e := range events {
		if e.Ev != ev {
			continue
		}
		ti, ok := e.Fields["tier_index"].(float64)
		if !ok {
			t.Fatalf("%s event without tier_index: %+v", ev, e.Fields)
		}
		out[int(ti)]++
	}
	return out
}

// TestTreeSignFlipPerTierAttack is the per-level composition property test:
// a depth-4 tree defends with cosine filtering where the attack enters (the
// leaf-parent) and the median one level up, under a persistent sign-flip
// plan. The run must reject adversarial reports, attribute every rejection
// to the right tier index in both the AttackReport and the trace events,
// and stay deterministic across reruns.
func TestTreeSignFlipPerTierAttack(t *testing.T) {
	cfg := buildFlatConfig(t, 83, []int{4, 4})
	spec := "cloud:tau=8/region*2:tau=4,agg=median/edge*2:tau=2,agg=cosine(0)/worker*2"
	attacked := func() (*fl.Result, map[int]int, map[int]int, error) {
		var buf bytes.Buffer
		tr := telemetry.NewTracer(&buf)
		res, err := Run(cfg, transport.NewMemoryNetwork(), Options{
			Adaptive:   true,
			Telemetry:  telemetry.New(nil, tr),
			Topology:   treeTopo(t, spec),
			AttackPlan: byzPlan(t, "signflip:worker-0-1@1,signflip:worker-2-1@1"),
		})
		if err != nil {
			return nil, nil, nil, err
		}
		if err := tr.Flush(); err != nil {
			return nil, nil, nil, err
		}
		return res, robustTierEvents(t, &buf, "robust_reject"), robustTierEvents(t, &buf, "robust_clip"), nil
	}

	ref, rejects, clips, err := attacked()
	if err != nil {
		t.Fatal(err)
	}
	rep := ref.AttackReport
	if rep == nil {
		t.Fatal("attacked run returned no attack report")
	}
	if got := rep.Injected["signflip"]; got == 0 {
		t.Fatal("no sign-flips injected")
	}
	if rep.TotalRejected() == 0 {
		t.Fatal("sign-flip attack survived both robust tiers unrejected")
	}
	// The attack enters at the leaf-parent (tier 2); any rejection there or
	// at the region (tier 1) must carry its tier index. The root (tier 0)
	// averages plainly and must never reject.
	for tier := range rep.RejectedByTier {
		if tier != 1 && tier != 2 {
			t.Errorf("rejection attributed to tier %d, want 1 or 2", tier)
		}
	}
	if rep.RejectedByTier[2] == 0 {
		t.Error("cosine filter at the leaf-parent rejected nothing")
	}
	wantAggs := []string{"mean", "median", "cosine(0)"}
	if len(rep.TierAggregators) != len(wantAggs) {
		t.Fatalf("TierAggregators = %v, want %v", rep.TierAggregators, wantAggs)
	}
	for i, want := range wantAggs {
		if rep.TierAggregators[i] != want {
			t.Errorf("TierAggregators[%d] = %q, want %q", i, rep.TierAggregators[i], want)
		}
	}
	// Trace events are the live view of the same facts: the per-tier totals
	// must match the report exactly in both directions.
	for tier, n := range rep.RejectedByTier {
		if rejects[tier] != n {
			t.Errorf("tier %d: %d robust_reject events, report says %d", tier, rejects[tier], n)
		}
	}
	for tier, n := range rejects {
		if rep.RejectedByTier[tier] != n {
			t.Errorf("tier %d: report misses %d traced rejections", tier, n)
		}
	}
	for tier, n := range rep.ClippedByTier {
		if clips[tier] != n {
			t.Errorf("tier %d: %d robust_clip events, report says %d", tier, clips[tier], n)
		}
	}

	rerun, rej2, _, err := attacked()
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "rerun", rerun, ref)
	for tier, n := range rejects {
		if rej2[tier] != n {
			t.Errorf("rerun tier %d: %d rejections, reference %d", tier, rej2[tier], n)
		}
	}
}

// TestTreeAcrossProcessEntryPoints replays a tree run through RunTreeNode —
// every node its own entry-point call, config, and harness over a shared
// memory network — and checks bit-equality with the single-process Run.
func TestTreeAcrossProcessEntryPoints(t *testing.T) {
	cfg := buildConfig(t, 89, 2)
	topo := treeTopo(t, "cloud:tau=4/edge*2:tau=2/worker*2")
	opts := Options{Adaptive: true, Topology: topo}
	ref, err := Run(cfg, transport.NewMemoryNetwork(), opts)
	if err != nil {
		t.Fatal(err)
	}

	net := transport.NewMemoryNetwork()
	defer net.Close()
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		errs    []error
		result  *fl.Result
		rootErr error
	)
	for i := 0; i < topo.Depth(); i++ {
		for j := 0; j < topo.Width(i); j++ {
			ep, err := net.Endpoint(topo.NodeID(i, j))
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(i, j int, ep transport.Endpoint) {
				defer wg.Done()
				res, err := RunTreeNode(cfg, i, j, ep, opts)
				mu.Lock()
				defer mu.Unlock()
				if i == 0 {
					result, rootErr = res, err
				} else if err != nil {
					errs = append(errs, err)
				}
			}(i, j, ep)
		}
	}
	wg.Wait()
	if rootErr != nil || len(errs) > 0 {
		t.Fatalf("per-node run failed: root=%v others=%v", rootErr, errs)
	}
	if result == nil {
		t.Fatal("root produced no result")
	}
	sameResult(t, "per-node", result, ref)
}

// TestTreeOptionValidation pins the composition rules: churn, re-tiering,
// and per-level robust rules all run on an explicit tree, deterministically,
// while a topology must match the config's leaf count and horizon and carry
// only valid rules.
func TestTreeOptionValidation(t *testing.T) {
	cfg := buildConfig(t, 97, 0)
	topo := treeTopo(t, "cloud:tau=4/edge*2:tau=2/worker*2")
	cases := []struct {
		name string
		opts func() Options
	}{
		{"churn", func() Options {
			return Options{Topology: topo, ChurnPlan: &membership.Plan{
				Events: []membership.Event{{Round: 2, Action: membership.ActionLeave, Worker: membership.Ref{Edge: 0, Index: 0}}},
			}}
		}},
		{"retier", func() Options { return Options{Topology: topo, RetierEvery: 1} }},
		{"edge-agg", func() Options {
			return Options{Topology: treeTopo(t, "cloud:tau=4/edge*2:tau=2,agg=median/worker*2")}
		}},
		{"cloud-agg", func() Options {
			return Options{Topology: treeTopo(t, "cloud:tau=4,agg=median/edge*2:tau=2/worker*2")}
		}},
	}
	for _, tc := range cases {
		ref, err := Run(cfg, transport.NewMemoryNetwork(), tc.opts())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		rerun, err := Run(cfg, transport.NewMemoryNetwork(), tc.opts())
		if err != nil {
			t.Fatalf("%s rerun: %v", tc.name, err)
		}
		sameResult(t, tc.name, rerun, ref)
	}
	// Leaf-count mismatch: 8 leaves for a 4-worker config.
	if _, err := Run(cfg, transport.NewMemoryNetwork(), Options{
		Topology: treeTopo(t, "cloud:tau=4/edge*2:tau=2/worker*4"),
	}); err == nil {
		t.Error("leaf-count mismatch accepted")
	}
	// Horizon misalignment: T=24 is not a multiple of the root period 16.
	if _, err := Run(cfg, transport.NewMemoryNetwork(), Options{
		Topology: treeTopo(t, "cloud:tau=16/edge*2:tau=2/worker*2"),
	}); !errors.Is(err, topology.ErrMisaligned) {
		t.Errorf("misaligned horizon = %v, want ErrMisaligned", err)
	}
	// An out-of-range rule built programmatically must fail, not run mean.
	bad := treeTopo(t, "cloud:tau=4/edge*2:tau=2/worker*2")
	bad.Levels[1].Agg = robust.Spec{Kind: robust.Trimmed, Trim: 0.9}
	if _, err := Run(cfg, transport.NewMemoryNetwork(), Options{Topology: bad}); !errors.Is(err, topology.ErrAttr) {
		t.Errorf("trimmed(0.9) edge rule = %v, want ErrAttr", err)
	}
}

// TestTreeDepth4ChurnInterruptResume composes dynamic membership with the
// 4-level tree: a late join, a permanent leave, and re-tiering across
// regions after every root sync. An interrupted run must resume to the
// uninterrupted result bit for bit.
func TestTreeDepth4ChurnInterruptResume(t *testing.T) {
	cfg := buildFlatConfig(t, 79, []int{4, 4})
	cfg.T = 48
	dir := t.TempDir()
	opts := func() Options {
		plan, err := membership.ParseSpec("join:worker-0-1@3,leave:worker-3-0@9")
		if err != nil {
			t.Fatal(err)
		}
		return Options{
			Adaptive:    true,
			Topology:    treeTopo(t, depth4Spec),
			ChurnPlan:   &plan,
			RetierEvery: 1,
		}
	}
	ref, err := Run(cfg, transport.NewMemoryNetwork(), opts())
	if err != nil {
		t.Fatal(err)
	}
	if m := ref.Membership; m == nil || m.Joins != 1 || m.Leaves != 1 || m.Retierings < 1 {
		t.Fatalf("membership report %+v, want a join, a leave, and an effective re-tiering", m)
	}

	interrupt := make(chan struct{})
	stop := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if files, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(files) > 0 {
				close(interrupt)
				return
			}
		}
	}()
	iopts := opts()
	iopts.CheckpointDir = dir
	iopts.Interrupt = interrupt
	net := transport.NewFaultyNetwork(transport.NewMemoryNetwork(),
		transport.FaultPlan{Seed: 4, MaxDelay: 2 * time.Millisecond})
	_, err = Run(cfg, net, iopts)
	close(stop)
	watch.Wait()
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run failed with %v, want wrapped ErrInterrupted", err)
	}
	ropts := opts()
	ropts.CheckpointDir = dir
	ropts.Resume = true
	res, err := Run(cfg, transport.NewMemoryNetwork(), ropts)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "resumed", res, ref)
}

// TestLegacySnapshotRefused: snapshots written by the retired three-tier
// engine carry its fingerprint and must be refused with a typed error.
func TestLegacySnapshotRefused(t *testing.T) {
	cfg := buildConfig(t, 103, 0)
	dir := t.TempDir()
	mgr, err := checkpoint.NewManager(dir, CloudID)
	if err != nil {
		t.Fatal(err)
	}
	legacy := checkpoint.NewRegistry(mgr, cfg.Fingerprint("cluster/hieradmo")+" adaptive=true")
	if err := legacy.Save(1); err != nil {
		t.Fatal(err)
	}
	_, err = Run(cfg, transport.NewMemoryNetwork(), Options{
		Adaptive: true, CheckpointDir: dir, Resume: true, RecvTimeout: 500 * time.Millisecond,
	})
	if !errors.Is(err, ErrLegacySnapshot) || !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("resume from a legacy snapshot = %v, want ErrLegacySnapshot", err)
	}
}
