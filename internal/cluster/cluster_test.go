package cluster

import (
	"errors"
	"math"
	"testing"
	"time"

	"hieradmo/internal/core"
	"hieradmo/internal/dataset"
	"hieradmo/internal/fl"
	"hieradmo/internal/model"
	"hieradmo/internal/transport"
)

func buildConfig(t *testing.T, seed uint64, classesPerWorker int) *fl.Config {
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
	var shards []*dataset.Dataset
	if classesPerWorker > 0 {
		shards, err = dataset.PartitionClasses(train, 4, classesPerWorker, seed+2)
	} else {
		shards, err = dataset.PartitionIID(train, 4, seed+2)
	}
	if err != nil {
		t.Fatal(err)
	}
	hier, err := dataset.Hierarchy(shards, []int{2, 2})
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

func TestProtocolIDs(t *testing.T) {
	if EdgeID(3) != "edge-3" || WorkerID(2, 5) != "worker-2-5" {
		t.Error("ID formats wrong")
	}
	// The default tree names its nodes exactly like the helpers, so churn
	// plans, attack plans, and registries written against them keep working.
	topo := DefaultTopology(buildConfig(t, 1, 0))
	want := [][]string{{CloudID}, {EdgeID(0), EdgeID(1)},
		{WorkerID(0, 0), WorkerID(0, 1), WorkerID(1, 0), WorkerID(1, 1)}}
	for lvl, ids := range want {
		for idx, id := range ids {
			if got := topo.NodeID(lvl, idx); got != id {
				t.Errorf("NodeID(%d, %d) = %q, want %q", lvl, idx, got, id)
			}
		}
	}
	lvl, i, err := topo.ParseNodeID("worker-1-1")
	if err != nil || lvl != 2 || i != 3 {
		t.Errorf("ParseNodeID(worker-1-1) = %d, %d, %v", lvl, i, err)
	}
	if _, _, err := topo.ParseNodeID("bogus"); err == nil {
		t.Error("accepted malformed worker id")
	}
	if _, _, err := topo.ParseNodeID("worker-a-b"); err == nil {
		t.Error("accepted non-numeric worker id")
	}
	lvl, l, err := topo.ParseNodeID("edge-1")
	if err != nil || lvl != 1 || l != 1 {
		t.Errorf("ParseNodeID(edge-1) = %d, %d, %v", lvl, l, err)
	}
	if _, _, err := topo.ParseNodeID("edge-x"); err == nil {
		t.Error("accepted non-numeric edge id")
	}
	if _, _, err := topo.ParseNodeID("edge-4"); err == nil {
		t.Error("accepted out-of-range edge id")
	}
}

func TestExpectKind(t *testing.T) {
	msg := transport.Message{Kind: "a", From: "x"}
	if err := expectKind(msg, "a"); err != nil {
		t.Error(err)
	}
	if err := expectKind(msg, "b"); err == nil {
		t.Error("kind mismatch accepted")
	}
}

// TestClusterMatchesSimulation is the load-bearing distributed-correctness
// test: a cluster run over the in-memory transport must produce exactly the
// same final model quality as the in-process reference simulation, because
// both perform identical floating-point operations in identical order.
func TestClusterMatchesSimulation(t *testing.T) {
	for _, adaptive := range []bool{true, false} {
		name := "adaptive"
		if !adaptive {
			name = "reduced"
		}
		t.Run(name, func(t *testing.T) {
			cfg := buildConfig(t, 31, 2)

			var ref *fl.Result
			var err error
			if adaptive {
				ref, err = core.New().Run(cfg)
			} else {
				ref, err = core.NewReduced().Run(cfg)
			}
			if err != nil {
				t.Fatal(err)
			}

			res, err := Run(cfg, transport.NewMemoryNetwork(), Options{Adaptive: adaptive})
			if err != nil {
				t.Fatal(err)
			}
			if res.FinalAcc != ref.FinalAcc {
				t.Errorf("cluster FinalAcc %v != simulation %v (models must be bit-identical)",
					res.FinalAcc, ref.FinalAcc)
			}
			// The loss reduction tree differs (the cloud sums edge-weighted
			// partial sums, the simulation sums a flat weighted series), so
			// the losses agree only to rounding.
			if math.Abs(res.FinalLoss-ref.FinalLoss) > 1e-12*(1+math.Abs(ref.FinalLoss)) {
				t.Errorf("cluster FinalLoss %v != simulation %v", res.FinalLoss, ref.FinalLoss)
			}
		})
	}
}

func TestClusterOverTCPMatchesMemory(t *testing.T) {
	cfg := buildConfig(t, 37, 0)
	mem, err := Run(cfg, transport.NewMemoryNetwork(), Options{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := Run(cfg, transport.NewTCPNetwork(), Options{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if mem.FinalAcc != tcp.FinalAcc || mem.FinalLoss != tcp.FinalLoss {
		t.Errorf("TCP run (%v/%v) differs from memory run (%v/%v)",
			tcp.FinalAcc, tcp.FinalLoss, mem.FinalAcc, mem.FinalLoss)
	}
}

func TestClusterRobustToDeliveryDelays(t *testing.T) {
	// Random per-message delays reorder arrivals across senders; the
	// index-addressed aggregation must keep results identical.
	cfg := buildConfig(t, 41, 2)
	ref, err := Run(cfg, transport.NewMemoryNetwork(), Options{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	delayed, err := Run(cfg,
		transport.NewFaultyNetwork(transport.NewMemoryNetwork(), transport.FaultPlan{Seed: 7, MaxDelay: 3 * time.Millisecond}),
		Options{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if ref.FinalAcc != delayed.FinalAcc {
		t.Errorf("delayed run %v differs from reference %v", delayed.FinalAcc, ref.FinalAcc)
	}
}

func TestClusterMessageLossSurfacesAsTimeout(t *testing.T) {
	// With messages being dropped, the synchronous protocol must fail fast
	// with a timeout instead of hanging.
	cfg := buildConfig(t, 43, 0)
	cfg.T = 8
	_, err := Run(cfg,
		transport.NewFaultyNetwork(transport.NewMemoryNetwork(), transport.FaultPlan{Seed: 11, DropRate: 1.0}),
		Options{Adaptive: true, RecvTimeout: 100 * time.Millisecond})
	if err == nil {
		t.Fatal("run with total message loss succeeded")
	}
	if !errors.Is(err, transport.ErrTimeout) {
		t.Errorf("err = %v, want wrapped ErrTimeout", err)
	}
}

func TestClusterRejectsInvalidConfig(t *testing.T) {
	cfg := buildConfig(t, 47, 0)
	cfg.T = 7 // not a multiple of tau*pi
	if _, err := Run(cfg, transport.NewMemoryNetwork(), Options{Adaptive: true}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestClusterCurveRecorded(t *testing.T) {
	cfg := buildConfig(t, 53, 0)
	res, err := Run(cfg, transport.NewMemoryNetwork(), Options{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) == 0 {
		t.Fatal("no curve points")
	}
	last := res.Curve[len(res.Curve)-1]
	if last.Iter != cfg.T {
		t.Errorf("last point at %d, want %d", last.Iter, cfg.T)
	}
	if res.Algorithm != "HierAdMo/cluster" {
		t.Errorf("algorithm = %q", res.Algorithm)
	}
	red, err := Run(cfg, transport.NewMemoryNetwork(), Options{Adaptive: false})
	if err != nil {
		t.Fatal(err)
	}
	if red.Algorithm != "HierAdMo-R/cluster" {
		t.Errorf("reduced algorithm = %q", red.Algorithm)
	}
}

func TestClusterVelocitySignal(t *testing.T) {
	cfg := buildConfig(t, 59, 2)
	refCore := core.New(core.WithAdaptSignal(core.SignalVelocity))
	ref, err := refCore.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, transport.NewMemoryNetwork(),
		Options{Adaptive: true, Signal: core.SignalVelocity})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc != ref.FinalAcc {
		t.Errorf("velocity cluster %v != simulation %v", res.FinalAcc, ref.FinalAcc)
	}
}

func TestClusterPartialLossAlsoTimesOut(t *testing.T) {
	// Even 50% message loss must eventually surface as a timeout error
	// rather than a hang or a silent wrong result.
	cfg := buildConfig(t, 113, 0)
	cfg.T = 8
	_, err := Run(cfg,
		transport.NewFaultyNetwork(transport.NewMemoryNetwork(), transport.FaultPlan{Seed: 17, DropRate: 0.5}),
		Options{Adaptive: true, RecvTimeout: 150 * time.Millisecond})
	if err == nil {
		t.Fatal("run with 50% loss succeeded")
	}
	if !errors.Is(err, transport.ErrTimeout) {
		t.Errorf("err = %v, want wrapped ErrTimeout", err)
	}
}

// TestClusterMatchesSimulationCNN repeats the bit-equivalence check with a
// He-initialized CNN, which exercises the x⁰-centred adaptation signal (the
// zero-initialized logistic model cannot distinguish it from raw Σy).
func TestClusterMatchesSimulationCNN(t *testing.T) {
	cfg := buildConfig(t, 131, 2)
	m, err := model.NewCNN(dataset.Shape{C: 1, H: 5, W: 5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Model = m
	ref, err := core.New().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, transport.NewMemoryNetwork(), Options{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc != ref.FinalAcc {
		t.Errorf("CNN cluster %v != simulation %v", res.FinalAcc, ref.FinalAcc)
	}
}
