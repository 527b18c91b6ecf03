package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"hieradmo/internal/cluster"
	"hieradmo/internal/core"
	"hieradmo/internal/experiment"
	"hieradmo/internal/fl"
	"hieradmo/internal/topology"
	"hieradmo/internal/transport"
)

// pool is the fl.Config.Workers goroutine pool every workload trains with.
const pool = 2

// recvTimeout bounds every cluster receive. A receive that times out fails
// the run, so it is far above any healthy interval yet short enough that a
// hung run ends well inside the benchmark's time limit.
const recvTimeout = 20 * time.Second

// workload is one synchronous training job. The README records why each
// exists and which layer metric each is predicted to move.
type workload struct {
	name  string
	spec  experiment.Workload
	scale experiment.Scale
	// transport is "tcp" or "memory" for cluster workloads and empty for
	// the reference simulation.
	transport string
	// topology, when set, runs the cluster as an N-tier tree.
	topology string
	// target is the simulation's time-to-accuracy target (0: not
	// measured). accFloor is the final accuracy every run must reach: far
	// above chance (0.1), and below the hardest seeds' tasks, whose final
	// accuracy was 0.82 for the CNN and 0.886 for logistic regression.
	target, accFloor float64
}

// benchScale is the experiment package's bench preset with a larger
// synthetic dataset: at 800 training samples the final accuracy of one
// seed's task differs from another's by up to 0.11, at 4000 by far less,
// and the per-iteration cost does not depend on the dataset size.
func benchScale() experiment.Scale {
	s := experiment.BenchScale()
	s.TrainSamples = 4000
	s.TestSamples = 1000
	s.EvalSamples = 400
	s.Workers = pool
	return s
}

var workloads = []workload{
	{
		name:     "sim-cnn",
		spec:     experiment.Workload{Dataset: "mnist", Model: "cnn", Edges: []int{2, 2}, Tau: 20, Pi: 2, T: 960},
		scale:    benchScale(),
		target:   0.80,
		accFloor: 0.7,
	},
	{
		name:      "paper3-logreg-tcp",
		spec:      experiment.Workload{Dataset: "mnist", Model: "logistic", Edges: []int{2, 2}, Tau: 10, Pi: 2, T: 4000},
		scale:     benchScale(),
		transport: "tcp",
		accFloor:  0.8,
	},
	{
		name:      "tree4-logreg-mem",
		spec:      experiment.Workload{Dataset: "mnist", Model: "logistic", Edges: []int{4, 4}, Tau: 2, Pi: 4, T: 4000},
		scale:     benchScale(),
		transport: "memory",
		topology:  "cloud:tau=8/region*2:tau=4,agg=median/edge*2:tau=2/worker*2",
		accFloor:  0.8,
	},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(names, ", "))
}

// shape is the workload's round structure: how many leaves train, and the
// period and width of every aggregating level (level 0 is the root).
type shape struct {
	leaves  int
	depth   int
	taus    []int
	widths  []int
	fanouts []int // children per node of each aggregating level
	aggs    []string
	topo    *topology.Topology
}

// leafParent is the level whose children are the training leaves.
func (s shape) leafParent() int { return s.depth - 2 }

// rounds is how many aggregations level i performs over the run.
func (s shape) rounds(i, T int) int { return T / s.taus[i] }

func (w workload) shape(cfg *fl.Config) (shape, error) {
	if w.topology == "" {
		// The paper's three tiers: cloud every τπ, edges every τ.
		return shape{
			leaves:  cfg.NumWorkers(),
			depth:   3,
			taus:    []int{cfg.Tau * cfg.Pi, cfg.Tau},
			widths:  []int{1, cfg.NumEdges()},
			fanouts: []int{cfg.NumEdges(), len(cfg.Edges[0])},
			aggs:    []string{"mean", "mean"},
		}, nil
	}
	topo, err := topology.Parse(w.topology)
	if err != nil {
		return shape{}, err
	}
	s := shape{leaves: topo.NumLeaves(), depth: topo.Depth(), topo: topo}
	for i := 0; i < topo.Depth()-1; i++ {
		s.taus = append(s.taus, topo.Levels[i].Tau)
		s.widths = append(s.widths, topo.Width(i))
		s.fanouts = append(s.fanouts, topo.Levels[i+1].Fanout)
		s.aggs = append(s.aggs, topo.Levels[i].Agg.Kind.String())
	}
	return s, nil
}

// tierOf maps a cluster node ID onto its tier, 0 being the root.
func (s shape) tierOf(id string) int {
	if s.topo != nil {
		lvl, _, err := s.topo.ParseNodeID(id)
		if err != nil {
			return 0
		}
		return lvl
	}
	switch {
	case id == cluster.CloudID:
		return 0
	case strings.HasPrefix(id, "edge-"):
		return 1
	default:
		return 2
	}
}

// roundNode reports whether id is the first node of an aggregating level,
// whose update sends mark that level's round boundaries.
func (s shape) roundNode(id string) bool {
	if s.topo != nil {
		lvl, idx, err := s.topo.ParseNodeID(id)
		return err == nil && idx == 0 && lvl < s.depth-1
	}
	return id == cluster.CloudID || id == cluster.EdgeID(0)
}

// runResult is what one training run yields.
type runResult struct {
	res   *fl.Result
	probe *probe
	err   error

	startS     float64 // engine entry → first LossGrad
	trainS     float64 // first LossGrad → Run returns
	samplesPS  float64
	roundMs    float64 // median leaf-parent round interval
	ttaS       float64 // -1 when the target was not reached
	peakRSSMB  float64 // peak resident memory during the run
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcPauseNs  uint64
}

// run executes one training run of cfg at the given pool size.
func (w workload) run(cfg *fl.Config, sh shape, trace bool, workers int) runResult {
	evalEvery := 0
	if w.transport == "" {
		evalEvery = cfg.EvalEvery
	}
	p := newProbe(trace, sh.leaves, sh.depth-1, sh.taus[sh.leafParent()], evalEvery)
	c := *cfg
	c.Model = &timedModel{Model: cfg.Model, p: p}
	c.Workers = workers

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resetPeakRSS()

	var (
		res *fl.Result
		err error
	)
	if w.transport == "" {
		k := 0
		alg := core.New(core.WithGammaObserver(func(edge int, _ float64) {
			if edge == 0 {
				k++
				p.markRound(sh.leafParent(), k*cfg.Tau, p.now())
			}
		}))
		p.begin()
		res, err = alg.Run(&c)
	} else {
		var inner cluster.Network
		if w.transport == "tcp" {
			inner = transport.NewTCPNetwork()
		} else {
			inner = transport.NewMemoryNetwork()
		}
		opts := cluster.Options{Adaptive: true, RecvTimeout: recvTimeout}
		if sh.topo != nil {
			opts.Topology = sh.topo
		}
		net := &timedNetwork{inner: inner, p: p, tierOf: sh.tierOf, roundNode: sh.roundNode}
		p.begin()
		res, err = cluster.Run(&c, net, opts)
	}
	end := p.now()
	peak := peakRSSMB()
	runtime.ReadMemStats(&after)

	r := runResult{res: res, probe: p, err: err, peakRSSMB: peak}
	if err == nil && p.timeouts.Load() > 0 {
		r.err = fmt.Errorf("%d receive timeouts", p.timeouts.Load())
	}
	first := p.firstStepNs()
	if r.err == nil && first < 0 {
		r.err = fmt.Errorf("no training step ran")
	}
	if r.err != nil {
		return r
	}
	r.startS = float64(first) / 1e9
	r.trainS = float64(end-first) / 1e9
	r.samplesPS = float64(p.lgCalls.Load()*int64(cfg.BatchSize)) / r.trainS
	r.roundMs = median(p.roundIntervals(sh.leafParent()))
	edgeRounds := uint64(sh.rounds(sh.leafParent(), cfg.T))
	r.allocBytes = (after.TotalAlloc - before.TotalAlloc) / edgeRounds
	r.mallocs = (after.Mallocs - before.Mallocs) / edgeRounds
	r.gcCycles = after.NumGC - before.NumGC
	r.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs

	r.ttaS = -1
	if w.target > 0 {
		if it, ok := res.IterToReach(w.target); ok {
			r.ttaS = float64(end-first) / 1e9
			if at, found := p.evalMarks[it]; found {
				r.ttaS = float64(at-first) / 1e9
			}
		}
	}
	return r
}

// sameBits reports whether two results agree bit for bit in their final
// figures and every curve point.
func sameBits(a, b *fl.Result) bool {
	if math.Float64bits(a.FinalAcc) != math.Float64bits(b.FinalAcc) ||
		math.Float64bits(a.FinalLoss) != math.Float64bits(b.FinalLoss) ||
		len(a.Curve) != len(b.Curve) {
		return false
	}
	for i := range a.Curve {
		pa, pb := a.Curve[i], b.Curve[i]
		if pa.Iter != pb.Iter || math.Float64bits(pa.TestAcc) != math.Float64bits(pb.TestAcc) ||
			math.Float64bits(pa.TrainLoss) != math.Float64bits(pb.TrainLoss) {
			return false
		}
	}
	return true
}

// lossTolerance bounds how far a cluster TrainLoss may sit from the
// reference simulation's at the same iteration. The two engines sum the
// edges' losses in a different order (the cluster nests per-edge sums,
// the simulation sums flat), so the values may differ in the last ulps;
// anything wider is a real divergence.
const lossTolerance = 1e-12

// compareToReference checks a cluster result against the reference
// simulation. FinalAcc and TestAcc at every iteration both curves record
// must match bit for bit. TrainLoss at those iterations, the final point
// (FinalLoss) included, must match to lossTolerance; the points where it
// differs at all are counted rather than failed, because the summation
// order differs between the engines.
func compareToReference(got, ref *fl.Result) (lossMismatches int, err error) {
	if math.Float64bits(got.FinalAcc) != math.Float64bits(ref.FinalAcc) {
		return 0, fmt.Errorf("FinalAcc %v, reference %v", got.FinalAcc, ref.FinalAcc)
	}
	refAt := map[int]fl.Point{}
	for _, pt := range ref.Curve {
		refAt[pt.Iter] = pt
	}
	shared := 0
	for _, pt := range got.Curve {
		rp, ok := refAt[pt.Iter]
		if !ok {
			continue
		}
		shared++
		if math.Float64bits(pt.TestAcc) != math.Float64bits(rp.TestAcc) {
			return 0, fmt.Errorf("TestAcc at iteration %d: %v, reference %v", pt.Iter, pt.TestAcc, rp.TestAcc)
		}
		if math.Abs(pt.TrainLoss-rp.TrainLoss) > lossTolerance*math.Abs(rp.TrainLoss) {
			return 0, fmt.Errorf("TrainLoss at iteration %d: %v, reference %v", pt.Iter, pt.TrainLoss, rp.TrainLoss)
		}
		if math.Float64bits(pt.TrainLoss) != math.Float64bits(rp.TrainLoss) {
			lossMismatches++
		}
	}
	if shared < 2 {
		return 0, fmt.Errorf("only %d curve points shared with the reference", shared)
	}
	return lossMismatches, nil
}
