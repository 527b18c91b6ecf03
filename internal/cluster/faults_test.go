package cluster

import (
	"errors"
	"strings"
	"testing"
	"time"

	"hieradmo/internal/core"
	"hieradmo/internal/dataset"
	"hieradmo/internal/fl"
	"hieradmo/internal/model"
	"hieradmo/internal/tensor"
	"hieradmo/internal/transport"
)

func TestQuorumCount(t *testing.T) {
	cases := []struct {
		frac float64
		n    int
		want int
	}{
		{0.5, 2, 1},
		{0.5, 4, 2},
		{0.5, 5, 3},
		{0.75, 4, 3},
		{0.1, 4, 1},
		{1, 4, 4},
		{0.01, 100, 1},
	}
	for _, c := range cases {
		if got := quorumCount(c.frac, c.n); got != c.want {
			t.Errorf("quorumCount(%v, %d) = %d, want %d", c.frac, c.n, got, c.want)
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{MinQuorum: 1.5}).validate(); err == nil {
		t.Error("MinQuorum > 1 accepted")
	}
	if err := (Options{MinQuorum: -0.1}).validate(); err == nil {
		t.Error("negative MinQuorum accepted")
	}
	if err := (Options{RecvTimeout: -time.Second}).validate(); err == nil {
		t.Error("negative RecvTimeout accepted")
	}
	if err := (Options{MinQuorum: 0.5}.withDefaults()).validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
	if !(Options{MinQuorum: 0.5}).tolerant() {
		t.Error("MinQuorum 0.5 not tolerant")
	}
	if (Options{}).withDefaults().tolerant() {
		t.Error("default options tolerant; must be strict fail-stop")
	}
}

// edgeTierNode builds edge 0 of cfg's default tree as a standalone node on
// ep, for collection tests that drive one aggregator by hand.
func edgeTierNode(t *testing.T, cfg *fl.Config, hn *fl.Harness, x0 tensor.Vector, ep transport.Endpoint, opts Options) *tierNode {
	t.Helper()
	return tierNodeAt(t, cfg, hn, 1, x0, ep, opts)
}

// tierNodeAt builds node 0 of level lvl of cfg's default tree.
func tierNodeAt(t *testing.T, cfg *fl.Config, hn *fl.Harness, lvl int, x0 tensor.Vector, ep transport.Endpoint, opts Options) *tierNode {
	t.Helper()
	ts, err := newTreeSpec(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	n, err := newTierNode(cfg, hn, ts, lvl, 0, x0, ep, opts)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestEdgeDuplicateReportRejected regression-tests the collection bug where a
// duplicate report overwrote its slot while inflating the reporter count,
// leaving a zero-valued Message (nil vectors) in the aggregation. It covers
// both collection semantics: the leaf-parent (edge-0, 4-vector leaf reports)
// and the level above it (the root, 2-vector aggregator reports).
func TestEdgeDuplicateReportRejected(t *testing.T) {
	cfg := buildConfig(t, 61, 0)
	hn, err := fl.NewHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x0 := hn.InitParams()
	cases := []struct {
		name   string
		lvl    int
		node   string
		from   [2]string
		round  int
		nvecs  int
		substd bool
	}{
		{"edge", 1, EdgeID(0), [2]string{WorkerID(0, 0), WorkerID(0, 1)}, cfg.Tau, 4, false},
		{"root", 0, CloudID, [2]string{EdgeID(0), EdgeID(1)}, cfg.Tau * cfg.Pi, 2, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := transport.NewMemoryNetwork()
			defer net.Close()
			nodeEP, err := net.Endpoint(tc.node)
			if err != nil {
				t.Fatal(err)
			}
			c0, err := net.Endpoint(tc.from[0])
			if err != nil {
				t.Fatal(err)
			}
			c1, err := net.Endpoint(tc.from[1])
			if err != nil {
				t.Fatal(err)
			}
			n := tierNodeAt(t, cfg, hn, tc.lvl, x0, nodeEP, Options{}.withDefaults())
			n.rec = newFaultRecorder(nil)

			report := func(ep transport.Endpoint, mark float64) {
				t.Helper()
				vecs := make([][]float64, tc.nvecs)
				for i := range vecs {
					v := x0.Clone()
					v[0] = mark
					vecs[i] = v
				}
				msg := transport.Message{
					Kind:    KindTierReport,
					Round:   tc.round,
					Vectors: vecs,
					Scalars: map[string]float64{ScalarLoss: 1},
				}
				if err := ep.Send(tc.node, msg); err != nil {
					t.Fatal(err)
				}
			}
			report(c0, 1)
			report(c0, 2) // duplicate: must not count as a second distinct reporter
			report(c1, 3)

			adopted, reports, idx, err := n.collect(1)
			if err != nil {
				t.Fatal(err)
			}
			if adopted != 0 {
				t.Fatalf("adopted = %d, want 0 (no parent update in flight)", adopted)
			}
			if len(idx) != 2 || idx[0] != 0 || idx[1] != 1 {
				t.Fatalf("idx = %v, want [0 1]", idx)
			}
			for _, i := range idx {
				if len(reports[i].Vectors) != tc.nvecs {
					t.Fatalf("slot %d holds %d vectors (zero-valued duplicate slot?)", i, len(reports[i].Vectors))
				}
			}
			if got := reports[0].Vectors[0][0]; got != 1 {
				t.Errorf("slot 0 holds report %v, want the first (1): the duplicate overwrote it", got)
			}
			if n.rec.rep.DuplicateReports != 1 {
				t.Errorf("DuplicateReports = %d, want 1", n.rec.rep.DuplicateReports)
			}
			if tc.substd {
				// Above the leaf-parent the fresh reports are adopted into the
				// standing substitution buffers.
				if n.lastYRep[0][0] != 1 || n.lastXRep[1][0] != 3 {
					t.Errorf("adopted states y0[0]=%v x1[0]=%v, want 1 and 3", n.lastYRep[0][0], n.lastXRep[1][0])
				}
				if n.missStreak[0] != 0 || n.missStreak[1] != 0 {
					t.Errorf("missStreak = %v after a full round", n.missStreak)
				}
			}
			// The aggregation over the collected slots must not touch nil vectors.
			if err := n.update(reports, idx, 1); err != nil {
				t.Errorf("update after duplicate: %v", err)
			}
		})
	}
}

// TestClusterStrictJoinedErrors checks that a strict-mode failure surfaces
// every node's error joined — the crashed worker's root cause must not be
// masked by the cascade of downstream timeouts.
func TestClusterStrictJoinedErrors(t *testing.T) {
	cfg := buildConfig(t, 71, 0)
	cfg.T = 8
	net := transport.NewFaultyNetwork(transport.NewMemoryNetwork(), transport.FaultPlan{
		Seed:         1,
		CrashAtRound: map[string]int{WorkerID(0, 1): 2},
	})
	_, err := Run(cfg, net, Options{Adaptive: true, RecvTimeout: 300 * time.Millisecond})
	if err == nil {
		t.Fatal("strict run with a crashed worker succeeded")
	}
	if !errors.Is(err, transport.ErrCrashed) {
		t.Errorf("joined error lost the crash root cause: %v", err)
	}
	if !errors.Is(err, transport.ErrTimeout) {
		t.Errorf("joined error lost the edge timeout: %v", err)
	}
}

// TestClusterQuorumMatchesPartialParticipation is the bit-equivalence
// acceptance check for graceful degradation: a quorum round whose surviving
// cohort matches the cohort WithParticipation samples must produce exactly
// the simulation's model, because the edge renormalizes weights over
// survivors with the same arithmetic in the same order.
func TestClusterQuorumMatchesPartialParticipation(t *testing.T) {
	cfg := buildConfig(t, 67, 2)
	// One edge round that is also a cloud round, so the sampled cohort is in
	// force for the entire run (crashes are permanent, participation is
	// per-round — they only coincide over a single round).
	cfg.Tau, cfg.Pi, cfg.T = 2, 1, 2
	const frac = 0.5

	ref, err := core.New(core.WithParticipation(frac)).Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	workersPerEdge := make([]int, cfg.NumEdges())
	for l := range cfg.Edges {
		workersPerEdge[l] = len(cfg.Edges[l])
	}
	cohorts := core.ParticipationSchedule(cfg.Seed, frac, workersPerEdge, 1)
	crashes := make(map[string]int)
	for l, n := range workersPerEdge {
		part := make(map[int]bool)
		for _, i := range cohorts[0][l] {
			part[i] = true
		}
		for i := 0; i < n; i++ {
			if !part[i] {
				crashes[WorkerID(l, i)] = cfg.Tau
			}
		}
	}
	if len(crashes) == 0 {
		t.Fatal("participation schedule sampled full cohorts; test needs stragglers")
	}

	net := transport.NewFaultyNetwork(transport.NewMemoryNetwork(),
		transport.FaultPlan{Seed: 1, CrashAtRound: crashes})
	res, err := Run(cfg, net, Options{
		Adaptive:          true,
		MinQuorum:         frac,
		StragglerDeadline: deadlineScale * 100 * time.Millisecond,
		RecvTimeout:       deadlineScale * 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc != ref.FinalAcc {
		t.Errorf("quorum cluster FinalAcc %v != participation simulation %v (must be bit-identical)",
			res.FinalAcc, ref.FinalAcc)
	}
	if res.FaultReport == nil {
		t.Fatal("degraded run carries no fault report")
	}
	if got := len(res.FaultReport.Crashed); got != len(crashes) {
		t.Errorf("Crashed reports %d nodes, want %d", got, len(crashes))
	}
	if got := len(res.FaultReport.NodeErrors); got != len(crashes) {
		t.Errorf("NodeErrors has %d entries, want %d", got, len(crashes))
	}
}

// buildChaosConfig is buildConfig with a wider 8-worker [4,4] topology, so
// an edge that loses one worker for good still has quorum margin against
// report drops.
func buildChaosConfig(t *testing.T, seed uint64) *fl.Config {
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
	shards, err := dataset.PartitionIID(train, 8, seed+2)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := dataset.Hierarchy(shards, []int{4, 4})
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

// chaosPlan builds the acceptance-test fault schedule: lossy worker→edge
// links plus one worker crashed mid-run. Edge↔cloud links stay clean so the
// cloud's one-miss tolerance is not the thing under test here.
func chaosPlan(cfg *fl.Config) transport.FaultPlan {
	drop := make(map[transport.Link]float64)
	for l := range cfg.Edges {
		for i := range cfg.Edges[l] {
			drop[transport.Link{From: WorkerID(l, i), To: EdgeID(l)}] = 0.12
		}
	}
	return transport.FaultPlan{
		Seed:         9,
		LinkDrop:     drop,
		CrashAtRound: map[string]int{WorkerID(0, 1): 12},
	}
}

// TestClusterChaosDeterministic is the headline robustness acceptance test:
// with ≥10% report loss and a worker crashed mid-run, a quorum run must
// complete, report the faults it survived, still learn, and — because every
// fault decision is drawn from seeded per-link streams — reproduce exactly.
func TestClusterChaosDeterministic(t *testing.T) {
	cfg := buildChaosConfig(t, 73)
	opts := Options{
		Adaptive:          true,
		MinQuorum:         0.5,
		StragglerDeadline: deadlineScale * 100 * time.Millisecond,
		RecvTimeout:       deadlineScale * 2 * time.Second,
	}
	run := func() *fl.Result {
		t.Helper()
		net := transport.NewFaultyNetwork(transport.NewMemoryNetwork(), chaosPlan(cfg))
		res, err := Run(cfg, net, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()

	hn, err := fl.NewHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := model.Accuracy(cfg.Model, hn.InitParams(), cfg.Test)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc <= baseline {
		t.Errorf("chaos run FinalAcc %v did not beat untrained baseline %v", res.FinalAcc, baseline)
	}

	rep := res.FaultReport
	if !rep.Any() {
		t.Fatal("chaos run reports no faults")
	}
	if rep.Dropped == 0 {
		t.Error("no dropped messages recorded despite 15% link loss")
	}
	if len(rep.Crashed) != 1 || rep.Crashed[0] != WorkerID(0, 1) {
		t.Errorf("Crashed = %v, want [%s]", rep.Crashed, WorkerID(0, 1))
	}
	if rep.TotalMissingWorkers() == 0 {
		t.Error("no missing-worker rounds recorded")
	}
	if len(rep.NodeErrors) != 1 {
		t.Errorf("NodeErrors = %v, want the crashed worker only", rep.NodeErrors)
	}
	if s := rep.String(); !strings.Contains(s, WorkerID(0, 1)) {
		t.Errorf("report text %q does not name the crashed node", s)
	}

	again := run()
	if res.FinalAcc != again.FinalAcc || res.FinalLoss != again.FinalLoss {
		t.Errorf("chaos run not deterministic: %v/%v vs %v/%v",
			res.FinalAcc, res.FinalLoss, again.FinalAcc, again.FinalLoss)
	}
}

// TestClusterEdgeCrashCloudReusesState crashes an edge right before the last
// cloud sync: the cloud must substitute that edge's previous report for the
// one missed sync and still finish.
func TestClusterEdgeCrashCloudReusesState(t *testing.T) {
	cfg := buildConfig(t, 79, 0)
	// Edge rounds end at t = 2,4,...,24; cloud syncs at t = 4,8,...,24. A
	// crash at round 21 kills edge-1 after the t=20 sync, so only the final
	// sync sees it missing.
	net := transport.NewFaultyNetwork(transport.NewMemoryNetwork(), transport.FaultPlan{
		Seed:         2,
		CrashAtRound: map[string]int{EdgeID(1): 21},
	})
	res, err := Run(cfg, net, Options{
		Adaptive:          true,
		MinQuorum:         0.5,
		StragglerDeadline: deadlineScale * 100 * time.Millisecond,
		RecvTimeout:       deadlineScale * 700 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.FaultReport
	if rep == nil {
		t.Fatal("no fault report after an edge crash")
	}
	if len(rep.Crashed) != 1 || rep.Crashed[0] != EdgeID(1) {
		t.Errorf("Crashed = %v, want [%s]", rep.Crashed, EdgeID(1))
	}
	if rep.MissingEdges[cfg.T] != 1 {
		t.Errorf("MissingEdges = %v, want 1 at the final sync (t=%d)", rep.MissingEdges, cfg.T)
	}
	if res.FinalAcc <= 0 {
		t.Errorf("degraded run produced no model: FinalAcc = %v", res.FinalAcc)
	}
}

// TestClusterQuorumUnreachableFailsFast: even in tolerant mode, an edge that
// misses two consecutive cloud syncs makes the run fail (with the timeout
// cause preserved) instead of silently training on ever-staler state.
func TestClusterQuorumUnreachableFailsFast(t *testing.T) {
	cfg := buildConfig(t, 83, 0)
	// Edge-1 dies at round 10 and therefore misses the t=12 and t=16 syncs.
	net := transport.NewFaultyNetwork(transport.NewMemoryNetwork(), transport.FaultPlan{
		Seed:         3,
		CrashAtRound: map[string]int{EdgeID(1): 10},
	})
	_, err := Run(cfg, net, Options{
		Adaptive:          true,
		MinQuorum:         0.5,
		StragglerDeadline: 50 * time.Millisecond,
		RecvTimeout:       300 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("run with a permanently dead edge succeeded")
	}
	if !errors.Is(err, transport.ErrTimeout) {
		t.Errorf("err = %v, want wrapped ErrTimeout", err)
	}
	if !strings.Contains(err.Error(), "consecutive") {
		t.Errorf("err = %v, want the consecutive-miss diagnosis", err)
	}
}

// TestEdgeAdoptsMidCollectCloudUpdate regression-tests the desync found by
// chaos-driving flcluster: when every report of one round is lost, the cloud
// completes the sync without this edge and its update arrives while the edge
// is still collecting. The edge must adopt that update and fast-forward —
// discarding it as stale left the edge permanently one sync behind, every
// subsequent report stale, until the miss-streak limit killed the run.
func TestEdgeAdoptsMidCollectCloudUpdate(t *testing.T) {
	cfg := buildConfig(t, 91, 0)
	hn, err := fl.NewHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewMemoryNetwork()
	defer net.Close()
	edgeEP, err := net.Endpoint(EdgeID(0))
	if err != nil {
		t.Fatal(err)
	}
	cloudEP, err := net.Endpoint(CloudID)
	if err != nil {
		t.Fatal(err)
	}

	x0 := hn.InitParams()
	opts := Options{
		MinQuorum:         0.5,
		StragglerDeadline: 50 * time.Millisecond,
		RecvTimeout:       2 * time.Second,
	}.withDefaults()
	e := edgeTierNode(t, cfg, hn, x0, edgeEP, opts)
	e.rec = newFaultRecorder(nil)

	// The cloud finished the second sync (round 2τπ) while this edge never
	// saw a single round-τ report.
	want := 2 * cfg.Tau * cfg.Pi
	y := x0.Clone()
	y[0] += 1
	x := x0.Clone()
	x[0] += 2
	update := transport.Message{
		Kind:    KindTierUpdate,
		Round:   want,
		Vectors: [][]float64{y, x},
	}
	if err := cloudEP.Send(EdgeID(0), update); err != nil {
		t.Fatal(err)
	}

	adopted, _, _, err := e.collect(1)
	if err != nil {
		t.Fatal(err)
	}
	if adopted != want {
		t.Fatalf("adopted = %d, want %d", adopted, want)
	}
	if e.yMinus[0] != y[0] || e.xPlus[0] != x[0] {
		t.Errorf("edge state not adopted from the cloud update: y[0]=%v x[0]=%v",
			e.yMinus[0], e.xPlus[0])
	}

	// Strict mode must keep discarding out-of-band cloud updates as stale:
	// strict edges never give up on a sync, so such an update cannot be a
	// legitimate fast-forward signal mid-collect.
	strict := edgeTierNode(t, cfg, hn, x0, edgeEP, Options{
		RecvTimeout: 200 * time.Millisecond,
	}.withDefaults())
	strict.rec = newFaultRecorder(nil)
	if err := cloudEP.Send(EdgeID(0), update); err != nil {
		t.Fatal(err)
	}
	adopted, _, _, err = strict.collect(1)
	if !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("strict collect: adopted=%d err=%v, want timeout", adopted, err)
	}
	if strict.rec.rep.StaleMessages != 1 {
		t.Errorf("strict StaleMessages = %d, want 1", strict.rec.rep.StaleMessages)
	}
}

// TestClusterSurvivesLostCloudUpdates drops a third of the cloud→edge-0
// update messages: the edge must repeatedly recover via ride-out or
// fast-forward and the run must still complete and learn.
func TestClusterSurvivesLostCloudUpdates(t *testing.T) {
	cfg := buildConfig(t, 97, 0)
	net := transport.NewFaultyNetwork(transport.NewMemoryNetwork(), transport.FaultPlan{
		Seed: 6,
		LinkDrop: map[transport.Link]float64{
			{From: CloudID, To: EdgeID(0)}: 0.34,
		},
	})
	res, err := Run(cfg, net, Options{
		Adaptive:          true,
		MinQuorum:         0.5,
		StragglerDeadline: deadlineScale * 100 * time.Millisecond,
		RecvTimeout:       deadlineScale * 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultReport == nil || res.FaultReport.Dropped == 0 {
		t.Fatal("no drops recorded on a lossy cloud→edge link")
	}
	if res.FinalAcc < 0.4 { // chance = 0.25
		t.Errorf("FinalAcc = %v after lost cloud updates, want >= 0.4", res.FinalAcc)
	}
}
