package cluster

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"hieradmo/internal/checkpoint"
	"hieradmo/internal/fl"
	"hieradmo/internal/membership"
	"hieradmo/internal/telemetry"
	"hieradmo/internal/transport"
)

// churnPlan is the canonical test trace: one late join, one permanent
// leave, combined with RetierEvery=2 re-tiering in churnOptions.
func churnPlan(t *testing.T) *membership.Plan {
	t.Helper()
	plan, err := membership.ParseSpec("join:worker-0-1@3,leave:worker-1-0@9")
	if err != nil {
		t.Fatal(err)
	}
	return &plan
}

func churnOptions(t *testing.T) Options {
	return Options{Adaptive: true, ChurnPlan: churnPlan(t), RetierEvery: 2}
}

// TestClusterChurnDeterministic is the churn acceptance test: a seeded
// churn trace (join + leave + re-tiering) must produce bit-identical
// results across reruns, across worker pool sizes, and across the memory
// and TCP transports.
func TestClusterChurnDeterministic(t *testing.T) {
	cfg := buildConfig(t, 51, 2)
	ref, err := Run(cfg, transport.NewMemoryNetwork(), churnOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	m := ref.Membership
	if m == nil {
		t.Fatal("churn run returned no membership report")
	}
	if m.Joins != 1 || m.Leaves != 1 {
		t.Fatalf("membership report %+v, want 1 join and 1 leave", m)
	}
	if m.Retierings < 1 || m.Reassignments < 1 {
		t.Fatalf("membership report %+v: the acceptance trace must include an effective re-tiering", m)
	}
	if m.MigrationPolicy != "zero" {
		t.Fatalf("default migration policy = %q, want zero", m.MigrationPolicy)
	}

	same := func(name string, res *fl.Result) {
		t.Helper()
		if res.FinalAcc != ref.FinalAcc || res.FinalLoss != ref.FinalLoss {
			t.Errorf("%s: %v/%v != reference %v/%v (must be bit-identical)",
				name, res.FinalAcc, res.FinalLoss, ref.FinalAcc, ref.FinalLoss)
		}
		if len(res.Curve) != len(ref.Curve) {
			t.Fatalf("%s: curve has %d points, reference %d", name, len(res.Curve), len(ref.Curve))
		}
		for i := range res.Curve {
			if res.Curve[i] != ref.Curve[i] {
				t.Errorf("%s: curve point %d %+v != %+v", name, i, res.Curve[i], ref.Curve[i])
			}
		}
	}

	rerun, err := Run(cfg, transport.NewMemoryNetwork(), churnOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	same("rerun", rerun)

	for _, workers := range []int{1, 2, 8} {
		cfg.Workers = workers
		res, err := Run(cfg, transport.NewMemoryNetwork(), churnOptions(t))
		if err != nil {
			t.Fatal(err)
		}
		same("workers=1/2/8", res)
	}
	cfg.Workers = 0

	tcp, err := Run(cfg, transport.NewTCPNetwork(), churnOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	same("tcp", tcp)
}

// TestClusterChurnNatalPlanMatchesStatic pins the equivalence that anchors
// the whole subsystem: a non-empty plan whose trajectory never deviates
// from the natal topology (a join at round 1 is a no-op) exercises every
// membership-gated code path yet must reproduce the static run bit for
// bit, because the per-epoch weights are the harness weights.
func TestClusterChurnNatalPlanMatchesStatic(t *testing.T) {
	cfg := buildConfig(t, 53, 2)
	static, err := Run(cfg, transport.NewMemoryNetwork(), Options{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := membership.ParseSpec("join:worker-0-0@1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, transport.NewMemoryNetwork(), Options{Adaptive: true, ChurnPlan: &plan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Membership == nil || res.Membership.Joins != 0 || res.Membership.Epochs != 1 {
		t.Fatalf("natal plan membership report %+v, want 0 joins in a single epoch", res.Membership)
	}
	if res.FinalAcc != static.FinalAcc || res.FinalLoss != static.FinalLoss {
		t.Errorf("natal churn run %v/%v != static %v/%v (must be bit-identical)",
			res.FinalAcc, res.FinalLoss, static.FinalAcc, static.FinalLoss)
	}
	for i := range res.Curve {
		if res.Curve[i] != static.Curve[i] {
			t.Errorf("curve point %d: %+v != static %+v", i, res.Curve[i], static.Curve[i])
		}
	}
}

// TestClusterEmptyChurnPlanIsStatic: an empty plan with no re-tiering is
// not a churn run at all — the membership machinery must stay fully
// disabled (nil report, nil state), leaving the static path byte-identical
// to pre-churn behaviour (golden traces pin the rest).
func TestClusterEmptyChurnPlanIsStatic(t *testing.T) {
	empty := &membership.Plan{}
	opts := Options{Adaptive: true, ChurnPlan: empty}
	if opts.churnEnabled() {
		t.Fatal("empty plan with retier-every=0 counts as churn-enabled")
	}
	cfg := buildConfig(t, 51, 2)
	ts, err := newTreeSpec(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ts.memb != nil {
		t.Fatal("empty plan built membership state")
	}
	res, err := Run(cfg, transport.NewMemoryNetwork(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Membership != nil {
		t.Fatalf("static run reports membership %+v", res.Membership)
	}
	static, err := Run(cfg, transport.NewMemoryNetwork(), Options{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc != static.FinalAcc || res.FinalLoss != static.FinalLoss {
		t.Errorf("empty-plan run %v/%v != static %v/%v",
			res.FinalAcc, res.FinalLoss, static.FinalAcc, static.FinalLoss)
	}
}

// TestClusterChurnCohortCollapse: a plan that empties an edge's cohort must
// fail fast at schedule construction with a typed error naming the round
// and edge, never hang a run until RecvTimeout.
func TestClusterChurnCohortCollapse(t *testing.T) {
	cfg := buildConfig(t, 57, 0)
	plan, err := membership.ParseSpec("leave:worker-1-0@4,leave:worker-1-1@4")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = Run(cfg, transport.NewMemoryNetwork(), Options{Adaptive: true, ChurnPlan: &plan})
	if err == nil {
		t.Fatal("collapsing plan accepted")
	}
	if !errors.Is(err, membership.ErrCohortCollapsed) {
		t.Fatalf("error %v does not wrap ErrCohortCollapsed", err)
	}
	var ce *membership.CohortError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v carries no *CohortError", err)
	}
	if ce.Round != 5 || ce.Edge != 1 {
		t.Fatalf("CohortError = %+v, want round 5 edge 1", ce)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cohort collapse took RecvTimeout-scale time to surface; must fail fast")
	}
}

// TestClusterChurnInterruptResume: a checkpoint taken mid-churn must resume
// with the adapted topology and finish bit-identically; resuming under a
// different churn plan must be refused.
func TestClusterChurnInterruptResume(t *testing.T) {
	cfg := buildConfig(t, 101, 2)
	dir := t.TempDir()
	opts := churnOptions(t)
	opts.CheckpointDir = dir

	ref, err := Run(cfg, transport.NewMemoryNetwork(), churnOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Membership.Retierings < 1 {
		t.Fatalf("membership report %+v: resume test needs an effective re-tiering", ref.Membership)
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
	iopts := opts
	iopts.Interrupt = interrupt
	net := transport.NewFaultyNetwork(transport.NewMemoryNetwork(),
		transport.FaultPlan{Seed: 4, MaxDelay: 2 * time.Millisecond})
	_, err = Run(cfg, net, iopts)
	close(stop)
	watch.Wait()
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run failed with %v, want wrapped ErrInterrupted", err)
	}

	ropts := opts
	ropts.Resume = true
	res, err := Run(cfg, transport.NewMemoryNetwork(), ropts)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc != ref.FinalAcc || res.FinalLoss != ref.FinalLoss {
		t.Errorf("resumed churn run %v/%v != uninterrupted %v/%v (must be bit-identical)",
			res.FinalAcc, res.FinalLoss, ref.FinalAcc, ref.FinalLoss)
	}
	if len(res.Curve) != len(ref.Curve) {
		t.Fatalf("resumed curve has %d points, reference %d", len(res.Curve), len(ref.Curve))
	}
	for i := range res.Curve {
		if res.Curve[i] != ref.Curve[i] {
			t.Errorf("curve point %d: resumed %+v != reference %+v", i, res.Curve[i], ref.Curve[i])
		}
	}

	// A different churn plan describes a different trajectory: resuming the
	// finished run's snapshots under it must be refused by every node. This
	// check runs last, once all nodes hold snapshots — a node without one
	// would start fresh and write wrong-plan generations into the shared
	// directory.
	wrongPlan, err := membership.ParseSpec("join:worker-0-1@5,leave:worker-1-0@9")
	if err != nil {
		t.Fatal(err)
	}
	wrong := opts
	wrong.Resume = true
	wrong.ChurnPlan = &wrongPlan
	wrong.RecvTimeout = deadlineScale * 500 * time.Millisecond
	if _, err := Run(cfg, transport.NewMemoryNetwork(), wrong); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("resume under changed churn plan = %v, want wrapped checkpoint.ErrMismatch", err)
	}
}

// TestClusterChurnMetricsMatchTrace scrapes the fl_membership_* instruments
// after a churn run and checks them against the schedule-derived report —
// the counters must reflect the trace exactly, not approximately.
func TestClusterChurnMetricsMatchTrace(t *testing.T) {
	cfg := buildConfig(t, 51, 2)
	reg := telemetry.NewRegistry()
	opts := churnOptions(t)
	opts.Telemetry = telemetry.New(reg, nil)
	res, err := Run(cfg, transport.NewMemoryNetwork(), opts)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Membership

	counter := func(name string) int64 {
		t.Helper()
		c := reg.Counter(name)
		if c == nil {
			t.Fatalf("counter %s not registered", name)
		}
		return c.Value()
	}
	if got := counter("fl_membership_joins_total"); got != int64(m.Joins) {
		t.Errorf("fl_membership_joins_total = %d, trace says %d", got, m.Joins)
	}
	if got := counter("fl_membership_leaves_total"); got != int64(m.Leaves) {
		t.Errorf("fl_membership_leaves_total = %d, trace says %d", got, m.Leaves)
	}
	if got := counter("fl_membership_reassigns_total"); got != int64(m.Reassignments) {
		t.Errorf("fl_membership_reassigns_total = %d, trace says %d", got, m.Reassignments)
	}
	if got := counter("fl_membership_retierings_total"); got != int64(m.Retierings) {
		t.Errorf("fl_membership_retierings_total = %d, trace says %d", got, m.Retierings)
	}

	// Migrations: one per (edge, epoch boundary) with a changed cohort,
	// computed from the same schedule the nodes used.
	ts, err := newTreeSpec(cfg, churnOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	memb := ts.memb
	wantMigrations := 0
	for k := 2; k <= memb.sched.K; k++ {
		for l := 0; l < memb.sched.NumEdges; l++ {
			if _, changed := memb.sched.Overlap(k, l); changed {
				wantMigrations++
			}
		}
	}
	if got := counter("fl_membership_gamma_migrations_total"); got != int64(wantMigrations) {
		t.Errorf("fl_membership_gamma_migrations_total = %d, schedule says %d", got, wantMigrations)
	}

	gauge := func(name string) float64 {
		t.Helper()
		g := reg.Gauge(name)
		if g == nil {
			t.Fatalf("gauge %s not registered", name)
		}
		return g.Value()
	}
	if got := gauge("fl_membership_live_workers"); got != float64(m.FinalWorkers) {
		t.Errorf("fl_membership_live_workers = %v, trace says %d", got, m.FinalWorkers)
	}
	if got := gauge("fl_membership_epoch"); got != float64(m.Epochs-1) {
		t.Errorf("fl_membership_epoch = %v, want final epoch %d", got, m.Epochs-1)
	}
}

// TestClusterChurnMigrationPoliciesDiverge: carry, zero, and rescale are
// distinct γℓ migration rules, so on a trace with an effective re-tiering
// an adaptive run's trajectory must depend on the choice — and each choice
// must itself be deterministic.
func TestClusterChurnMigrationPoliciesDiverge(t *testing.T) {
	cfg := buildConfig(t, 51, 2)
	results := make(map[membership.MigrationPolicy]*fl.Result)
	for _, pol := range []membership.MigrationPolicy{
		membership.MigrateZero, membership.MigrateCarry, membership.MigrateRescale,
	} {
		opts := churnOptions(t)
		opts.Migration = pol
		res, err := Run(cfg, transport.NewMemoryNetwork(), opts)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if res.Membership.MigrationPolicy != pol.String() {
			t.Errorf("report says policy %q, want %q", res.Membership.MigrationPolicy, pol)
		}
		results[pol] = res
	}
	zero, carry := results[membership.MigrateZero], results[membership.MigrateCarry]
	if zero.FinalAcc == carry.FinalAcc && zero.FinalLoss == carry.FinalLoss {
		t.Error("zero and carry migration produced identical results; the policy is not being applied")
	}
}
