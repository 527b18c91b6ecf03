package membership

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// grid builds the natal refs of a [counts[0], counts[1], ...] topology.
func grid(counts ...int) []Ref {
	var refs []Ref
	for l, n := range counts {
		for i := 0; i < n; i++ {
			refs = append(refs, Ref{Edge: l, Index: i})
		}
	}
	return refs
}

// uniformStats gives every worker weight 10 and a one-hot histogram cycling
// over numClasses classes, so clustering has structure to find.
func uniformStats(refs []Ref, numClasses int) []WorkerStat {
	stats := make([]WorkerStat, len(refs))
	for i, r := range refs {
		hist := make([]float64, numClasses)
		hist[i%numClasses] = 1
		stats[i] = WorkerStat{Ref: r, Weight: 10, Hist: hist}
	}
	return stats
}

func TestRefNodeIDRoundTrip(t *testing.T) {
	for _, r := range grid(3, 2) {
		got, err := ParseNodeID(r.NodeID())
		if err != nil || got != r {
			t.Fatalf("round trip %v: got %v, err %v", r, got, err)
		}
	}
	for _, bad := range []string{"worker-1", "edge-0", "worker-1-2-3", "worker--1-0", "worker-a-b", ""} {
		if _, err := ParseNodeID(bad); err == nil {
			t.Errorf("ParseNodeID(%q) should fail", bad)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	in := "# comment\n\njoin worker-0-2 @3\nleave worker-1-1 @7\n"
	p, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 2 {
		t.Fatalf("got %d events", len(p.Events))
	}
	var buf strings.Builder
	if err := WriteTrace(&buf, p); err != nil {
		t.Fatal(err)
	}
	p2, err := ParseTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if p.Signature() != p2.Signature() {
		t.Fatalf("trace round trip changed plan: %q vs %q", p.Signature(), p2.Signature())
	}
}

func TestParseSpec(t *testing.T) {
	p, err := ParseSpec("join:worker-0-2@3, leave:worker-1-1@7")
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{Events: []Event{
		{Round: 3, Action: ActionJoin, Worker: Ref{0, 2}},
		{Round: 7, Action: ActionLeave, Worker: Ref{1, 1}},
	}}
	if p.Signature() != want.Signature() {
		t.Fatalf("got %q want %q", p.Signature(), want.Signature())
	}
	if p, err := ParseSpec("  "); err != nil || !p.Empty() {
		t.Fatalf("blank spec: %v %v", p, err)
	}
	for _, bad := range []string{"join worker-0-0@1", "hop:worker-0-0@1", "join:worker-0-0", "join:worker-0-0@x"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) should fail", bad)
		}
	}
}

func TestLoadPlan(t *testing.T) {
	if p, err := LoadPlan(""); p != nil || err != nil {
		t.Fatalf("empty spec = %v, %v; want nil plan", p, err)
	}
	path := filepath.Join(t.TempDir(), "plan.trace")
	if err := os.WriteFile(path, []byte("join worker-0-2 @3\nleave worker-1-1 @7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, err := LoadPlan(path)
	if err != nil {
		t.Fatal(err)
	}
	inline, err := LoadPlan("join:worker-0-2@3,leave:worker-1-1@7")
	if err != nil {
		t.Fatal(err)
	}
	if fromFile.Signature() != inline.Signature() {
		t.Errorf("trace file parsed to %q, inline spec to %q", fromFile.Signature(), inline.Signature())
	}
	bad := filepath.Join(t.TempDir(), "bad.trace")
	if err := os.WriteFile(bad, []byte("join worker-0-2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPlan(bad); err == nil || !strings.Contains(err.Error(), bad) {
		t.Errorf("malformed trace file = %v, want an error naming the file", err)
	}
	if _, err := LoadPlan("hop:worker-0-0@1"); err == nil {
		t.Error("unknown inline action accepted")
	}
}

func TestAssignDeterministicAndBalanced(t *testing.T) {
	stats := uniformStats(grid(3, 3, 3), 3)
	a, err := Assign(stats, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Assign(stats, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("assignment not deterministic at %d: %d vs %d", i, a[i], b[i])
		}
		counts[a[i]]++
	}
	for l, c := range counts {
		if c != 3 {
			t.Fatalf("edge %d got %d workers, want 3", l, c)
		}
	}
	// With one-hot histograms cycling over 3 classes, same-class workers
	// should co-locate after the seeded first three.
	for i := 3; i < 9; i++ {
		if a[i] != a[i%3] {
			t.Errorf("worker %d (class %d) on edge %d, classmate on %d", i, i%3, a[i], a[i%3])
		}
	}
}

func TestAssignErrors(t *testing.T) {
	stats := uniformStats(grid(1, 1), 2)
	if _, err := Assign(stats, 3); err == nil {
		t.Error("2 workers onto 3 edges should fail")
	}
	if _, err := Assign(stats, 0); err == nil {
		t.Error("0 edges should fail")
	}
}

func buildTestSchedule(t *testing.T, plan Plan, retierEvery int) *Schedule {
	t.Helper()
	stats := uniformStats(grid(3, 3), 4)
	s, err := BuildSchedule(plan, stats, 2, 12, 2, retierEvery)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestScheduleStaticPlan(t *testing.T) {
	s := buildTestSchedule(t, Plan{}, 0)
	if s.Epochs() != 1 {
		t.Fatalf("static plan should have 1 epoch, got %d", s.Epochs())
	}
	for k := 1; k <= 12; k++ {
		for l := 0; l < 2; l++ {
			cohort := s.Cohort(k, l)
			if len(cohort) != 3 {
				t.Fatalf("round %d edge %d cohort size %d", k, l, len(cohort))
			}
			for i, r := range cohort {
				if r != (Ref{Edge: l, Index: i}) {
					t.Fatalf("round %d edge %d: natal cohort expected, got %v", k, l, cohort)
				}
			}
		}
	}
	sum := s.Summarize()
	if sum.Joins != 0 || sum.Leaves != 0 || sum.Reassignments != 0 || sum.Retierings != 0 {
		t.Fatalf("static summary has churn: %+v", sum)
	}
}

func TestScheduleJoinLeaveSpans(t *testing.T) {
	plan := Plan{Events: []Event{
		{Round: 3, Action: ActionJoin, Worker: Ref{0, 2}},
		{Round: 7, Action: ActionLeave, Worker: Ref{1, 1}},
	}}
	s := buildTestSchedule(t, plan, 0)

	join, last, ok := s.Span(Ref{0, 2})
	if !ok || join != 3 || last != 12 {
		t.Fatalf("joiner span: %d..%d ok=%v", join, last, ok)
	}
	join, last, ok = s.Span(Ref{1, 1})
	if !ok || join != 1 || last != 7 {
		t.Fatalf("leaver span: %d..%d ok=%v", join, last, ok)
	}
	if _, ok := s.EdgeOf(2, Ref{0, 2}); ok {
		t.Error("joiner live before its join round")
	}
	if l, ok := s.EdgeOf(3, Ref{0, 2}); !ok || l != 0 {
		t.Errorf("joiner should be on natal edge 0 at round 3, got %d ok=%v", l, ok)
	}
	if _, ok := s.EdgeOf(8, Ref{1, 1}); ok {
		t.Error("leaver live after its leave round")
	}
	if got := s.LiveCount(1); got != 5 {
		t.Errorf("round 1 live = %d, want 5", got)
	}
	if got := s.LiveCount(12); got != 5 {
		t.Errorf("round 12 live = %d, want 5", got)
	}
	if j := s.JoinsAt(3); len(j) != 1 || j[0] != (Ref{0, 2}) {
		t.Errorf("JoinsAt(3) = %v", j)
	}
	if l := s.LeavesAfter(7); len(l) != 1 || l[0] != (Ref{1, 1}) {
		t.Errorf("LeavesAfter(7) = %v", l)
	}
	// Weights: at round 1, edge 0 has 2 of 5 live workers (all weight 10).
	ew := s.EdgeWeights(1)
	if ew[0] != 20.0/50.0 || ew[1] != 30.0/50.0 {
		t.Errorf("round 1 edge weights = %v", ew)
	}
	cw := s.CohortWeights(3, 0)
	if len(cw) != 3 || cw[0] != 10.0/30.0 {
		t.Errorf("round 3 edge 0 cohort weights = %v", cw)
	}
}

func TestScheduleRetierBoundaries(t *testing.T) {
	// pi=2, retierEvery=2 → re-tiering effect at rounds 5 and 9 (k-1 ∈ {4, 8}).
	s := buildTestSchedule(t, Plan{}, 2)
	for k := 2; k <= 12; k++ {
		changedEpoch := s.EpochIndex(k) != s.EpochIndex(k-1)
		wantBoundary := k == 5 || k == 9
		if changedEpoch && !wantBoundary {
			t.Errorf("unexpected epoch boundary at round %d", k)
		}
		if changedEpoch && !s.EpochAt(k).Retier {
			t.Errorf("boundary at %d not marked as re-tiering", k)
		}
	}
	// The cyclic one-hot histograms make the natal split non-coherent, so
	// the first re-tiering must actually move someone.
	if s.Retierings() == 0 {
		t.Fatal("expected at least one effective re-tiering")
	}
	if got := s.Summarize().Reassignments; got == 0 {
		t.Fatal("expected reassignments from re-tiering")
	}
	// Overlap flags the change and stays within (0, 1].
	frac, changed := s.Overlap(5, 0)
	if !changed {
		t.Fatal("Overlap(5, 0) should report a change")
	}
	if frac < 0 || frac > 1 {
		t.Fatalf("overlap fraction %v out of range", frac)
	}
	if _, changed := s.Overlap(4, 0); changed {
		t.Error("Overlap(4, 0) should be unchanged")
	}
}

func TestScheduleCohortCollapse(t *testing.T) {
	stats := uniformStats(grid(2, 1), 3)
	plan := Plan{Events: []Event{{Round: 4, Action: ActionLeave, Worker: Ref{1, 0}}}}
	_, err := BuildSchedule(plan, stats, 2, 8, 2, 0)
	if err == nil {
		t.Fatal("emptying edge 1 should fail")
	}
	var ce *CohortError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CohortError, got %T: %v", err, err)
	}
	if ce.Round != 5 || ce.Edge != 1 || ce.Live != 0 {
		t.Fatalf("CohortError = %+v", ce)
	}
	if !errors.Is(err, ErrCohortCollapsed) {
		t.Error("CohortError should match ErrCohortCollapsed")
	}
}

func TestScheduleValidation(t *testing.T) {
	stats := uniformStats(grid(2, 2), 3)
	cases := []Plan{
		{Events: []Event{{Round: 99, Action: ActionJoin, Worker: Ref{0, 0}}}},                                                    // round out of range
		{Events: []Event{{Round: 2, Action: ActionJoin, Worker: Ref{5, 0}}}},                                                     // unknown worker
		{Events: []Event{{Round: 3, Action: ActionJoin, Worker: Ref{0, 0}}, {Round: 2, Action: ActionLeave, Worker: Ref{0, 0}}}}, // leave before join
		{Events: []Event{{Round: 2, Action: ActionJoin, Worker: Ref{0, 0}}, {Round: 3, Action: ActionJoin, Worker: Ref{0, 0}}}},  // double join
	}
	for i, plan := range cases {
		if _, err := BuildSchedule(plan, stats, 2, 8, 2, 0); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestScheduleSignatureStable(t *testing.T) {
	plan := Plan{Events: []Event{
		{Round: 7, Action: ActionLeave, Worker: Ref{1, 1}},
		{Round: 3, Action: ActionJoin, Worker: Ref{0, 2}},
	}}
	a := buildTestSchedule(t, plan, 2).Signature()
	b := buildTestSchedule(t, plan.Clone(), 2).Signature()
	if a != b {
		t.Fatalf("signatures differ: %q vs %q", a, b)
	}
	c := buildTestSchedule(t, plan, 1).Signature()
	if a == c {
		t.Fatal("different cadence should change the signature")
	}
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	refs := grid(3, 3)
	spec := GenSpec{Seed: 7, Joins: 1, Leaves: 2}
	p1, err := Generate(spec, refs, 12)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Generate(spec, refs, 12)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Signature() != p2.Signature() {
		t.Fatalf("generation not deterministic: %q vs %q", p1.Signature(), p2.Signature())
	}
	if len(p1.Events) != 3 {
		t.Fatalf("want 3 events, got %d (%s)", len(p1.Events), p1.Signature())
	}
	if _, err := BuildSchedule(p1, uniformStats(refs, 4), 2, 12, 2, 2); err != nil {
		t.Fatalf("generated plan must build a schedule: %v", err)
	}
	other, err := Generate(GenSpec{Seed: 8, Joins: 1, Leaves: 2}, refs, 12)
	if err != nil {
		t.Fatal(err)
	}
	if other.Signature() == p1.Signature() {
		t.Log("different seeds produced the same plan (possible but unlikely)")
	}
}
