package membership

import (
	"fmt"
	"slices"
	"sort"
)

// Epoch is a maximal interval of edge rounds over which the worker→edge
// assignment is constant. A new epoch opens at a join round, the round after
// a leave, or a re-tiering round that actually changed the assignment.
type Epoch struct {
	// Start is the first edge round of the epoch (1-based).
	Start int
	// Cohorts[l] lists the workers assigned to edge l, sorted by Ref — the
	// canonical aggregation order for the epoch.
	Cohorts [][]Ref
	// Retier marks an epoch opened by a cloud re-tiering step (as opposed to
	// a join/leave boundary); the cloud broadcasts REASSIGN for exactly
	// these epochs.
	Retier bool
}

// span records a worker's lifetime in edge rounds: live on [join, last].
type span struct {
	join, last int
}

// Schedule is the precomputed membership trajectory of a run: for every
// edge round 1..K, which workers are live and which edge each reports to.
// It is a pure function of (plan, stats, topology, cadence), so every node
// builds the identical Schedule locally and no runtime decision-making is
// needed — see the package comment for why this is the determinism anchor.
type Schedule struct {
	NumEdges int
	// K is the number of edge rounds (T/τ).
	K int
	// Pi is the cloud sync period in edge rounds.
	Pi int
	// RetierEvery re-clusters workers every RetierEvery cloud syncs
	// (0 disables re-tiering). Re-tiering takes effect at rounds
	// k = m·Pi·RetierEvery + 1, i.e. the first round after an eligible sync.
	RetierEvery int

	plan   Plan
	epochs []Epoch
	// byRound maps round k (1-based; index 0 unused) to its epoch index.
	byRound []int
	weight  map[Ref]float64
	spans   map[Ref]span
	// edgeWeights[e][l] is edge l's live data fraction during epoch e.
	edgeWeights [][]float64
	// cohortWeights[e][l][j] is the data weight of cohort member j of edge l
	// during epoch e, normalized over the cohort.
	cohortWeights [][][]float64
}

// BuildSchedule validates plan against the topology and simulates the full
// membership trajectory. stats must contain every worker in the configured
// topology (its natal position is stats[i].Ref); K is the number of edge
// rounds, pi the cloud sync period, retierEvery the re-tiering cadence in
// cloud syncs (0 disables). A planned state in which some edge's live
// cohort cannot ever meet its quorum — the cluster computes quorums over
// live membership, so that means an empty cohort — yields a *CohortError
// naming the first offending round and edge, letting the runtime fail fast
// instead of hanging until RecvTimeout.
func BuildSchedule(plan Plan, stats []WorkerStat, numEdges, K, pi, retierEvery int) (*Schedule, error) {
	if numEdges < 1 || K < 1 || pi < 1 {
		return nil, fmt.Errorf("membership: bad topology: edges=%d K=%d pi=%d", numEdges, K, pi)
	}
	if retierEvery < 0 {
		return nil, fmt.Errorf("membership: retier-every must be >= 0, got %d", retierEvery)
	}
	byRef := make(map[Ref]WorkerStat, len(stats))
	for _, s := range stats {
		if s.Ref.Edge < 0 || s.Ref.Edge >= numEdges {
			return nil, fmt.Errorf("membership: worker %s names edge outside topology", s.Ref.NodeID())
		}
		if _, dup := byRef[s.Ref]; dup {
			return nil, fmt.Errorf("membership: duplicate worker %s in stats", s.Ref.NodeID())
		}
		byRef[s.Ref] = s
	}

	s := &Schedule{
		NumEdges: numEdges,
		K:        K,
		Pi:       pi,

		RetierEvery: retierEvery,
		plan:        plan.Clone(),
		byRound:     make([]int, K+1),
		weight:      make(map[Ref]float64, len(stats)),
		spans:       make(map[Ref]span, len(stats)),
	}

	// Resolve per-worker lifetimes from the plan.
	joins := make(map[Ref]int)
	leaves := make(map[Ref]int)
	for _, e := range plan.normalized() {
		if _, ok := byRef[e.Worker]; !ok {
			return nil, fmt.Errorf("membership: plan names unknown worker %s", e.Worker.NodeID())
		}
		if e.Round < 1 || e.Round > K {
			return nil, fmt.Errorf("membership: %s %s @%d is outside rounds 1..%d", e.Action, e.Worker.NodeID(), e.Round, K)
		}
		switch e.Action {
		case ActionJoin:
			if _, dup := joins[e.Worker]; dup {
				return nil, fmt.Errorf("membership: worker %s has two join events", e.Worker.NodeID())
			}
			joins[e.Worker] = e.Round
		case ActionLeave:
			if _, dup := leaves[e.Worker]; dup {
				return nil, fmt.Errorf("membership: worker %s has two leave events", e.Worker.NodeID())
			}
			leaves[e.Worker] = e.Round
		}
	}
	refs := make([]Ref, 0, len(stats))
	for _, st := range stats {
		refs = append(refs, st.Ref)
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].Less(refs[j]) })
	for _, r := range refs {
		sp := span{join: 1, last: K}
		if jr, ok := joins[r]; ok {
			sp.join = jr
		}
		if lr, ok := leaves[r]; ok {
			sp.last = lr
		}
		if sp.last < sp.join {
			return nil, fmt.Errorf("membership: worker %s leaves at round %d before joining at round %d", r.NodeID(), sp.last, sp.join)
		}
		s.spans[r] = sp
		s.weight[r] = byRef[r].Weight
	}

	// Simulate the trajectory round by round. assigned maps each live worker
	// to its current edge; iteration is always over the sorted refs slice,
	// never the map, so every float reduction happens in a fixed order.
	assigned := make(map[Ref]int, len(refs))
	for k := 1; k <= K; k++ {
		changed := k == 1
		for _, r := range refs {
			sp := s.spans[r]
			if sp.join == k {
				assigned[r] = r.Edge // joiners start on their natal edge
				if k > 1 {
					changed = true
				}
			}
			if sp.last == k-1 {
				delete(assigned, r)
				changed = true
			}
		}
		retier := retierEvery > 0 && k > 1 && (k-1)%(pi*retierEvery) == 0
		retierChanged := false
		if retier {
			live := make([]WorkerStat, 0, len(assigned))
			for _, r := range refs {
				if _, ok := assigned[r]; ok {
					live = append(live, byRef[r])
				}
			}
			if len(live) < numEdges {
				return nil, &CohortError{Round: k, Edge: numEdges - 1, Live: 0, Need: 1}
			}
			newEdges, err := Assign(live, numEdges)
			if err != nil {
				return nil, err
			}
			for i, st := range live {
				if assigned[st.Ref] != newEdges[i] {
					assigned[st.Ref] = newEdges[i]
					retierChanged = true
				}
			}
			changed = changed || retierChanged
		}

		if changed {
			cohorts := make([][]Ref, numEdges)
			for _, r := range refs {
				if l, ok := assigned[r]; ok {
					cohorts[l] = append(cohorts[l], r)
				}
			}
			const need = 1
			for l, cohort := range cohorts {
				if len(cohort) < need {
					return nil, &CohortError{Round: k, Edge: l, Live: len(cohort), Need: need}
				}
			}
			s.epochs = append(s.epochs, Epoch{Start: k, Cohorts: cohorts, Retier: retierChanged})
		}
		s.byRound[k] = len(s.epochs) - 1
	}

	s.buildWeights()
	return s, nil
}

// buildWeights precomputes, per epoch, each edge's live data fraction and
// each cohort member's normalized data weight — the same Dℓ/D and D(i,ℓ)/Dℓ
// formulas the static harness uses, restricted to live workers.
func (s *Schedule) buildWeights() {
	s.edgeWeights = make([][]float64, len(s.epochs))
	s.cohortWeights = make([][][]float64, len(s.epochs))
	for e, ep := range s.epochs {
		total := 0.0
		edgeTotals := make([]float64, s.NumEdges)
		for l, cohort := range ep.Cohorts {
			for _, r := range cohort {
				edgeTotals[l] += s.weight[r]
			}
			total += edgeTotals[l]
		}
		ew := make([]float64, s.NumEdges)
		cw := make([][]float64, s.NumEdges)
		for l, cohort := range ep.Cohorts {
			ew[l] = edgeTotals[l] / total
			cw[l] = make([]float64, len(cohort))
			for j, r := range cohort {
				cw[l][j] = s.weight[r] / edgeTotals[l]
			}
		}
		s.edgeWeights[e] = ew
		s.cohortWeights[e] = cw
	}
}

// EpochIndex returns the index of the epoch covering round k (1..K).
func (s *Schedule) EpochIndex(k int) int {
	if k < 1 {
		k = 1
	}
	if k > s.K {
		k = s.K
	}
	return s.byRound[k]
}

// Epochs returns the number of epochs in the trajectory.
func (s *Schedule) Epochs() int { return len(s.epochs) }

// EpochAt returns the epoch covering round k.
func (s *Schedule) EpochAt(k int) Epoch { return s.epochs[s.EpochIndex(k)] }

// Cohort returns edge l's cohort during round k, sorted by Ref. Callers
// must not mutate the returned slice.
func (s *Schedule) Cohort(k, l int) []Ref { return s.EpochAt(k).Cohorts[l] }

// EdgeOf returns the edge worker w reports to during round k, or false when
// w is not live at k.
func (s *Schedule) EdgeOf(k int, w Ref) (int, bool) {
	for l, cohort := range s.EpochAt(k).Cohorts {
		for _, r := range cohort {
			if r == w {
				return l, true
			}
		}
	}
	return 0, false
}

// Span returns worker w's lifetime: its first and last live edge rounds.
// ok is false when w is not part of the topology.
func (s *Schedule) Span(w Ref) (join, last int, ok bool) {
	sp, ok := s.spans[w]
	return sp.join, sp.last, ok
}

// LiveCount returns the number of live workers during round k.
func (s *Schedule) LiveCount(k int) int {
	n := 0
	for _, cohort := range s.EpochAt(k).Cohorts {
		n += len(cohort)
	}
	return n
}

// EdgeWeights returns each edge's live data fraction during round k (the
// cloud aggregation weights for the sync at round k). Callers must not
// mutate the returned slice.
func (s *Schedule) EdgeWeights(k int) []float64 { return s.edgeWeights[s.EpochIndex(k)] }

// CohortWeights returns, aligned with Cohort(k, l), the per-worker data
// weights normalized over edge l's live cohort during round k. Callers must
// not mutate the returned slice.
func (s *Schedule) CohortWeights(k, l int) []float64 {
	return s.cohortWeights[s.EpochIndex(k)][l]
}

// Overlap reports whether edge l's cohort changed between rounds k-1 and k,
// and if so the data-weight fraction of the round-k cohort that was already
// present at round k-1 (the MigrateRescale factor). Round 1 reports no
// change.
func (s *Schedule) Overlap(k, l int) (frac float64, changed bool) {
	if k <= 1 || s.EpochIndex(k) == s.EpochIndex(k-1) {
		return 1, false
	}
	prev := s.Cohort(k-1, l)
	cur := s.Cohort(k, l)
	same := len(prev) == len(cur)
	kept, total := 0.0, 0.0
	for _, r := range cur {
		total += s.weight[r]
		if slices.Contains(prev, r) {
			kept += s.weight[r]
		} else {
			same = false
		}
	}
	if same {
		return 1, false
	}
	if total == 0 {
		return 0, true
	}
	return kept / total, true
}

// JoinsAt lists workers whose first live round is k (excluding initial
// members at round 1), in Ref order.
func (s *Schedule) JoinsAt(k int) []Ref {
	if k <= 1 {
		return nil
	}
	return s.refsWhere(func(sp span) bool { return sp.join == k })
}

// LeavesAfter lists workers whose last live round is k and who leave before
// the run ends, in Ref order. These are the workers the edge RETIREs after
// the round-k aggregation.
func (s *Schedule) LeavesAfter(k int) []Ref {
	if k >= s.K {
		return nil
	}
	return s.refsWhere(func(sp span) bool { return sp.last == k })
}

// ReassignedAt lists live workers whose edge changed between rounds k-1 and
// k (excluding fresh joiners), in Ref order.
func (s *Schedule) ReassignedAt(k int) []Ref {
	if k <= 1 || s.EpochIndex(k) == s.EpochIndex(k-1) {
		return nil
	}
	var out []Ref
	for _, r := range s.sortedRefs() {
		sp := s.spans[r]
		if sp.join >= k || sp.last < k {
			continue
		}
		prev, okPrev := s.EdgeOf(k-1, r)
		cur, okCur := s.EdgeOf(k, r)
		if okPrev && okCur && prev != cur {
			out = append(out, r)
		}
	}
	return out
}

// Retierings counts the re-tiering epochs in the trajectory.
func (s *Schedule) Retierings() int {
	n := 0
	for _, ep := range s.epochs {
		if ep.Retier {
			n++
		}
	}
	return n
}

// Summary aggregates the trajectory's totals for reporting.
type Summary struct {
	// Joins counts workers that join after round 1.
	Joins int
	// Leaves counts workers that leave before the final round.
	Leaves int
	// Reassignments counts worker moves caused by re-tiering.
	Reassignments int
	// Retierings counts re-tiering steps that changed the assignment.
	Retierings int
	// Epochs is the number of distinct assignment intervals.
	Epochs int
	// InitialWorkers and FinalWorkers are the live counts at the first and
	// last rounds.
	InitialWorkers, FinalWorkers int
}

// Summarize computes the trajectory's Summary.
func (s *Schedule) Summarize() Summary {
	sum := Summary{
		Epochs:         len(s.epochs),
		Retierings:     s.Retierings(),
		InitialWorkers: s.LiveCount(1),
		FinalWorkers:   s.LiveCount(s.K),
	}
	for _, sp := range s.spans {
		if sp.join > 1 {
			sum.Joins++
		}
		if sp.last < s.K {
			sum.Leaves++
		}
	}
	for k := 2; k <= s.K; k++ {
		sum.Reassignments += len(s.ReassignedAt(k))
	}
	return sum
}

// Signature renders a stable encoding of everything that shapes the
// trajectory, for checkpoint fingerprints: plan, cadence, and policy-free
// topology parameters. Two runs with equal signatures (and equal configs)
// have identical trajectories.
func (s *Schedule) Signature() string {
	return fmt.Sprintf("plan=%s retier=%d K=%d pi=%d edges=%d",
		s.plan.Signature(), s.RetierEvery, s.K, s.Pi, s.NumEdges)
}

// refsWhere returns the workers whose span satisfies pred, in Ref order.
func (s *Schedule) refsWhere(pred func(span) bool) []Ref {
	var out []Ref
	for _, r := range s.sortedRefs() {
		if pred(s.spans[r]) {
			out = append(out, r)
		}
	}
	return out
}

// sortedRefs returns every topology worker in Ref order.
func (s *Schedule) sortedRefs() []Ref {
	refs := make([]Ref, 0, len(s.spans))
	for r := range s.spans {
		refs = append(refs, r)
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].Less(refs[j]) })
	return refs
}
