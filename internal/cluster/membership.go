package cluster

import (
	"fmt"
	"slices"

	"hieradmo/internal/fl"
	"hieradmo/internal/membership"
	"hieradmo/internal/transport"
)

// membState bundles everything the nodes need for dynamic membership: the
// precomputed schedule (the single source of truth for which leaves are live
// and under which leaf-parent at every leaf-parent round) and the γℓ
// migration policy. A nil *membState means static membership.
type membState struct {
	sched  *membership.Schedule
	policy membership.MigrationPolicy
}

// newMembership builds the shared membership state of a tree, or nil when
// the options describe a static run (empty plan, no re-tiering). Every node
// — in-process or remote — derives the same tree from the same (cfg, opts)
// and gets a bit-identical schedule, which is the determinism anchor for the
// whole subsystem. The schedule's "edges" are the tree's leaf-parents, its
// rounds their aggregation rounds, and its sync period the root's period in
// those rounds: epochs (and re-tierings) start right after root syncs.
func newMembership(ts *treeSpec, opts Options) (*membState, error) {
	if !opts.churnEnabled() {
		return nil, nil
	}
	plan := membership.Plan{}
	if opts.ChurnPlan != nil {
		plan = opts.ChurnPlan.Clone()
	}
	lp := ts.leafParent()
	sched, err := membership.BuildSchedule(plan, leafStats(ts), len(ts.children[lp]),
		ts.cfg.T/ts.tau(lp), ts.tau(0)/ts.tau(lp), opts.RetierEvery)
	if err != nil {
		return nil, err
	}
	return &membState{sched: sched, policy: opts.Migration}, nil
}

// leafStats derives the per-leaf clustering statistics from the shards: the
// data weight (shard size) and the label histogram that drives re-tiering's
// distribution-distance clustering. Both are pure functions of the dataset,
// so every node computes identical stats.
func leafStats(ts *treeSpec) []membership.WorkerStat {
	numClasses := 0
	for _, shard := range ts.shards {
		numClasses = max(numClasses, len(shard.ClassCounts()))
	}
	stats := make([]membership.WorkerStat, len(ts.shards))
	for j, shard := range ts.shards {
		hist := make([]float64, numClasses)
		for c, n := range shard.ClassCounts() {
			hist[c] = float64(n)
		}
		stats[j] = membership.WorkerStat{Ref: ts.ref(j), Weight: float64(shard.Len()), Hist: hist}
	}
	return stats
}

// flReport converts the schedule's summary into the user-facing report
// attached to fl.Result.
func (m *membState) flReport() *fl.MembershipReport {
	if m == nil {
		return nil
	}
	s := m.sched.Summarize()
	return &fl.MembershipReport{
		Joins:           s.Joins,
		Leaves:          s.Leaves,
		Reassignments:   s.Reassignments,
		Retierings:      s.Retierings,
		Epochs:          s.Epochs,
		InitialWorkers:  s.InitialWorkers,
		FinalWorkers:    s.FinalWorkers,
		MigrationPolicy: m.policy.String(),
	}
}

// redistributeCohort is the leaf-parent's redistribution under dynamic
// membership: the round-k update goes to the round-k+1 cohort. For
// newcomers — planned joiners and reassigned-in leaves — the update is their
// starting state, and their admission is recorded here, on the sender.
// Planned leavers whose final report was just aggregated get a RETIRE.
// resend marks a resume's repeat of the snapshotted round (transitions are
// re-announced but not re-counted).
func (n *tierNode) redistributeCohort(k int, update transport.Message, resend bool) error {
	sched := n.ts.memb.sched
	t := k * n.ts.tau(n.lvl)
	next := min(k+1, sched.K)
	prev := sched.Cohort(k, n.idx)
	for _, ref := range sched.Cohort(next, n.idx) {
		if next > k && !resend && !slices.Contains(prev, ref) {
			n.rec.joined(n.leafID(ref), t, !slices.Contains(sched.JoinsAt(next), ref))
		}
		if err := n.ep.Send(n.leafID(ref), update); err != nil {
			return fmt.Errorf("cluster: %s redistribute to %s: %w", n.id(), n.leafID(ref), err)
		}
	}
	if next == k {
		return nil
	}
	retire := transport.Message{Kind: KindRetire, Round: t}
	for _, ref := range sched.LeavesAfter(k) {
		if p, ok := sched.EdgeOf(k, ref); !ok || p != n.idx {
			continue
		}
		if !resend {
			n.rec.left(n.leafID(ref), t)
		}
		if err := n.ep.Send(n.leafID(ref), retire); err != nil {
			return fmt.Errorf("cluster: %s retire %s: %w", n.id(), n.leafID(ref), err)
		}
	}
	return nil
}

func (n *tierNode) leafID(r membership.Ref) string {
	return n.ts.ids[n.ts.depth()-1][n.ts.leafOf(r)]
}

// announceRetier is the root's REASSIGN broadcast after the round-k
// redistribution, when a re-tiering takes effect at the next leaf-parent
// round. The message carries the moved leaves' (parent, position,
// newParent) triples; leaf-parents cross-check it against their own
// schedule, so it can never cause a reassignment — only surface a
// configuration divergence. resend marks a resume's repeat.
func (n *tierNode) announceRetier(k int, resend bool) error {
	lp := n.ts.leafParent()
	if n.ts.memb == nil || n.lvl != 0 || lp == 0 {
		return nil
	}
	sched := n.ts.memb.sched
	kl := n.ts.leafRound(0, k)
	if kl >= sched.K {
		return nil
	}
	next := sched.EpochAt(kl + 1)
	if !next.Retier || next.Start != kl+1 {
		return nil
	}
	moved := sched.ReassignedAt(kl + 1)
	flat := make([]float64, 0, 3*len(moved))
	for _, ref := range moved {
		to, ok := sched.EdgeOf(kl+1, ref)
		if !ok {
			return fmt.Errorf("cluster: %s: reassigned leaf %s has no parent at round %d", n.id(), n.leafID(ref), kl+1)
		}
		flat = append(flat, float64(ref.Edge), float64(ref.Index), float64(to))
	}
	msg := transport.Message{Kind: KindReassign, Round: k * n.ts.tau(0), Vectors: [][]float64{flat}}
	for _, id := range n.ts.ids[lp] {
		if err := n.ep.Send(id, msg); err != nil {
			return fmt.Errorf("cluster: %s reassign to %s: %w", n.id(), id, err)
		}
	}
	if !resend {
		n.rec.retier(k*n.ts.tau(0), len(moved))
	}
	return nil
}

// checkReassign cross-checks a root REASSIGN announcement against the
// locally computed schedule. Reassignment is never decided by messages —
// every node derives the same schedule — so any disagreement means the
// nodes were started with different churn configurations.
func (n *tierNode) checkReassign(msg transport.Message) error {
	if n.ts.memb == nil || n.lvl != n.ts.leafParent() {
		return fmt.Errorf("cluster: %s got reassign without dynamic membership", n.id())
	}
	if len(msg.Vectors) != 1 || len(msg.Vectors[0])%3 != 0 {
		return fmt.Errorf("cluster: %s: malformed reassign payload", n.id())
	}
	k := msg.Round / n.ts.tau(n.lvl)
	flat := msg.Vectors[0]
	for off := 0; off < len(flat); off += 3 {
		ref := membership.Ref{Edge: int(flat[off]), Index: int(flat[off+1])}
		to := int(flat[off+2])
		if p, ok := n.ts.memb.sched.EdgeOf(k+1, ref); !ok || p != to {
			return fmt.Errorf("cluster: %s: reassign of %s to parent %d at round %d disagrees with the local schedule: membership schedule divergence",
				n.id(), ref.NodeID(), to, k+1)
		}
	}
	return nil
}
