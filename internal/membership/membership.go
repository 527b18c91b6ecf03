// Package membership implements deterministic dynamic membership for the
// cluster runtime: seeded churn plans (permanent join-at-round and
// leave-at-round events, distinct from crash/restart faults), a replayable
// ChurnTrace text format, and a cloud-driven re-tiering step that re-assigns
// workers to edges by deterministic clustering of their label distributions.
//
// The central object is the Schedule: because every membership decision is a
// pure function of (plan, re-tier cadence, topology, shard statistics), each
// node — cloud, edge, or worker, in-process or in its own OS process —
// precomputes the identical full membership trajectory before the run
// starts. Control messages (RETIRE/REASSIGN) only synchronize runtime
// transitions; they never carry decisions, and a joiner is admitted by its
// edge's ordinary tier update. That is what makes churn runs
// bit-identical across reruns, worker-pool sizes, and transports.
package membership

import (
	"errors"
	"fmt"
	"sort"
)

// Ref names a worker by its natal position in the configured topology: edge
// index and worker index within that edge. The natal position is the
// worker's permanent identity (its node ID stays "worker-<edge>-<index>"
// forever); re-tiering changes which edge it reports to, never its Ref.
type Ref struct {
	Edge  int
	Index int
}

// NodeID renders the transport node ID for the worker (the same format
// internal/cluster uses for worker endpoints).
func (r Ref) NodeID() string { return fmt.Sprintf("worker-%d-%d", r.Edge, r.Index) }

// Less orders Refs by (Edge, Index) — the canonical deterministic order for
// every cohort iteration and reduction in this package.
func (r Ref) Less(o Ref) bool {
	if r.Edge != o.Edge {
		return r.Edge < o.Edge
	}
	return r.Index < o.Index
}

// ParseNodeID inverts NodeID ("worker-1-2" → Ref{1, 2}).
func ParseNodeID(id string) (Ref, error) {
	var r Ref
	n, err := fmt.Sscanf(id, "worker-%d-%d", &r.Edge, &r.Index)
	if err != nil || n != 2 || id != r.NodeID() {
		return Ref{}, fmt.Errorf("membership: %q is not a worker node ID", id)
	}
	if r.Edge < 0 || r.Index < 0 {
		return Ref{}, fmt.Errorf("membership: %q has negative indices", id)
	}
	return r, nil
}

// Action is the kind of a churn event.
type Action int

const (
	// ActionJoin schedules a worker's first training round: a worker with a
	// join at round r sits out rounds 1..r-1 and trains from round r on. A
	// join at round 1 marks an initial member and is a no-op.
	ActionJoin Action = iota
	// ActionLeave schedules a worker's last training round: it participates
	// through round r and is permanently gone from round r+1 — unlike a
	// crash/restart fault, it never comes back.
	ActionLeave
)

// String renders the action as it appears in a ChurnTrace.
func (a Action) String() string {
	switch a {
	case ActionJoin:
		return "join"
	case ActionLeave:
		return "leave"
	}
	return fmt.Sprintf("action(%d)", int(a))
}

// Event is one planned membership change, pinned to an edge round.
type Event struct {
	// Round is the edge round (1-based, in units of τ worker iterations) the
	// event takes effect at, per the Action semantics above.
	Round int
	// Action is join or leave.
	Action Action
	// Worker is the natal reference of the affected worker.
	Worker Ref
}

// Plan is a set of churn events. The zero value is the empty plan (no
// churn). Plans are value types; Events must not be mutated after a
// Schedule is built from them.
type Plan struct {
	Events []Event
}

// Empty reports whether the plan schedules no events.
func (p Plan) Empty() bool { return len(p.Events) == 0 }

// Clone deep-copies the plan.
func (p Plan) Clone() Plan {
	return Plan{Events: append([]Event(nil), p.Events...)}
}

// normalized returns the events sorted by (Round, Action, Worker) — the
// canonical order used for validation, signatures, and trace output.
func (p Plan) normalized() []Event {
	ev := append([]Event(nil), p.Events...)
	sort.Slice(ev, func(i, j int) bool {
		if ev[i].Round != ev[j].Round {
			return ev[i].Round < ev[j].Round
		}
		if ev[i].Action != ev[j].Action {
			return ev[i].Action < ev[j].Action
		}
		return ev[i].Worker.Less(ev[j].Worker)
	})
	return ev
}

// Signature renders a stable one-line encoding of the plan, used in
// checkpoint fingerprints so a resume under a different plan is rejected.
func (p Plan) Signature() string {
	if p.Empty() {
		return "none"
	}
	s := ""
	for i, e := range p.normalized() {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%s:%s@%d", e.Action, e.Worker.NodeID(), e.Round)
	}
	return s
}

// ErrCohortCollapsed is the sentinel wrapped by CohortError; match it with
// errors.Is when the specific round/edge does not matter.
var ErrCohortCollapsed = errors.New("membership: cohort collapsed")

// CohortError reports that a planned membership change leaves an edge with
// too few live workers to satisfy its quorum — the typed, fail-fast
// alternative to hanging until RecvTimeout. It names the first offending
// round and cohort.
type CohortError struct {
	// Round is the first edge round at which the cohort is too small.
	Round int
	// Edge is the affected edge index.
	Edge int
	// Live is the number of workers still assigned to the edge at Round.
	Live int
	// Need is the minimum cohort size required (at least 1; higher when the
	// caller validates against a quorum fraction).
	Need int
}

func (e *CohortError) Error() string {
	return fmt.Sprintf("membership: edge %d cohort has %d live workers at round %d, need %d",
		e.Edge, e.Live, e.Round, e.Need)
}

// Unwrap lets errors.Is(err, ErrCohortCollapsed) match a CohortError.
func (e *CohortError) Unwrap() error { return ErrCohortCollapsed }

// MigrationPolicy selects how an edge's adaptive-γℓ momentum state is
// treated on the first aggregation after its cohort changes (a worker
// joined, left, or was re-tiered in or out).
type MigrationPolicy int

const (
	// MigrateZero resets γℓ to zero for the first aggregation of a changed
	// cohort — the conservative default, matching the paper's obtuse-angle
	// reset semantics: when the momentum direction can no longer be trusted
	// (here: it was formed by a different cohort), discard it.
	MigrateZero MigrationPolicy = iota
	// MigrateCarry keeps the momentum state untouched across the change.
	MigrateCarry
	// MigrateRescale multiplies γℓ by the data-weight fraction of the new
	// cohort that was already present in the old one, shrinking trust in the
	// momentum proportionally to cohort turnover.
	MigrateRescale
)

// String renders the policy as accepted by ParseMigrationPolicy.
func (m MigrationPolicy) String() string {
	switch m {
	case MigrateZero:
		return "zero"
	case MigrateCarry:
		return "carry"
	case MigrateRescale:
		return "rescale"
	}
	return fmt.Sprintf("policy(%d)", int(m))
}

// ParseMigrationPolicy parses "zero", "carry", or "rescale".
func ParseMigrationPolicy(s string) (MigrationPolicy, error) {
	switch s {
	case "zero":
		return MigrateZero, nil
	case "carry":
		return MigrateCarry, nil
	case "rescale":
		return MigrateRescale, nil
	}
	return 0, fmt.Errorf("membership: unknown migration policy %q (want zero|carry|rescale)", s)
}
