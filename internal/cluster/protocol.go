// Package cluster executes HierAdMo (Algorithm 1) as an actual distributed
// protocol over an aggregation tree: one goroutine-hosted node per training
// leaf and per aggregator, exchanging models, momenta, and interval
// accumulators as messages over a transport (in-memory for tests and
// single-machine runs, TCP for real sockets).
//
// There is one engine. The paper's cloud/edge/worker hierarchy is the
// depth-3 instance of the tree, derived from the config's edges, τ and π
// when Options.Topology is nil; an explicit topology (internal/topology)
// sets any depth, fan-out, per-level period, aggregation rule, and momentum.
// Fault tolerance, dynamic membership, Byzantine attacks and robust
// aggregation, and checkpoint/resume all run on the same tree.
//
// The in-process simulation in internal/core is the reference semantics:
// the three-tier tree performs the same floating-point operations in the
// same order, so a cluster run and a simulation run with the same fl.Config
// produce bit-identical models (verified by TestClusterMatchesSimulation).
package cluster

import (
	"fmt"
	"strconv"

	"hieradmo/internal/transport"
)

// Protocol message kinds.
const (
	// KindTierReport is child → parent at the child's parent-sync boundary:
	// training leaves send [y, x, Σ∇F, Σy] and their latest mini-batch loss;
	// aggregating levels send [y_ℓ−, x_ℓ+] and their weighted loss.
	KindTierReport = "tier-report"
	// KindTierUpdate is parent → child after an aggregation, carrying the
	// level's [y_ℓ−, x_ℓ+].
	KindTierUpdate = "tier-update"

	// Dynamic-membership control messages. RETIRE is leaf-parent → leaf;
	// REASSIGN is root → leaf-parent. Neither carries a membership
	// *decision* — every node derives the same schedule from the churn plan,
	// so the messages only synchronize when a transition takes effect. A
	// joining or reassigned-in leaf needs no message of its own: the
	// leaf-parent's KindTierUpdate to the new cohort is its starting state.

	// KindRetire acknowledges a planned permanent leave after the leaf's
	// final report was aggregated. No payload.
	KindRetire = "retire"
	// KindReassign follows a re-tiering step, carrying the flattened
	// (parent, position, newParent) triples of moved leaves so leaf-parents
	// can cross-check their locally computed schedule.
	KindReassign = "reassign"

	// KindEdgeUpdate and KindCloudUpdate are the update kinds of the retired
	// role-specific three-tier engine. No node sends them any more; they
	// remain so tools that classify recorded traffic keep building.
	KindEdgeUpdate  = "edge-update"
	KindCloudUpdate = "cloud-update"
)

// Scalar keys used in messages.
const (
	// ScalarLoss carries a (weighted) training loss.
	ScalarLoss = "loss"
)

// CloudID is the root's transport ID in the default three-tier tree
// (topology.ThreeTier names its root after its level).
const CloudID = "cloud"

// EdgeID returns the transport ID of edge ℓ in the default three-tier tree.
func EdgeID(l int) string { return "edge-" + strconv.Itoa(l) }

// WorkerID returns the transport ID of worker {i,ℓ} in the default
// three-tier tree.
func WorkerID(l, i int) string {
	return "worker-" + strconv.Itoa(l) + "-" + strconv.Itoa(i)
}

// expectKind validates an incoming message's type.
func expectKind(msg transport.Message, kind string) error {
	if msg.Kind != kind {
		return fmt.Errorf("cluster: got %q from %q, want %q", msg.Kind, msg.From, kind)
	}
	return nil
}

// releaseAll hands every message's payload back to its transport.
func releaseAll(msgs []transport.Message) {
	for _, m := range msgs {
		m.Release()
	}
}
