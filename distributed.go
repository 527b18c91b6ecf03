package hieradmo

import (
	"io"

	"hieradmo/internal/cluster"
	"hieradmo/internal/fl"
	"hieradmo/internal/persist"
	"hieradmo/internal/tensor"
	"hieradmo/internal/transport"
)

// Distributed-execution types, re-exported from the cluster runtime.
type (
	// ClusterOptions tunes a distributed run (adaptation on/off, signal,
	// clamp, receive timeout, quorum fraction, straggler deadline).
	ClusterOptions = cluster.Options
	// ClusterNetwork is the transport factory a distributed run executes
	// over.
	ClusterNetwork = cluster.Network
	// FaultPlan is a deterministic seeded fault schedule for a faulty
	// network: per-link drop rates, message delays, crash-at-round.
	FaultPlan = transport.FaultPlan
	// NetworkLink identifies one directed sender→receiver pair in a
	// FaultPlan.
	NetworkLink = transport.Link
	// FaultReport describes the faults a degraded distributed run survived
	// (carried on Result.FaultReport).
	FaultReport = fl.FaultReport
)

// NewMemoryNetwork returns the in-process message hub (fast, used for
// single-machine runs and tests).
func NewMemoryNetwork() ClusterNetwork { return transport.NewMemoryNetwork() }

// NewTCPNetwork returns the loopback-TCP transport: every node gets its own
// socket and messages travel as length-prefixed, CRC-checked binary frames.
func NewTCPNetwork() ClusterNetwork { return transport.NewTCPNetwork() }

// NewFaultyNetwork composes a deterministic seeded fault schedule (message
// drops, delays, node crashes) over another network, for chaos testing the
// distributed runtime over both the in-memory hub and real sockets. Pair it
// with ClusterOptions.MinQuorum < 1 so the protocol degrades gracefully
// instead of failing stop.
func NewFaultyNetwork(inner ClusterNetwork, plan FaultPlan) ClusterNetwork {
	return transport.NewFaultyNetwork(inner, plan)
}

// RunDistributed executes HierAdMo as a real message-passing protocol (one
// node per worker, edge, and cloud) over the given network. With identical
// Config, the result is bit-identical to New().Run(cfg): the distributed
// protocol performs the same floating-point operations in the same order.
func RunDistributed(cfg *Config, net ClusterNetwork, opts ClusterOptions) (*Result, error) {
	return cluster.Run(cfg, net, opts)
}

// SaveResult writes a run result to path as JSON.
func SaveResult(path string, res *Result) error { return persist.SaveResult(path, res) }

// LoadResult reads a JSON run result from path.
func LoadResult(path string) (*Result, error) { return persist.LoadResult(path) }

// WriteCurveCSV writes the accuracy/loss curves of one or more results as
// CSV (long format with an algorithm column) for external plotting.
func WriteCurveCSV(w io.Writer, results ...*Result) error {
	return persist.WriteCurveCSV(w, results...)
}

// SaveCheckpoint writes model parameters as a compact binary checkpoint.
func SaveCheckpoint(path string, params []float64) error {
	return persist.SaveCheckpoint(path, tensor.Vector(params))
}

// LoadCheckpoint reads parameters written by SaveCheckpoint.
func LoadCheckpoint(path string) ([]float64, error) {
	v, err := persist.LoadCheckpoint(path)
	return []float64(v), err
}
