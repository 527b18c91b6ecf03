// Package transport provides the message-passing substrate for the
// distributed execution of HierAdMo (internal/cluster): a Message format
// carrying model-sized vectors between named nodes, an in-memory network,
// a TCP network for running the protocol over real sockets, whose messages
// travel as bounded, checksummed binary frames (frame.go), and a
// FaultyNetwork wrapper that injects seeded drops, delays and crashes into
// either.
//
// The in-process simulation in internal/fl is the reference semantics; the
// cluster runtime built on this package must produce bit-identical results
// (verified by the equivalence tests in internal/cluster).
package transport

import (
	"errors"
	"sync/atomic"
	"time"

	"hieradmo/internal/telemetry"
)

// Protocol errors callers can match.
var (
	// ErrClosed is returned by operations on a closed endpoint.
	ErrClosed = errors.New("transport: endpoint closed")
	// ErrUnknownNode is returned when sending to an unregistered node.
	ErrUnknownNode = errors.New("transport: unknown node")
	// ErrTimeout is returned by RecvTimeout when no message arrives in time.
	ErrTimeout = errors.New("transport: receive timeout")
	// ErrCrashed is returned by endpoints of a node a FaultPlan has crashed;
	// the node's goroutine observes it and exits, simulating process death.
	ErrCrashed = errors.New("transport: node crashed (injected fault)")
	// ErrDuplicateNode is returned when a node ID registers while its
	// previous registration is still live. Silently shadowing the old
	// stream would let two processes split one identity's traffic, so
	// late-joining nodes must either use a fresh ID or wait for the old
	// endpoint to close.
	ErrDuplicateNode = errors.New("transport: node already registered")
	// ErrBadFrame marks a TCP frame that cannot be encoded (over the frame
	// bounds) or decoded (truncated, over a bound, bad CRC, unknown
	// version, trailing bytes). A receiver drops the connection that sent
	// it, so the node sees silence and then a RecvTimeout; a sender gets
	// it back at once, since no retry can frame the message.
	ErrBadFrame = errors.New("transport: bad frame")
)

// Network is the transport factory a protocol runs over; MemoryNetwork,
// TCPNetwork, FaultyNetwork and CountingNetwork all satisfy it, and
// cluster.Network is an alias of it.
type Network interface {
	// Endpoint returns the endpoint for a node ID.
	Endpoint(id string) (Endpoint, error)
	// Close tears the network down after the run.
	Close() error
}

// FaultStats aggregates transport-level fault counters for observability:
// injected losses, injected crashes, and send retries.
type FaultStats struct {
	// Dropped counts messages discarded by fault injection (the sender saw
	// success, the receiver nothing).
	Dropped int
	// Delayed counts messages delivered after an injected delay.
	Delayed int
	// Retries counts send attempts that had to be repeated after a
	// transient failure.
	Retries int
	// Crashed lists node IDs whose injected crash has triggered.
	Crashed []string
	// Restarted lists node IDs whose injected crash ended with a restart
	// (the node came back after its configured outage window).
	Restarted []string
}

// merge adds other's counters into s.
func (s *FaultStats) merge(other FaultStats) {
	s.Dropped += other.Dropped
	s.Delayed += other.Delayed
	s.Retries += other.Retries
	s.Crashed = append(s.Crashed, other.Crashed...)
	s.Restarted = append(s.Restarted, other.Restarted...)
}

// StatsReporter is implemented by networks that track fault statistics;
// callers may type-assert a Network to surface them after a run.
type StatsReporter interface {
	FaultStats() FaultStats
}

// TelemetrySetter is implemented by networks (and endpoints) that can mirror
// their fault counters onto a telemetry sink live as faults happen —
// injected drops and delays on FaultyNetwork, send retries on TCP transports.
// Must be called before the run starts sending; a nil sink is a no-op. The
// end-of-run FaultStats totals are unaffected either way, so callers that
// fold FaultStats into a FaultReport never double-count.
type TelemetrySetter interface {
	SetTelemetry(*telemetry.Sink)
}

// Message is one protocol datagram. Vectors carry model-sized state (models,
// momenta, gradient accumulators); Scalars carry small named metadata such
// as a training loss.
//
// Ownership: Send never aliases the sender's buffers, so the sender may
// reuse its vectors as soon as Send returns. A received message owns its
// Vectors and Scalars until the receiver calls Release, which hands that
// memory back to the transport for a later message. A message that is never
// released is garbage-collected; forgetting Release costs only speed.
type Message struct {
	// From and To are node IDs; the sending endpoint fills From.
	From string `json:"from"`
	To   string `json:"to"`
	// Kind is the protocol message type (e.g. "tier-report").
	Kind string `json:"kind"`
	// Round is the protocol round the message belongs to, for debugging and
	// ordering assertions.
	Round int `json:"round"`
	// Vectors is the model-sized payload.
	Vectors [][]float64 `json:"vectors"`
	// Scalars is small named metadata.
	Scalars map[string]float64 `json:"scalars"`

	// h is the pooled slab behind Vectors and Scalars of a delivered
	// message; it travels with the value through wrapping endpoints.
	h handle
}

// Clone deep-copies the message into fresh memory that no pool owns, so the
// copy outlives a Release of the original.
func (m Message) Clone() Message {
	out := m
	out.h = handle{}
	out.Vectors = make([][]float64, len(m.Vectors))
	for i, v := range m.Vectors {
		out.Vectors[i] = append([]float64(nil), v...)
	}
	if m.Scalars != nil {
		out.Scalars = make(map[string]float64, len(m.Scalars))
		for k, v := range m.Scalars {
			out.Scalars[k] = v
		}
	}
	return out
}

// Release hands the message's Vectors and Scalars back to the transport
// that delivered it, which may reuse them for a later message at once:
// afterwards nothing may touch them or any slice of them. Only the first
// Release of a delivery recycles. A second Release, a Release of a copy of
// a released message, and a Release of a message no transport delivered
// (or of a Clone) do nothing.
func (m Message) Release() {
	s := m.h.s
	if s == nil || s.pool == nil || !s.gen.CompareAndSwap(m.h.gen, m.h.gen+1) {
		return
	}
	s.pool.put(s)
}

// Endpoint is one node's handle on a network. One goroutine receives on an
// endpoint, which is how the cluster uses it: each receive reuses the
// endpoint's timer, and a concurrent receiver stays correct but makes a
// timer of its own.
type Endpoint interface {
	// ID returns the node's name.
	ID() string
	// Send delivers msg to the named node. The transport fills From/To and
	// copies the payload before Send returns; the receiver never sees the
	// caller's buffers.
	Send(to string, msg Message) error
	// Recv blocks until a message arrives or the endpoint closes. The
	// caller owns the message until it calls msg.Release.
	Recv() (Message, error)
	// RecvTimeout is Recv with a deadline; it returns ErrTimeout when no
	// message arrives in time (the failure-detection primitive the cluster
	// protocol uses).
	RecvTimeout(d time.Duration) (Message, error)
	// Close releases the endpoint; pending and future Recv calls return
	// ErrClosed once the queued messages are drained.
	Close() error
}

// timerSlot keeps one stopped, drained timer for an endpoint's receive
// deadlines. A receive takes it for one wait and puts it back; when a
// concurrent receiver holds it, take makes a fresh timer instead.
type timerSlot struct{ p atomic.Pointer[time.Timer] }

func (s *timerSlot) take(d time.Duration) *time.Timer {
	if t := s.p.Swap(nil); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// put stops t and keeps it for the next receive; fired says the receiver
// took t's value. Under the timer semantics of go.mod's go 1.22 line, Stop
// leaves a value the timer already sent in its channel, so an unread value
// is drained here, or the next wait would time out at once. (Under the
// go 1.23 semantics Stop itself discards it and returns true.)
func (s *timerSlot) put(t *time.Timer, fired bool) {
	if !t.Stop() && !fired {
		<-t.C
	}
	s.p.Store(t)
}
