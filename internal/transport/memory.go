package transport

import (
	"fmt"
	"sync"
	"time"
)

// inboxSize bounds each node's pending-message queue. The cluster protocol
// has at most one outstanding message per peer pair per round, so the bound
// is never reached in correct runs; it exists so a misbehaving test cannot
// grow memory without bound while still decoupling sender and receiver
// schedules.
const inboxSize = 64

// MemoryNetwork is an in-process hub connecting named endpoints through
// buffered channels. It injects no faults; wrap it in a FaultyNetwork for
// drops, delays and crashes.
//
// Send copies the payload once, into a slab from the network's free list,
// since the sender keeps mutating its own buffers; the receiver's Release
// returns the slab for the next Send.
type MemoryNetwork struct {
	slabs   slabPool
	mu      sync.Mutex
	inboxes map[string]chan Message
	// claimed tracks node IDs with a live endpoint; a second Endpoint call
	// for a claimed ID is rejected with ErrDuplicateNode until the first
	// endpoint closes, so late joiners cannot shadow a running node.
	claimed map[string]bool
	closed  bool
}

// NewMemoryNetwork returns an empty hub.
func NewMemoryNetwork() *MemoryNetwork {
	return &MemoryNetwork{inboxes: make(map[string]chan Message), claimed: make(map[string]bool)}
}

// Endpoint registers the endpoint for a node ID. The ID stays claimed until
// the returned endpoint closes; registering it again before then returns
// ErrDuplicateNode. The node's inbox outlives the endpoint, so a later
// (re-)registration — e.g. a planned late join after a clean close — sees
// messages queued in between.
func (n *MemoryNetwork) Endpoint(id string) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if n.claimed[id] {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateNode, id)
	}
	n.claimed[id] = true
	if _, ok := n.inboxes[id]; !ok {
		n.inboxes[id] = make(chan Message, inboxSize)
	}
	return &memoryEndpoint{net: n, id: id}, nil
}

// Close shuts the hub down; all blocked receivers return ErrClosed.
func (n *MemoryNetwork) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil
	}
	n.closed = true
	for _, ch := range n.inboxes {
		close(ch)
	}
	return nil
}

// deliver queues msg in its recipient's inbox. The non-blocking send happens
// under the lock Close takes to close the inboxes, so a send racing Close
// returns ErrClosed instead of sending on a closed channel.
func (n *MemoryNetwork) deliver(msg Message) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return ErrClosed
	}
	inbox, ok := n.inboxes[msg.To]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, msg.To)
	}
	select {
	case inbox <- msg:
		return nil
	default:
		return fmt.Errorf("transport: inbox of %q full", msg.To)
	}
}

type memoryEndpoint struct {
	net   *MemoryNetwork
	id    string
	timer timerSlot
	// released makes Close idempotent: only the first call gives the ID
	// claim back (a second endpoint may hold it by then).
	released bool
}

var _ Endpoint = (*memoryEndpoint)(nil)

func (e *memoryEndpoint) ID() string { return e.id }

func (e *memoryEndpoint) Send(to string, msg Message) error {
	m := e.net.slabs.copyOf(msg)
	m.From = e.id
	m.To = to
	if err := e.net.deliver(m); err != nil {
		m.Release()
		return err
	}
	return nil
}

func (e *memoryEndpoint) inbox() (chan Message, error) {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	if e.net.closed {
		return nil, ErrClosed
	}
	ch, ok := e.net.inboxes[e.id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, e.id)
	}
	return ch, nil
}

func (e *memoryEndpoint) Recv() (Message, error) {
	ch, err := e.inbox()
	if err != nil {
		return Message{}, err
	}
	msg, ok := <-ch
	if !ok {
		return Message{}, ErrClosed
	}
	return msg, nil
}

func (e *memoryEndpoint) RecvTimeout(d time.Duration) (Message, error) {
	ch, err := e.inbox()
	if err != nil {
		return Message{}, err
	}
	timer := e.timer.take(d)
	select {
	case msg, ok := <-ch:
		e.timer.put(timer, false)
		if !ok {
			return Message{}, ErrClosed
		}
		return msg, nil
	case <-timer.C:
		e.timer.put(timer, true)
		return Message{}, fmt.Errorf("%w: %q after %v", ErrTimeout, e.id, d)
	}
}

func (e *memoryEndpoint) Close() error {
	// Closing an endpoint releases its ID claim so the name can be taken
	// again; the inbox stays open (sibling nodes keep running, and queued
	// messages survive for a successor). The hub's Close tears everything
	// down.
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	if !e.released {
		e.released = true
		delete(e.net.claimed, e.id)
	}
	return nil
}
