package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// recyclingTransport is a network whose receivers recycle payloads, with
// the slab pool a receiving endpoint's messages come from.
type recyclingTransport struct {
	name string
	net  func() Network
	pool func(net Network, recv Endpoint) *slabPool
}

var transports = []recyclingTransport{
	{"memory", func() Network { return NewMemoryNetwork() },
		func(net Network, _ Endpoint) *slabPool { return &net.(*MemoryNetwork).slabs }},
	{"tcp", func() Network { return NewTCPNetwork() },
		func(_ Network, recv Endpoint) *slabPool { return &recv.(*tcpEndpoint).slabs }},
}

// pair opens sender "a" and receiver "b" on a fresh network, closed when
// the test ends, and returns b's slab pool.
func (tr recyclingTransport) pair(t *testing.T) (a, b Endpoint, pool *slabPool) {
	net := tr.net()
	t.Cleanup(func() { net.Close() })
	a, b = endpoint(t, net, "a"), endpoint(t, net, "b")
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b, tr.pool(net, b)
}

func endpoint(t *testing.T, net Network, id string) Endpoint {
	t.Helper()
	ep, err := net.Endpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

// exchange sends one message carrying vals (and the scalar "v" = vals[0])
// from a to b and returns what b received.
func exchange(t *testing.T, a, b Endpoint, vals ...float64) Message {
	t.Helper()
	if err := a.Send("b", Message{Kind: "x", Vectors: [][]float64{vals, vals[:1]},
		Scalars: map[string]float64{"v": vals[0]}}); err != nil {
		t.Fatal(err)
	}
	got, err := b.RecvTimeout(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func freeSlabs(p *slabPool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// holds reports whether m is an intact exchange of vals.
func holds(m Message, vals ...float64) bool {
	if len(m.Vectors) != 2 || len(m.Vectors[0]) != len(vals) || m.Scalars["v"] != vals[0] || m.Vectors[1][0] != vals[0] {
		return false
	}
	for i, v := range vals {
		if m.Vectors[0][i] != v {
			return false
		}
	}
	return true
}

func TestUnreleasedMessageSurvivesLaterSends(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			a, b, _ := tr.pair(t)
			kept := exchange(t, a, b, 1, 2, 3)
			for i := 0; i < 2*maxFreeSlabs; i++ {
				exchange(t, a, b, 9, 9, 9).Release()
			}
			if !holds(kept, 1, 2, 3) {
				t.Fatalf("an unreleased message was overwritten by later sends: %v %v", kept.Vectors, kept.Scalars)
			}
		})
	}
}

func TestReleasedSlabIsReused(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			a, b, _ := tr.pair(t)
			first := exchange(t, a, b, 1, 2, 3)
			s, data := first.h.s, &first.Vectors[0][0]
			first.Release()
			second := exchange(t, a, b, 4, 5, 6)
			if second.h.s != s || &second.Vectors[0][0] != data {
				t.Fatal("the next message did not reuse the released slab")
			}
			if !holds(second, 4, 5, 6) {
				t.Fatalf("reused slab holds %v %v", second.Vectors, second.Scalars)
			}
		})
	}
}

func TestStaleReleaseIsNoOp(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			a, b, pool := tr.pair(t)
			m := exchange(t, a, b, 1, 2, 3)
			stale := m
			m.Release()
			m.Release()
			stale.Release()
			if n := freeSlabs(pool); n != 1 {
				t.Fatalf("three releases of one delivery left %d slabs on the free list, want 1", n)
			}
			x := exchange(t, a, b, 4, 5, 6)
			stale.Release() // x now owns the slab stale names
			y := exchange(t, a, b, 7, 8, 9)
			if x.h.s == y.h.s {
				t.Fatal("two live messages share a slab after a stale Release")
			}
			if !holds(x, 4, 5, 6) || !holds(y, 7, 8, 9) {
				t.Fatalf("live messages corrupted: %v and %v", x.Vectors, y.Vectors)
			}
		})
	}
}

func TestCloneDetachesFromPool(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			a, b, pool := tr.pair(t)
			m := exchange(t, a, b, 1, 2, 3)
			c := m.Clone()
			if c.h.s != nil {
				t.Fatal("Clone kept the pooled handle")
			}
			m.Release()
			c.Release()
			if n := freeSlabs(pool); n != 1 {
				t.Fatalf("free list holds %d slabs after releasing a message and its clone, want 1", n)
			}
			exchange(t, a, b, 7, 8, 9)
			if !holds(c, 1, 2, 3) {
				t.Fatalf("clone changed after its original was released and reused: %v", c.Vectors)
			}
		})
	}
}

func TestFreeListBounded(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			a, b, pool := tr.pair(t)
			var held []Message
			for i := 0; i < 3*maxFreeSlabs; i++ {
				held = append(held, exchange(t, a, b, float64(i)))
			}
			for _, m := range held {
				m.Release()
			}
			if n := freeSlabs(pool); n != maxFreeSlabs {
				t.Fatalf("free list holds %d slabs after %d releases, want the bound %d", n, len(held), maxFreeSlabs)
			}
		})
	}
}

// TestConcurrentSendersOneReleasingReceiver runs several senders, each
// rewriting one buffer between sends, into a receiver that checks and
// releases every message at once. Under -race it checks that slab handoff
// between the receiver's Release and the senders' (or read loops') reuse is
// ordered. Credits keep at most half an inbox in flight, since the memory
// transport fails a send to a full inbox.
func TestConcurrentSendersOneReleasingReceiver(t *testing.T) {
	const senders, per, dim = 4, 200, 16
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			net := tr.net()
			defer net.Close()
			sink := endpoint(t, net, "sink")
			defer sink.Close()
			credits := make(chan struct{}, inboxSize/2)
			for len(credits) < cap(credits) {
				credits <- struct{}{}
			}
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				ep := endpoint(t, net, fmt.Sprintf("s%d", s))
				defer ep.Close()
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					buf := make([]float64, dim)
					for i := 0; i < per; i++ {
						<-credits
						for j := range buf {
							buf[j] = float64(s*per + i)
						}
						if err := ep.Send("sink", Message{Kind: "m", Round: i, Vectors: [][]float64{buf}}); err != nil {
							t.Error(err)
							return
						}
					}
				}(s)
			}
			next := make([]int, senders)
			for n := 0; n < senders*per; n++ {
				m, err := sink.RecvTimeout(5 * time.Second)
				if err != nil {
					t.Fatalf("message %d: %v", n, err)
				}
				var s int
				if _, err := fmt.Sscanf(m.From, "s%d", &s); err != nil || s >= senders || m.Round != next[s] {
					t.Fatalf("message from %q round %d out of order", m.From, m.Round)
				}
				next[s]++
				for _, v := range m.Vectors[0] {
					if v != float64(s*per+m.Round) {
						t.Fatalf("message from %s round %d holds %v", m.From, m.Round, m.Vectors[0])
					}
				}
				m.Release()
				credits <- struct{}{}
			}
			wg.Wait()
		})
	}
}

func TestMemoryRoundTripAllocFree(t *testing.T) {
	net := NewMemoryNetwork()
	defer net.Close()
	a, b := endpoint(t, net, "a"), endpoint(t, net, "b")
	msg := Message{Kind: "x", Vectors: [][]float64{make([]float64, 64), make([]float64, 64)},
		Scalars: map[string]float64{"loss": 1}}
	roundTrip := func() {
		if err := a.Send("b", msg); err != nil {
			t.Fatal(err)
		}
		got, err := b.RecvTimeout(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		got.Release()
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Fatalf("steady-state send, receive and release allocate %v times, want 0", allocs)
	}
}

// TestTimerSlotNeverFiresEarly puts the reused receive timer back once
// after it fired unread (a message won the race against an expired
// deadline) and once after its value was taken (a timeout), and checks that
// each next wait lasts its full duration.
func TestTimerSlotNeverFiresEarly(t *testing.T) {
	const wait = 20 * time.Millisecond
	var slot timerSlot
	for _, taken := range []bool{false, true} {
		tm := slot.take(time.Millisecond)
		time.Sleep(5 * time.Millisecond)
		if taken {
			<-tm.C
		}
		slot.put(tm, taken)
		start := time.Now()
		<-slot.take(wait).C
		if elapsed := time.Since(start); elapsed < wait {
			t.Fatalf("a %v wait fired after %v (value taken: %v): a stale timer value leaked", wait, elapsed, taken)
		}
	}
}

func TestTCPRecvTimeoutDrainsQueuedOnClose(t *testing.T) {
	tn := NewTCPNetwork()
	defer tn.Close()
	for i := 0; i < 50; i++ {
		ep := endpoint(t, tn, fmt.Sprintf("n%d", i))
		ep.(*tcpEndpoint).inbox <- Message{Kind: "queued", Round: i}
		ep.Close()
		got, err := ep.RecvTimeout(time.Second)
		if err != nil || got.Kind != "queued" || got.Round != i {
			t.Fatalf("RecvTimeout after Close with a queued message: %+v, %v; want the message", got, err)
		}
		if _, err := ep.RecvTimeout(time.Second); !errors.Is(err, ErrClosed) {
			t.Fatalf("RecvTimeout on a drained closed endpoint: %v, want ErrClosed", err)
		}
	}
}
