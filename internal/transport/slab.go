package transport

import (
	"sync"
	"sync/atomic"
)

// maxFreeSlabs bounds a free list; slabs released beyond it are left to the
// garbage collector. It matches inboxSize: a receiver seldom holds more
// messages than its inbox queues.
const maxFreeSlabs = inboxSize

// slab is the recyclable memory behind one delivered message: the floats its
// vectors slice, the vector headers, and the Scalars map. gen counts the
// slab's releases. A message records the generation it was delivered under,
// so only the first Release of that delivery matches and recycles the slab.
type slab struct {
	pool    *slabPool
	gen     atomic.Uint64
	data    []float64
	vecs    [][]float64
	scalars map[string]float64
}

// handle ties a Message to the slab behind its vectors.
type handle struct {
	s   *slab
	gen uint64
}

func (s *slab) handle() handle { return handle{s: s, gen: s.gen.Load()} }

// floats returns the slab's float storage, empty with room for n values.
func (s *slab) floats(n int) []float64 {
	if cap(s.data) < n {
		s.data = make([]float64, 0, n)
	}
	return s.data[:0]
}

// headers returns the slab's vector headers, n long.
func (s *slab) headers(n int) [][]float64 {
	if cap(s.vecs) < n {
		s.vecs = make([][]float64, n)
	}
	return s.vecs[:n]
}

// scalarMap returns the slab's Scalars map, emptied.
func (s *slab) scalarMap() map[string]float64 {
	if s.scalars == nil {
		s.scalars = make(map[string]float64)
	}
	clear(s.scalars)
	return s.scalars
}

// slabPool is a bounded free list of slabs. The zero value is ready to use.
// A nil pool hands out fresh slabs that Release never recycles.
type slabPool struct {
	mu   sync.Mutex
	free []*slab
}

func (p *slabPool) get() *slab {
	if p != nil {
		p.mu.Lock()
		if n := len(p.free); n > 0 {
			s := p.free[n-1]
			p.free[n-1] = nil
			p.free = p.free[:n-1]
			p.mu.Unlock()
			return s
		}
		p.mu.Unlock()
	}
	return &slab{pool: p}
}

func (p *slabPool) put(s *slab) {
	p.mu.Lock()
	if len(p.free) < maxFreeSlabs {
		p.free = append(p.free, s)
	}
	p.mu.Unlock()
}

// decode decodes one frame into a slab from p; the message's Release hands
// the slab back.
func (p *slabPool) decode(frame []byte) (Message, error) {
	s := p.get()
	m, err := decodeFrameInto(frame, s)
	if err != nil {
		return Message{}, err
	}
	m.h = s.handle()
	return m, nil
}

// copyOf returns msg with its vectors and scalars copied into a slab from p,
// so the sender may reuse its own buffers as soon as Send returns. A message
// without vectors or scalars needs no slab.
func (p *slabPool) copyOf(msg Message) Message {
	out := msg
	out.Vectors, out.Scalars, out.h = nil, nil, handle{}
	if len(msg.Vectors) == 0 && msg.Scalars == nil {
		return out
	}
	s := p.get()
	if len(msg.Vectors) > 0 {
		n := 0
		for _, v := range msg.Vectors {
			n += len(v)
		}
		data := s.floats(n)
		out.Vectors = s.headers(len(msg.Vectors))
		for i, v := range msg.Vectors {
			off := len(data)
			data = append(data, v...)
			out.Vectors[i] = data[off:len(data):len(data)]
		}
	}
	if msg.Scalars != nil {
		out.Scalars = s.scalarMap()
		for k, v := range msg.Scalars {
			out.Scalars[k] = v
		}
	}
	out.h = s.handle()
	return out
}
