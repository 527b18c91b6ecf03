package checkpoint

import (
	"fmt"

	"hieradmo/internal/rng"
)

// Registry binds named live training state to snapshot fields: an algorithm
// registers each persistent vector, RNG stream, and counter once, then calls
// Save after completed iterations and Restore once at startup. Registration
// order does not matter; names must be unique per kind and stable across
// runs (they address the state inside the snapshot).
//
// Vectors are captured by reference: Save copies their current contents, and
// Restore copies snapshot contents back into the same backing arrays, so the
// algorithm's aliases (momentum buffers shared with a harness, for example)
// stay intact.
type Registry struct {
	mgr         *Manager
	fingerprint string

	vectors map[string][]float64
	rngs    map[string]*rng.RNG
	ints    map[string]*int
	floats  map[string]*float64
	// dynamics serialize variable-size state (accuracy curves, message
	// backlogs) through an encode/decode pair.
	dynamics map[string]dynamic
}

type dynamic struct {
	save func() []float64
	load func([]float64) error
}

// NewRegistry returns a registry persisting through mgr under the given
// config fingerprint.
func NewRegistry(mgr *Manager, fingerprint string) *Registry {
	return &Registry{
		mgr:         mgr,
		fingerprint: fingerprint,
		vectors:     make(map[string][]float64),
		rngs:        make(map[string]*rng.RNG),
		ints:        make(map[string]*int),
		floats:      make(map[string]*float64),
		dynamics:    make(map[string]dynamic),
	}
}

// Vector registers a fixed-size float64 slice (model parameters, momentum,
// accumulators). The slice length must not change between registration and
// Save/Restore.
func (g *Registry) Vector(name string, v []float64) { g.vectors[name] = v }

// RNG registers a random stream whose position is captured and restored.
func (g *Registry) RNG(name string, r *rng.RNG) { g.rngs[name] = r }

// Int registers an integer counter.
func (g *Registry) Int(name string, p *int) { g.ints[name] = p }

// Float registers a scalar.
func (g *Registry) Float(name string, p *float64) { g.floats[name] = p }

// Dynamic registers variable-size state through an encode/decode pair: save
// flattens the current value, load rebuilds it from a restored snapshot.
func (g *Registry) Dynamic(name string, save func() []float64, load func([]float64) error) {
	g.dynamics[name] = dynamic{save: save, load: load}
}

// Save snapshots every registered binding as the generation for seq (the
// last completed iteration or round).
func (g *Registry) Save(seq int) error {
	st := NewState(g.fingerprint, seq)
	for name, v := range g.vectors {
		st.Vectors[name] = append([]float64(nil), v...)
	}
	for name, r := range g.rngs {
		st.RNGs[name] = r.Snapshot()
	}
	for name, p := range g.ints {
		st.Ints[name] = int64(*p)
	}
	for name, p := range g.floats {
		st.Floats[name] = *p
	}
	for name, d := range g.dynamics {
		st.Vectors["dyn/"+name] = d.save()
	}
	return g.mgr.Save(st)
}

// MismatchError is Restore's ErrMismatch failure. It carries both
// fingerprints so a caller can tell which kind of run wrote the snapshot.
type MismatchError struct {
	Snapshot, Run string
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("%v: snapshot %q vs run %q", ErrMismatch, e.Snapshot, e.Run)
}

// Unwrap makes a MismatchError match ErrMismatch under errors.Is.
func (e *MismatchError) Unwrap() error { return ErrMismatch }

// Restore loads the newest valid snapshot generation into the registered
// bindings and returns its sequence number. With no snapshot present it
// returns (0, false, nil): start from scratch. A snapshot carrying a
// different fingerprint fails with a *MismatchError (matching ErrMismatch) — resuming it would
// silently train a different configuration.
func (g *Registry) Restore() (int, bool, error) {
	st, err := g.mgr.Latest()
	if err != nil {
		return 0, false, err
	}
	if st == nil {
		return 0, false, nil
	}
	if st.Fingerprint != g.fingerprint {
		return 0, false, &MismatchError{Snapshot: st.Fingerprint, Run: g.fingerprint}
	}
	for name, v := range g.vectors {
		sv, ok := st.Vectors[name]
		if !ok {
			return 0, false, fmt.Errorf("%w: snapshot missing vector %q", ErrFormat, name)
		}
		if len(sv) != len(v) {
			return 0, false, fmt.Errorf("%w: vector %q has %d elements, want %d", ErrFormat, name, len(sv), len(v))
		}
		copy(v, sv)
	}
	for name, r := range g.rngs {
		s, ok := st.RNGs[name]
		if !ok {
			return 0, false, fmt.Errorf("%w: snapshot missing rng %q", ErrFormat, name)
		}
		r.Restore(s)
	}
	for name, p := range g.ints {
		v, ok := st.Ints[name]
		if !ok {
			return 0, false, fmt.Errorf("%w: snapshot missing int %q", ErrFormat, name)
		}
		*p = int(v)
	}
	for name, p := range g.floats {
		v, ok := st.Floats[name]
		if !ok {
			return 0, false, fmt.Errorf("%w: snapshot missing float %q", ErrFormat, name)
		}
		*p = v
	}
	for name, d := range g.dynamics {
		sv, ok := st.Vectors["dyn/"+name]
		if !ok {
			return 0, false, fmt.Errorf("%w: snapshot missing dynamic %q", ErrFormat, name)
		}
		if err := d.load(sv); err != nil {
			return 0, false, fmt.Errorf("checkpoint: restore dynamic %q: %w", name, err)
		}
	}
	return st.Seq, true, nil
}

// Clear removes this registry's snapshot generations (fresh-start runs in a
// previously used directory).
func (g *Registry) Clear() error { return g.mgr.Clear() }
