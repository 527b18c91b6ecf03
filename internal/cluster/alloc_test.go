package cluster

import (
	"runtime"
	"testing"

	"hieradmo/internal/transport"
)

// TestTreeSteadyStateAllocation pins the tree's steady-state allocation: a
// depth-4 run over the memory transport, measured at two horizons so setup
// cancels out, may allocate at most two model vectors per leaf-parent round.
// Receivers release every message payload back to the transport, and every
// round's working memory is node or leaf scratch, so the figure is about
// zero; deep-copying each message instead costs about a hundred vectors.
func TestTreeSteadyStateAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	cfg := buildFlatConfig(t, 73, []int{4, 4})
	topo := treeTopo(t, depth4Spec)
	leafTau := topo.Levels[len(topo.Levels)-2].Tau
	bytesAt := func(T int) uint64 {
		t.Helper()
		cfg.T = T
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := Run(cfg, transport.NewMemoryNetwork(), Options{Adaptive: true, Topology: topo}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const short, long = 32, 160
	bytesAt(short) // warm the harness caches and worker pools
	a, b := bytesAt(short), bytesAt(long)
	rounds := (long - short) / leafTau
	perRound := (float64(b) - float64(a)) / float64(rounds)
	vector := 8 * float64(cfg.Model.Dim())
	t.Logf("%.0f bytes per leaf-parent round = %.2f model vectors (dim %d)", perRound, perRound/vector, cfg.Model.Dim())
	if perRound > 2*vector {
		t.Errorf("steady state allocates %.0f bytes per leaf-parent round, over the budget of two model vectors (%.0f bytes)",
			perRound, 2*vector)
	}
}
