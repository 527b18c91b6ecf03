package topology

import (
	"strings"
	"testing"
)

// FuzzParseTopology asserts the parser's contract on arbitrary input: every
// string yields either a validated topology or a wrapped error — never a
// panic — pathological depth/fan-out is rejected by the bounds before any
// per-node allocation, and accepted specs round-trip through the canonical
// form exactly (Parse(t.String()) reproduces t and re-formats identically,
// the property the checkpoint fingerprint relies on).
func FuzzParseTopology(f *testing.F) {
	for _, seed := range []string{
		"cloud:tau=20/region:tau=5,agg=median/edge:tau=1/worker*8",
		"cloud:tau=4/edge*2:tau=2/worker*2",
		"cloud:tau=20/worker*8",
		"root:tau=8,gamma=0.25/mid*3:tau=4,agg=clip(1.5)/leaf*4",
		"cloud:tau=6,agg=cosine(0.5)/edge*2:tau=3,adapt=true/worker*5",
		"cloud:tau=20/edge*2:tau=7/worker*2",
		"cloud:tau=4/edge*2:tau=2/worker*3+2",
		"a:tau=1/b*4096/c*4096",
		"x*9999999999999999999/y",
		"cloud:tau=4,agg=trimmed(0.2/worker",
		"//:=,*",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		// Bound the raw input so the fuzzer probes structure, not string
		// length (a spec within the depth/fanout/name bounds is short).
		if len(s) > 512 {
			return
		}
		topo, err := Parse(s)
		if err != nil {
			if topo != nil {
				t.Fatalf("Parse(%q) returned both a topology and %v", s, err)
			}
			return
		}
		if got := topo.NumNodes(); got > MaxNodes {
			t.Fatalf("Parse(%q) accepted %d nodes (> MaxNodes %d)", s, got, MaxNodes)
		}
		if got := topo.Depth(); got < 2 || got > MaxDepth {
			t.Fatalf("Parse(%q) accepted depth %d", s, got)
		}
		canon := topo.String()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q): canonical form %q does not re-parse: %v", s, canon, err)
		}
		if got := again.String(); got != canon {
			t.Fatalf("canonical form is not a fixed point: %q -> %q", canon, got)
		}
		if len(again.Levels) != len(topo.Levels) {
			t.Fatalf("round-trip changed depth: %q", canon)
		}
		for i := range topo.Levels {
			if topo.Levels[i] != again.Levels[i] {
				t.Fatalf("round-trip changed level %d of %q: %+v != %+v",
					i, canon, topo.Levels[i], again.Levels[i])
			}
		}
		// Node IDs must resolve back to their coordinates for every level
		// (spot-check the first and last node per level; widths are bounded).
		for i := range topo.Levels {
			for _, idx := range []int{0, topo.Width(i) - 1} {
				id := topo.NodeID(i, idx)
				if i > 0 && strings.Count(id, "-") < 1 {
					t.Fatalf("node id %q has no index separator", id)
				}
				gi, gidx, err := topo.ParseNodeID(id)
				if err != nil || gi != i || gidx != idx {
					t.Fatalf("ParseNodeID(%q) = (%d,%d,%v), want (%d,%d)", id, gi, gidx, err, i, idx)
				}
			}
		}
	})
}
