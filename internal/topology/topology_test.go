package topology

import (
	"errors"
	"testing"

	"hieradmo/internal/robust"
)

func mustParse(t *testing.T, s string) *Topology {
	t.Helper()
	topo, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return topo
}

func TestParseIssueExample(t *testing.T) {
	topo := mustParse(t, "cloud:tau=20/region:tau=5,agg=median/edge:tau=1/worker*8")
	if got := topo.Depth(); got != 4 {
		t.Fatalf("depth = %d, want 4", got)
	}
	want := []Level{
		{Name: "cloud", Tau: 20, Fanout: 1},
		{Name: "region", Tau: 5, Fanout: 1, Agg: robust.Spec{Kind: robust.Median}},
		{Name: "edge", Tau: 1, Fanout: 1},
		{Name: "worker", Tau: 1, Fanout: 8},
	}
	for i, lv := range topo.Levels {
		if lv != want[i] {
			t.Errorf("level %d = %+v, want %+v", i, lv, want[i])
		}
	}
	if got := topo.NumLeaves(); got != 8 {
		t.Errorf("NumLeaves = %d, want 8", got)
	}
	if got := topo.NumNodes(); got != 11 {
		t.Errorf("NumNodes = %d, want 11", got)
	}
	if got := topo.SyncsPerParent(1); got != 4 {
		t.Errorf("SyncsPerParent(region) = %d, want 4", got)
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"cloud:tau=4/edge*2:tau=2/worker*2",
		"cloud:tau=20/worker*8",
		"cloud:tau=20/region*2:tau=10,agg=median/edge*2:tau=5,agg=trimmed(0.2)/worker*2",
		"root:tau=8,gamma=0.25/mid*3:tau=4,agg=clip(1.5)/leaf*4",
		"cloud:tau=6,agg=cosine(0.5)/edge*2:tau=3,adapt=true/worker*5",
		"a:tau=2,gamma=0/b*7",
	} {
		topo := mustParse(t, spec)
		out := topo.String()
		again := mustParse(t, out)
		if again.String() != out {
			t.Errorf("spec %q: format %q re-formats as %q", spec, out, again.String())
		}
		if len(again.Levels) != len(topo.Levels) {
			t.Fatalf("spec %q: depth changed on round-trip", spec)
		}
		for i := range topo.Levels {
			if topo.Levels[i] != again.Levels[i] {
				t.Errorf("spec %q level %d: %+v != %+v", spec, i, topo.Levels[i], again.Levels[i])
			}
		}
	}
}

// TestParseTauTiling pins the τℓ alignment rule: child sync rounds must tile
// parent periods, and misaligned specs fail with the typed ErrMisaligned.
func TestParseTauTiling(t *testing.T) {
	cases := []struct {
		spec string
		err  error
	}{
		{"cloud:tau=20/edge*2:tau=5/worker*2", nil},
		{"cloud:tau=6/edge*2:tau=6/worker*2", nil}, // equal periods tile (π=1)
		{"cloud:tau=20/edge*2:tau=7/worker*2", ErrMisaligned},
		{"cloud:tau=5/edge*2:tau=10/worker*2", ErrMisaligned}, // child slower than parent
		{"cloud:tau=8/region*2:tau=4/edge*2:tau=3/worker*2", ErrMisaligned},
		{"cloud:tau=8/region*2:tau=4/edge*2:tau=2/worker*2", nil},
	}
	for _, tc := range cases {
		_, err := Parse(tc.spec)
		if tc.err == nil && err != nil {
			t.Errorf("Parse(%q) = %v, want ok", tc.spec, err)
		}
		if tc.err != nil && !errors.Is(err, tc.err) {
			t.Errorf("Parse(%q) = %v, want %v", tc.spec, err, tc.err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		spec string
		err  error
	}{
		{"", ErrSyntax},
		{"cloud:tau=4", ErrSyntax},            // single level
		{"cloud*2:tau=4/worker*2", ErrSyntax}, // root fanout
		{"cloud:tau=4/cloud*2", ErrSyntax},    // duplicate name
		{"Cloud:tau=4/worker*2", ErrSyntax},   // uppercase name
		{"9cloud:tau=4/worker*2", ErrSyntax},  // leading digit
		{"clo-ud:tau=4/worker*2", ErrSyntax},  // dash collides with node IDs
		{"cloud:tau=4/worker*0", ErrSyntax},
		{"cloud:tau=4/worker*-3", ErrSyntax},
		{"cloud:tau=4/worker*2x", ErrSyntax},
		{"cloud:tau=0/worker*2", ErrAttr},
		{"cloud:tau=4,tau=4/worker*2", ErrAttr}, // repeated attribute
		{"cloud:tau=4,bogus=1/worker*2", ErrAttr},
		{"cloud:tau=4,gamma=1.5/worker*2", ErrAttr},
		{"cloud:tau=4,gamma=-0.1/worker*2", ErrAttr},
		{"cloud:tau=4,adapt=maybe/worker*2", ErrAttr},
		{"cloud:tau=4,agg=bogus/worker*2", ErrAttr},
		{"cloud:tau=4,agg=trimmed(0.9)/worker*2", ErrAttr},
		{"cloud:tau=4,agg=median(0.5)/worker*2", ErrAttr},
		{"cloud:tau=4,agg=clip(1.0/worker*2", ErrAttr},                           // unbalanced parens
		{"cloud:tau=4/worker*2:tau=2", ErrAttr},                                  // leaf tau
		{"cloud:tau=4/worker*2:agg=median", ErrAttr},                             // leaf agg
		{"cloud:tau=4/worker*2:gamma=0.5", ErrAttr},                              // leaf gamma
		{"cloud:tau=8/region*2:tau=4,adapt=true/edge*2:tau=2/worker*2", ErrAttr}, // adapt off leaf-parent
		{"a:tau=1/b/c/d/e/f/g/h/i*2", ErrBounds},                                 // depth > MaxDepth
		{"cloud:tau=4/worker*100000", ErrBounds},                                 // fanout > MaxFanout
		{"cloud:tau=4/mid*4096:tau=2/worker*4096", ErrBounds},                    // nodes > MaxNodes
		{"cloud:tau=4/edge*2+1:tau=2/worker*2", ErrSyntax},                       // counts off the training level
		{"cloud:tau=4/edge*2:tau=2/worker*2+1+1", ErrSyntax},                     // counts for 3 of 2 parents
		{"cloud:tau=4/edge*2:tau=2/worker*2+0", ErrSyntax},
	}
	for _, tc := range cases {
		_, err := Parse(tc.spec)
		if !errors.Is(err, tc.err) {
			t.Errorf("Parse(%q) = %v, want %v", tc.spec, err, tc.err)
		}
	}
}

// TestValidateRejectsBadAggRule: a programmatically built spec carrying an
// out-of-range rule parameter must fail validation, not run plain mean.
func TestValidateRejectsBadAggRule(t *testing.T) {
	topo := mustParse(t, "cloud:tau=4/edge*2:tau=2/worker*2")
	topo.Levels[1].Agg = robust.Spec{Kind: robust.Trimmed, Trim: 0.9}
	if err := topo.Validate(); !errors.Is(err, ErrAttr) {
		t.Errorf("Validate with trimmed(0.9) = %v, want ErrAttr", err)
	}
}

// TestLeafCounts pins the unequal-cohort form of the training level: it
// parses, renders canonically (all-equal lists fold into a uniform fanout),
// and lays children out contiguously.
func TestLeafCounts(t *testing.T) {
	topo := mustParse(t, "cloud:tau=4/edge*2:tau=2/worker*3+2")
	if got := topo.String(); got != "cloud:tau=4/edge*2:tau=2/worker*3+2" {
		t.Errorf("String = %q", got)
	}
	if got := topo.NumLeaves(); got != 5 {
		t.Errorf("NumLeaves = %d, want 5", got)
	}
	if lo, hi := topo.Children(1, 1); lo != 3 || hi != 5 {
		t.Errorf("Children(1, 1) = [%d, %d), want [3, 5)", lo, hi)
	}
	if got := topo.NodeID(2, 3); got != "worker-1-0" {
		t.Errorf("NodeID(2, 3) = %q, want worker-1-0", got)
	}
	if got := mustParse(t, "cloud:tau=4/edge*2:tau=2/worker*2+2").String(); got != "cloud:tau=4/edge*2:tau=2/worker*2" {
		t.Errorf("equal counts render as %q, want the uniform form", got)
	}
	if got := ThreeTier([]int{3, 2}, 2, 2).String(); got != "cloud:tau=4/edge*2:tau=2/worker*3+2" {
		t.Errorf("ThreeTier({3,2}) = %q", got)
	}
	if got := ThreeTier([]int{2, 2}, 2, 2).String(); got != "cloud:tau=4/edge*2:tau=2/worker*2" {
		t.Errorf("ThreeTier({2,2}) = %q", got)
	}
}

func TestNodeIDs(t *testing.T) {
	topo := mustParse(t, "cloud:tau=8/region*2:tau=4/edge*2:tau=2/worker*2")
	if got := topo.NodeID(0, 0); got != "cloud" {
		t.Errorf("root id = %q", got)
	}
	if got := topo.NodeID(2, 3); got != "edge-3" {
		t.Errorf("aggregator id = %q", got)
	}
	if got := topo.NodeID(3, 7); got != "worker-3-1" {
		t.Errorf("leaf id = %q", got)
	}
	for i := range topo.Levels {
		for idx := 0; idx < topo.Width(i); idx++ {
			id := topo.NodeID(i, idx)
			gi, gidx, err := topo.ParseNodeID(id)
			if err != nil || gi != i || gidx != idx {
				t.Fatalf("ParseNodeID(%q) = (%d, %d, %v), want (%d, %d)", id, gi, gidx, err, i, idx)
			}
		}
	}
	for _, bad := range []string{"", "cloud-0", "cloud-x", "cloud-1", "edge-4", "worker-7",
		"worker-4-0", "worker-0-2", "worker-0-01", "tower-0", "worker--1", "edge-1-1"} {
		if _, _, err := topo.ParseNodeID(bad); err == nil {
			t.Errorf("ParseNodeID(%q) unexpectedly ok", bad)
		}
	}
}

func TestAlignsWith(t *testing.T) {
	topo := mustParse(t, "cloud:tau=6/worker*2")
	if err := topo.AlignsWith(24); err != nil {
		t.Errorf("AlignsWith(24): %v", err)
	}
	if err := topo.AlignsWith(20); !errors.Is(err, ErrMisaligned) {
		t.Errorf("AlignsWith(20) = %v, want ErrMisaligned", err)
	}
}

func TestWidths(t *testing.T) {
	topo := mustParse(t, "cloud:tau=8/region*3:tau=4/edge*2:tau=2/worker*4")
	want := []int{1, 3, 6, 24}
	for i, w := range want {
		if got := topo.Width(i); got != w {
			t.Errorf("Width(%d) = %d, want %d", i, got, w)
		}
	}
	if got := topo.NumNodes(); got != 34 {
		t.Errorf("NumNodes = %d, want 34", got)
	}
	if got := topo.LeafParent(); got != 2 {
		t.Errorf("LeafParent = %d, want 2", got)
	}
}
