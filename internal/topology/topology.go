// Package topology describes an N-tier aggregation tree for the cluster
// runtime: a chain of named levels from the root aggregator down to the
// training leaves, each with its own synchronization period τℓ, aggregation
// rule, and momentum configuration.
//
// The text form is root-first, slash-separated:
//
//	cloud:tau=20/region:tau=5,agg=median/edge:tau=1/worker*8
//
// Each level is `name[*fanout][:attr,...]`. Fanout is the number of nodes
// per parent (default 1; the root is always a single node and takes no
// fanout). The training level may instead list one leaf count per
// leaf-parent node, `worker*3+2`, for trees whose edges host unequal cohorts. Aggregating levels (all but the last) require `tau=<iterations>`;
// the last level is the training tier and always runs with an implicit τ of
// one iteration. Remaining attributes: `agg=<rule>` selects the level's
// robust aggregation rule (mean|median|trimmed(f)|clip(f)|cosine(f)),
// `gamma=<float>` sets a fixed momentum factor γℓ, and `adapt=<bool>`
// toggles the adaptive-γℓ rule — the latter two only at the leaf-parent
// level, the only tier that receives the gradient and momentum accumulators
// the adaptation signals need.
//
// The canonical String form feeds checkpoint fingerprints, so equal
// topologies must render equally; Parse(t.String()) round-trips exactly.
package topology

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"hieradmo/internal/robust"
)

// Bounds reject pathological specs before any per-node allocation happens
// (the parser is fuzzed: every input must yield a value or a wrapped error
// without an allocation blowup).
const (
	// MaxDepth bounds the number of levels, training tier included.
	MaxDepth = 8
	// MaxFanout bounds any single level's per-parent fanout.
	MaxFanout = 4096
	// MaxNodes bounds the total node count of the whole tree.
	MaxNodes = 65536
	// maxNameLen bounds a level name.
	maxNameLen = 16
)

// Typed parse/validation errors, matched by callers with errors.Is.
var (
	// ErrSyntax is a malformed spec string.
	ErrSyntax = errors.New("topology: syntax error")
	// ErrBounds is a structurally valid spec exceeding MaxDepth, MaxFanout,
	// or MaxNodes.
	ErrBounds = errors.New("topology: bounds exceeded")
	// ErrMisaligned is a τℓ tiling violation: every child level's sync
	// period must divide its parent's, so child rounds tile parent periods
	// exactly.
	ErrMisaligned = errors.New("topology: child sync period must tile parent period")
	// ErrAttr is an attribute that is unknown, malformed, or not allowed at
	// its level.
	ErrAttr = errors.New("topology: invalid attribute")
)

// Level is one tier of the tree, root first.
type Level struct {
	// Name labels the level and prefixes its node IDs (see NodeID).
	// Lowercase letter followed by lowercase letters or digits, unique per
	// topology.
	Name string
	// Tau is the level's synchronization period in worker iterations: the
	// level aggregates its children every Tau iterations. The last level
	// (the training tier) always has Tau == 1.
	Tau int
	// Fanout is the number of nodes of this level per parent node; the
	// root's is fixed at 1. On a training level with Topology.LeafCounts it
	// is the largest per-parent count.
	Fanout int
	// Agg is the aggregation rule applied to child reports (zero value =
	// plain weighted mean, the bit-exact undefended path).
	Agg robust.Spec
	// Gamma is the fixed momentum factor γℓ; meaningful only when HasGamma.
	Gamma float64
	// HasGamma records an explicit gamma attribute. Without one the
	// leaf-parent level uses the run config's GammaEdge and every other
	// aggregating level uses 0 (plain averaging).
	HasGamma bool
	// Adapt toggles adaptive γℓ; meaningful only when HasAdapt. Without an
	// explicit attribute the leaf-parent level follows the run options.
	Adapt    bool
	HasAdapt bool
}

// Topology is a validated aggregation tree: Levels[0] is the root,
// Levels[len-1] the training tier.
type Topology struct {
	Levels []Level
	// LeafCounts, when non-nil, gives the number of training leaves under
	// each leaf-parent node in index order, replacing the training level's
	// uniform Fanout. Canonical topologies never hold a list whose counts
	// are all equal: that tree is the uniform one.
	LeafCounts []int
}

// Depth returns the number of levels, training tier included.
func (t *Topology) Depth() int { return len(t.Levels) }

// Width returns the number of nodes at level i (the product of fanouts
// down to and including i, or the leaf-count total at the training level
// of a tree with LeafCounts).
func (t *Topology) Width(i int) int {
	if i == t.Depth()-1 && t.LeafCounts != nil {
		n := 0
		for _, c := range t.LeafCounts {
			n += c
		}
		return n
	}
	n := 1
	for j := 1; j <= i; j++ {
		n *= t.Levels[j].Fanout
	}
	return n
}

// Children returns the index range [lo, hi) at level i+1 of the children of
// node idx at aggregating level i. Siblings are always contiguous.
func (t *Topology) Children(i, idx int) (lo, hi int) {
	if i+1 == t.Depth()-1 && t.LeafCounts != nil {
		for p := 0; p < idx; p++ {
			lo += t.LeafCounts[p]
		}
		return lo, lo + t.LeafCounts[idx]
	}
	fan := t.Levels[i+1].Fanout
	return idx * fan, (idx + 1) * fan
}

// Parent returns the index at level i-1 of the parent of node idx at level
// i (i >= 1).
func (t *Topology) Parent(i, idx int) int {
	if i == t.Depth()-1 && t.LeafCounts != nil {
		for p, c := range t.LeafCounts {
			if idx < c {
				return p
			}
			idx -= c
		}
		return len(t.LeafCounts)
	}
	return idx / t.Levels[i].Fanout
}

// NumLeaves returns the training-tier node count.
func (t *Topology) NumLeaves() int { return t.Width(t.Depth() - 1) }

// NumNodes returns the total node count over all levels.
func (t *Topology) NumNodes() int {
	total := 0
	for i := range t.Levels {
		total += t.Width(i)
	}
	return total
}

// LeafParent returns the index of the level whose children are the training
// leaves.
func (t *Topology) LeafParent() int { return t.Depth() - 2 }

// NodeID returns the transport ID of node idx at level i. The root is
// named by its level name, other aggregators "<name>-<idx>", and training
// leaves "<name>-<parent>-<pos>": position pos under leaf-parent node
// parent. A leaf's ID is its permanent identity, so a leaf keeps it when
// dynamic membership moves it to another parent. The default three-tier
// tree (see ThreeTier) therefore names its nodes "cloud", "edge-ℓ", and
// "worker-ℓ-i".
func (t *Topology) NodeID(i, idx int) string {
	name := t.Levels[i].Name
	switch {
	case i == 0:
		return name
	case i == t.Depth()-1:
		p := t.Parent(i, idx)
		lo, _ := t.Children(i-1, p)
		return name + "-" + strconv.Itoa(p) + "-" + strconv.Itoa(idx-lo)
	default:
		return name + "-" + strconv.Itoa(idx)
	}
}

// ParseNodeID resolves a transport ID minted by NodeID back to its (level,
// index) coordinates.
func (t *Topology) ParseNodeID(id string) (level, idx int, err error) {
	parts := strings.Split(id, "-")
	level = -1
	for i := range t.Levels {
		if t.Levels[i].Name == parts[0] {
			level = i
		}
	}
	if level < 0 {
		return 0, 0, fmt.Errorf("topology: node id %q names no level", id)
	}
	nums := make([]int, len(parts)-1)
	for j, p := range parts[1:] {
		if nums[j], err = strconv.Atoi(p); err != nil || nums[j] < 0 || p != strconv.Itoa(nums[j]) {
			return 0, 0, fmt.Errorf("topology: malformed node id %q", id)
		}
	}
	leaf := t.Depth() - 1
	switch {
	case level == 0 && len(nums) == 0:
		return 0, 0, nil
	case level == leaf && len(nums) == 2:
		parent, pos := nums[0], nums[1]
		if parent >= t.Width(leaf-1) {
			return 0, 0, fmt.Errorf("topology: node id %q names parent %d outside level %q width %d",
				id, parent, t.Levels[leaf-1].Name, t.Width(leaf-1))
		}
		lo, hi := t.Children(leaf-1, parent)
		if pos >= hi-lo {
			return 0, 0, fmt.Errorf("topology: node id %q names position %d of %d", id, pos, hi-lo)
		}
		return leaf, lo + pos, nil
	case level > 0 && level < leaf && len(nums) == 1:
		if nums[0] >= t.Width(level) {
			return 0, 0, fmt.Errorf("topology: node id %q outside level %q width %d",
				id, t.Levels[level].Name, t.Width(level))
		}
		return level, nums[0], nil
	}
	return 0, 0, fmt.Errorf("topology: malformed node id %q", id)
}

// SyncsPerParent returns how many of level i's aggregation rounds fit in one
// of its parent's periods (τ_{i-1}/τ_i); the tree analogue of π.
func (t *Topology) SyncsPerParent(i int) int {
	return t.Levels[i-1].Tau / t.Levels[i].Tau
}

// String renders the canonical text form (root first). It feeds checkpoint
// fingerprints: equal topologies render equally and Parse round-trips it.
func (t *Topology) String() string {
	var b strings.Builder
	for i, lv := range t.Levels {
		if i > 0 {
			b.WriteByte('/')
		}
		b.WriteString(lv.Name)
		if i == len(t.Levels)-1 && t.LeafCounts != nil {
			b.WriteByte('*')
			for p, c := range t.LeafCounts {
				if p > 0 {
					b.WriteByte('+')
				}
				b.WriteString(strconv.Itoa(c))
			}
		} else if lv.Fanout > 1 {
			b.WriteByte('*')
			b.WriteString(strconv.Itoa(lv.Fanout))
		}
		var attrs []string
		if i < len(t.Levels)-1 {
			attrs = append(attrs, "tau="+strconv.Itoa(lv.Tau))
		}
		if lv.Agg.Robust() {
			attrs = append(attrs, "agg="+lv.Agg.String())
		}
		if lv.HasGamma {
			attrs = append(attrs, "gamma="+strconv.FormatFloat(lv.Gamma, 'g', -1, 64))
		}
		if lv.HasAdapt {
			attrs = append(attrs, "adapt="+strconv.FormatBool(lv.Adapt))
		}
		if len(attrs) > 0 {
			b.WriteByte(':')
			b.WriteString(strings.Join(attrs, ","))
		}
	}
	return b.String()
}

// Parse builds and validates a Topology from its text form.
func Parse(s string) (*Topology, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("%w: empty spec", ErrSyntax)
	}
	parts := strings.Split(s, "/")
	if len(parts) > MaxDepth {
		return nil, fmt.Errorf("%w: %d levels exceed MaxDepth %d", ErrBounds, len(parts), MaxDepth)
	}
	t := &Topology{Levels: make([]Level, 0, len(parts))}
	for li, part := range parts {
		lv, counts, err := parseLevel(strings.TrimSpace(part), li)
		if err != nil {
			return nil, err
		}
		if counts != nil {
			if li != len(parts)-1 {
				return nil, fmt.Errorf("%w: level %q: per-parent counts are only allowed on the training level", ErrSyntax, lv.Name)
			}
			t.LeafCounts = counts
		}
		t.Levels = append(t.Levels, lv)
	}
	t.normalize()
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// normalize folds a LeafCounts list whose counts are all equal into the
// uniform training-level Fanout, and otherwise sets that Fanout to the
// largest count, so equal trees have one canonical form.
func (t *Topology) normalize() {
	if t.LeafCounts == nil || len(t.Levels) == 0 {
		return
	}
	leaf := &t.Levels[len(t.Levels)-1]
	uniform := true
	leaf.Fanout = 0
	for _, c := range t.LeafCounts {
		uniform = uniform && c == t.LeafCounts[0]
		leaf.Fanout = max(leaf.Fanout, c)
	}
	if uniform {
		t.LeafCounts = nil
	}
}

// parseLevel parses one `name[*fanout][:attr,...]` segment; a fanout of the
// form `a+b+...` is returned as per-parent counts.
func parseLevel(part string, li int) (Level, []int, error) {
	lv := Level{Fanout: 1, Tau: 1}
	head, attrs, hasAttrs := strings.Cut(part, ":")
	name, fan, hasFan := strings.Cut(head, "*")
	if err := checkName(name); err != nil {
		return Level{}, nil, err
	}
	lv.Name = name
	var counts []int
	if hasFan {
		if li == 0 {
			return Level{}, nil, fmt.Errorf("%w: root level %q takes no fanout", ErrSyntax, name)
		}
		fields := strings.Split(fan, "+")
		if len(fields) > MaxNodes {
			return Level{}, nil, fmt.Errorf("%w: level %q lists more than MaxNodes %d counts", ErrBounds, name, MaxNodes)
		}
		for _, f := range fields {
			n, err := strconv.Atoi(f)
			if err != nil || n < 1 {
				return Level{}, nil, fmt.Errorf("%w: level %q fanout %q", ErrSyntax, name, fan)
			}
			if n > MaxFanout {
				return Level{}, nil, fmt.Errorf("%w: level %q fanout %d exceeds MaxFanout %d",
					ErrBounds, name, n, MaxFanout)
			}
			lv.Fanout = n
			counts = append(counts, n)
		}
		if len(counts) == 1 {
			counts = nil
		}
	}
	if !hasAttrs {
		return lv, counts, nil
	}
	seen := map[string]bool{}
	for _, attr := range strings.Split(attrs, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(attr), "=")
		if !ok || val == "" {
			return Level{}, nil, fmt.Errorf("%w: level %q attribute %q: want key=value", ErrAttr, name, attr)
		}
		if seen[key] {
			return Level{}, nil, fmt.Errorf("%w: level %q repeats attribute %q", ErrAttr, name, key)
		}
		seen[key] = true
		switch key {
		case "tau":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return Level{}, nil, fmt.Errorf("%w: level %q tau %q: want a positive integer", ErrAttr, name, val)
			}
			lv.Tau = n
		case "agg":
			spec, err := parseAggRule(val)
			if err != nil {
				return Level{}, nil, fmt.Errorf("%w: level %q agg %q: %v", ErrAttr, name, val, err)
			}
			lv.Agg = spec
		case "gamma":
			g, err := strconv.ParseFloat(val, 64)
			if err != nil || g < 0 || g >= 1 {
				return Level{}, nil, fmt.Errorf("%w: level %q gamma %q: want a float in [0, 1)", ErrAttr, name, val)
			}
			lv.Gamma = g
			lv.HasGamma = true
		case "adapt":
			b, err := strconv.ParseBool(val)
			if err != nil {
				return Level{}, nil, fmt.Errorf("%w: level %q adapt %q: want a bool", ErrAttr, name, val)
			}
			lv.Adapt = b
			lv.HasAdapt = true
		default:
			return Level{}, nil, fmt.Errorf("%w: level %q has unknown attribute %q", ErrAttr, name, key)
		}
	}
	return lv, counts, nil
}

// parseAggRule parses an aggregation rule, optionally parameterized:
// mean | median | trimmed(f) | clip(f) | cosine(f).
func parseAggRule(val string) (robust.Spec, error) {
	name, rest, hasParam := strings.Cut(val, "(")
	var param float64
	if hasParam {
		numStr, ok := strings.CutSuffix(rest, ")")
		if !ok {
			return robust.Spec{}, fmt.Errorf("unbalanced parameter parens")
		}
		p, err := strconv.ParseFloat(numStr, 64)
		if err != nil {
			return robust.Spec{}, fmt.Errorf("parameter %q is not a float", numStr)
		}
		param = p
	}
	kind, err := robust.ParseKind(name)
	if err != nil {
		return robust.Spec{}, err
	}
	spec := robust.Spec{Kind: kind}
	switch kind {
	case robust.Trimmed:
		spec.Trim = param
	case robust.Clip:
		spec.Clip = param
	case robust.Cosine:
		spec.CosMin = param
	default:
		if hasParam {
			return robust.Spec{}, fmt.Errorf("rule %q takes no parameter", name)
		}
	}
	if err := spec.Validate(); err != nil {
		return robust.Spec{}, err
	}
	return spec, nil
}

// checkName vets a level name: a lowercase letter followed by lowercase
// letters or digits. No dashes — node IDs are "<name>-<index>" and split on
// the last dash.
func checkName(name string) error {
	if name == "" || len(name) > maxNameLen {
		return fmt.Errorf("%w: level name %q: want 1..%d characters", ErrSyntax, name, maxNameLen)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 'a' && c <= 'z' {
			continue
		}
		if i > 0 && c >= '0' && c <= '9' {
			continue
		}
		return fmt.Errorf("%w: level name %q: want a lowercase letter followed by lowercase letters or digits", ErrSyntax, name)
	}
	return nil
}

// Validate checks a topology's structure: at least two levels (one
// aggregator over the training tier), unique names, the τℓ tiling rule, the
// leaf-parent-only momentum attributes, and the node-count bounds.
func (t *Topology) Validate() error {
	if t == nil || len(t.Levels) < 2 {
		return fmt.Errorf("%w: a topology needs at least two levels (aggregator over training tier)", ErrSyntax)
	}
	if len(t.Levels) > MaxDepth {
		return fmt.Errorf("%w: %d levels exceed MaxDepth %d", ErrBounds, len(t.Levels), MaxDepth)
	}
	names := make(map[string]bool, len(t.Levels))
	for i, lv := range t.Levels {
		if err := checkName(lv.Name); err != nil {
			return err
		}
		if names[lv.Name] {
			return fmt.Errorf("%w: duplicate level name %q", ErrSyntax, lv.Name)
		}
		names[lv.Name] = true
		if lv.Fanout < 1 || (i == 0 && lv.Fanout != 1) {
			return fmt.Errorf("%w: level %q fanout %d", ErrSyntax, lv.Name, lv.Fanout)
		}
		if lv.Fanout > MaxFanout {
			return fmt.Errorf("%w: level %q fanout %d exceeds MaxFanout %d",
				ErrBounds, lv.Name, lv.Fanout, MaxFanout)
		}
		if lv.Tau < 1 {
			return fmt.Errorf("%w: level %q tau %d: want >= 1", ErrAttr, lv.Name, lv.Tau)
		}
		if err := lv.Agg.Validate(); err != nil {
			return fmt.Errorf("%w: level %q agg: %v", ErrAttr, lv.Name, err)
		}
	}
	leaf := t.Levels[len(t.Levels)-1]
	if leaf.Tau != 1 {
		return fmt.Errorf("%w: training level %q takes no tau (it is fixed at 1)", ErrAttr, leaf.Name)
	}
	if leaf.Agg.Robust() {
		return fmt.Errorf("%w: training level %q aggregates nothing and takes no agg rule", ErrAttr, leaf.Name)
	}
	if leaf.HasGamma || leaf.HasAdapt {
		return fmt.Errorf("%w: training level %q runs the worker NAG; gamma/adapt belong to aggregating levels", ErrAttr, leaf.Name)
	}
	for i := 1; i < len(t.Levels); i++ {
		parent, child := t.Levels[i-1], t.Levels[i]
		if parent.Tau%child.Tau != 0 || parent.Tau < child.Tau {
			return fmt.Errorf("%w: level %q τ=%d does not tile parent %q τ=%d",
				ErrMisaligned, child.Name, child.Tau, parent.Name, parent.Tau)
		}
	}
	lp := t.LeafParent()
	for i, lv := range t.Levels[:len(t.Levels)-1] {
		if i != lp && lv.HasAdapt && lv.Adapt {
			return fmt.Errorf("%w: level %q cannot adapt γ: only the leaf-parent level %q receives the gradient and momentum accumulators",
				ErrAttr, lv.Name, t.Levels[lp].Name)
		}
	}
	// Bound the total node count without materializing anything. The width
	// product is checked level by level BEFORE multiplying so it can never
	// overflow (each factor is at most MaxFanout and the running product is
	// capped at MaxNodes).
	total, width := 0, 1
	for i := range t.Levels {
		if i > 0 && i == len(t.Levels)-1 && t.LeafCounts != nil {
			if len(t.LeafCounts) != width {
				return fmt.Errorf("%w: training level %q lists %d leaf counts for %d parents",
					ErrSyntax, t.Levels[i].Name, len(t.LeafCounts), width)
			}
			width = 0
			for _, c := range t.LeafCounts {
				if c < 1 || c > t.Levels[i].Fanout {
					return fmt.Errorf("%w: training level %q leaf count %d outside [1, %d]",
						ErrSyntax, t.Levels[i].Name, c, t.Levels[i].Fanout)
				}
				width += c
			}
		} else if i > 0 {
			if width > MaxNodes/t.Levels[i].Fanout {
				return fmt.Errorf("%w: topology exceeds MaxNodes %d", ErrBounds, MaxNodes)
			}
			width *= t.Levels[i].Fanout
		}
		if total+width > MaxNodes {
			return fmt.Errorf("%w: topology exceeds MaxNodes %d", ErrBounds, MaxNodes)
		}
		total += width
	}
	return nil
}

// AlignsWith checks that a run of T iterations lands on a whole number of
// root periods (the tree analogue of fl.Config's T %% τπ == 0 rule).
func (t *Topology) AlignsWith(T int) error {
	if root := t.Levels[0].Tau; T%root != 0 {
		return fmt.Errorf("%w: T=%d is not a multiple of the root period τ=%d", ErrMisaligned, T, root)
	}
	return nil
}

// ThreeTier returns the paper's cloud/edge/worker tree for a run whose edge
// ℓ hosts workersPerEdge[ℓ] workers: edges aggregate every tau iterations
// and the cloud every tau·pi. Its node IDs are "cloud", "edge-ℓ", and
// "worker-ℓ-i". The result is not validated; callers validate it with the
// rest of their configuration.
func ThreeTier(workersPerEdge []int, tau, pi int) *Topology {
	t := &Topology{
		Levels: []Level{
			{Name: "cloud", Tau: tau * pi, Fanout: 1},
			{Name: "edge", Tau: tau, Fanout: len(workersPerEdge)},
			{Name: "worker", Tau: 1, Fanout: 1},
		},
		LeafCounts: append([]int(nil), workersPerEdge...),
	}
	t.normalize()
	return t
}

// WithRules returns a copy of t whose leaf-parent and root levels aggregate
// with the given rules; a plain-mean rule leaves that level's own rule in
// place. A level whose spec already names a different robust rule is an
// ErrAttr conflict, as are two different rules for the root of a depth-2
// tree (it is also the leaf-parent).
func (t *Topology) WithRules(leafParent, root robust.Spec) (*Topology, error) {
	out := &Topology{Levels: append([]Level(nil), t.Levels...), LeafCounts: t.LeafCounts}
	for _, r := range []struct {
		level int
		spec  robust.Spec
	}{{t.LeafParent(), leafParent}, {0, root}} {
		if !r.spec.Robust() {
			continue
		}
		lv := &out.Levels[r.level]
		if lv.Agg.Robust() && lv.Agg != r.spec {
			return nil, fmt.Errorf("%w: level %q aggregates with %s, conflicting with %s",
				ErrAttr, lv.Name, lv.Agg, r.spec)
		}
		lv.Agg = r.spec
	}
	return out, nil
}
