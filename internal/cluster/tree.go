package cluster

import (
	"fmt"

	"hieradmo/internal/dataset"
	"hieradmo/internal/fl"
	"hieradmo/internal/membership"
	"hieradmo/internal/rng"
	"hieradmo/internal/topology"
)

// nodeAt addresses one tree node: its level and its index within the level.
type nodeAt struct{ lvl, idx int }

// treeSpec is the precomputed shape of a run, shared by every node: the
// validated topology, every node's ID and explicit child list, the training
// leaves' shards, the per-epoch child weights, and each level's resolved
// momentum configuration. It is pure derived data — building one performs no
// I/O and every process of a multi-process deployment derives the identical
// spec from the shared config and options.
type treeSpec struct {
	topo *topology.Topology
	cfg  *fl.Config
	// alg names the run Result: "HierAdMo/cluster" on the config-derived
	// tree, "HierAdMo/tree" on an explicit Options.Topology, with the
	// HierAdMo-R prefix when the leaf-parent does not adapt γℓ.
	alg string
	// ids[i][j] is the transport ID of node j of level i; at is its inverse.
	ids [][]string
	at  map[string]nodeAt
	// parent[i][j] is the parent index of node j of level i >= 1 (a leaf's
	// natal parent under dynamic membership).
	parent [][]int
	// children[i][j] lists the level-i+1 indices under node j of aggregating
	// level i in the static tree.
	children [][][]int
	// shards holds the training leaves' datasets, cfg.Edges flattened in
	// order: an explicit topology regroups the same shards under its fanout.
	shards []*dataset.Dataset
	// layouts holds the tree's child lists and weights per membership epoch
	// (exactly one for static runs); memb is nil for static runs.
	layouts []layout
	memb    *membState
	// gamma[i]/adapt[i] are level i's resolved momentum factor and
	// adaptive-γℓ toggle; momentum[i] marks levels that execute the
	// Algorithm 1 line-13 momentum update at all. Non-momentum levels
	// (γℓ = 0, not adaptive) keep the plain-average arithmetic of the cloud,
	// bit for bit.
	gamma    []float64
	adapt    []bool
	momentum []bool
}

// layout is the tree during one membership epoch.
type layout struct {
	// children[i][j] lists the children of node j of aggregating level i.
	// Only the leaf-parent row changes between epochs; the rows above are
	// shared with the static tree.
	children [][][]int
	// weights[i][j][c] is the data weight of child c under node j of level
	// i: the child subtree's live sample count over the node's. At the
	// leaf-parent these are exactly the harness WorkerWeights (D(i,ℓ)/Dℓ),
	// and at the root of the three-tier tree exactly the EdgeWeights (Dℓ/D),
	// so the tree aggregates with the simulation's coefficients bit for bit.
	weights [][][]float64
}

// DefaultTopology returns the tree a run executes when Options.Topology is
// nil: the paper's cloud/edge/worker hierarchy over cfg.Edges, with edges
// aggregating every Tau iterations and the cloud every Tau·Pi.
func DefaultTopology(cfg *fl.Config) *topology.Topology {
	counts := make([]int, len(cfg.Edges))
	for l, edge := range cfg.Edges {
		counts[l] = len(edge)
	}
	return topology.ThreeTier(counts, cfg.Tau, cfg.Pi)
}

// newTreeSpec resolves the run's tree: opts.Topology, or the three-tier
// tree derived from cfg.Edges, Tau and Pi when it is nil.
func newTreeSpec(cfg *fl.Config, opts Options) (*treeSpec, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo, alg := opts.Topology, "/tree"
	if topo == nil {
		topo, alg = DefaultTopology(cfg), "/cluster"
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if err := topo.AlignsWith(cfg.T); err != nil {
		return nil, err
	}
	if topo.NumLeaves() != cfg.NumWorkers() {
		return nil, fmt.Errorf("cluster: topology %q has %d leaves for %d configured workers",
			topo, topo.NumLeaves(), cfg.NumWorkers())
	}
	ts := &treeSpec{topo: topo, cfg: cfg, at: make(map[string]nodeAt, topo.NumNodes())}
	depth, lp := topo.Depth(), topo.LeafParent()
	ts.ids = make([][]string, depth)
	ts.parent = make([][]int, depth)
	ts.children = make([][][]int, depth-1)
	for i := range ts.ids {
		ts.ids[i] = make([]string, topo.Width(i))
		ts.parent[i] = make([]int, topo.Width(i))
		for j := range ts.ids[i] {
			id := topo.NodeID(i, j)
			ts.ids[i][j] = id
			ts.at[id] = nodeAt{i, j}
		}
		if i == 0 {
			continue
		}
		ts.children[i-1] = make([][]int, topo.Width(i-1))
		for p := range ts.children[i-1] {
			lo, hi := topo.Children(i-1, p)
			for c := lo; c < hi; c++ {
				ts.children[i-1][p] = append(ts.children[i-1][p], c)
				ts.parent[i][c] = p
			}
		}
	}
	for _, edge := range cfg.Edges {
		ts.shards = append(ts.shards, edge...)
	}

	ts.gamma = make([]float64, depth-1)
	ts.adapt = make([]bool, depth-1)
	ts.momentum = make([]bool, depth-1)
	for i := 0; i < depth-1; i++ {
		lv := topo.Levels[i]
		if lv.HasGamma {
			ts.gamma[i] = lv.Gamma
		} else if i == lp {
			ts.gamma[i] = cfg.GammaEdge
		}
		if i == lp {
			if lv.HasAdapt {
				ts.adapt[i] = lv.Adapt
			} else {
				ts.adapt[i] = opts.Adaptive
			}
		}
		ts.momentum[i] = ts.adapt[i] || ts.gamma[i] != 0
	}
	ts.alg = "HierAdMo" + alg
	if !ts.adapt[lp] {
		ts.alg = "HierAdMo-R" + alg
	}

	memb, err := newMembership(ts, opts)
	if err != nil {
		return nil, err
	}
	ts.memb = memb
	if memb == nil {
		l, err := ts.newLayout(ts.children[lp])
		if err != nil {
			return nil, err
		}
		ts.layouts = []layout{l}
		return ts, nil
	}
	for k := 1; k <= memb.sched.K; k++ {
		if memb.sched.EpochIndex(k) < len(ts.layouts) {
			continue
		}
		cohorts := make([][]int, topo.Width(lp))
		for p, refs := range memb.sched.EpochAt(k).Cohorts {
			for _, ref := range refs {
				cohorts[p] = append(cohorts[p], ts.leafOf(ref))
			}
		}
		l, err := ts.newLayout(cohorts)
		if err != nil {
			return nil, err
		}
		ts.layouts = append(ts.layouts, l)
	}
	return ts, nil
}

// newLayout builds the tree's weights for one assignment of leaves to
// leaf-parents. Subtree sample counts are summed as integers, leaves up, so
// every weight is one exact integer ratio.
func (ts *treeSpec) newLayout(cohorts [][]int) (layout, error) {
	depth, lp := ts.depth(), ts.leafParent()
	l := layout{children: make([][][]int, depth-1), weights: make([][][]float64, depth-1)}
	copy(l.children, ts.children)
	l.children[lp] = cohorts
	sizes := make([][]int, depth)
	sizes[depth-1] = make([]int, len(ts.shards))
	for j, shard := range ts.shards {
		sizes[depth-1][j] = shard.Len()
	}
	for i := depth - 2; i >= 0; i-- {
		sizes[i] = make([]int, len(l.children[i]))
		l.weights[i] = make([][]float64, len(l.children[i]))
		for j, kids := range l.children[i] {
			for _, c := range kids {
				sizes[i][j] += sizes[i+1][c]
			}
			if sizes[i][j] == 0 {
				return layout{}, fmt.Errorf("cluster: topology node %s covers no samples", ts.ids[i][j])
			}
			w := make([]float64, len(kids))
			for c, child := range kids {
				w[c] = float64(sizes[i+1][child]) / float64(sizes[i][j])
			}
			l.weights[i][j] = w
		}
	}
	return l, nil
}

func (ts *treeSpec) depth() int      { return ts.topo.Depth() }
func (ts *treeSpec) leafParent() int { return ts.topo.LeafParent() }
func (ts *treeSpec) tau(i int) int   { return ts.topo.Levels[i].Tau }

// leafRound converts round k of level i into the leaf-parent round that
// closes it, the clock membership epochs are indexed by.
func (ts *treeSpec) leafRound(i, k int) int { return k * ts.tau(i) / ts.tau(ts.leafParent()) }

// layoutAt returns the tree as it stands during round k of level i.
func (ts *treeSpec) layoutAt(i, k int) *layout {
	if ts.memb == nil {
		return &ts.layouts[0]
	}
	return &ts.layouts[ts.memb.sched.EpochIndex(ts.leafRound(i, k))]
}

// ref is leaf j's membership identity: its natal parent and its position
// among that parent's (contiguous) children.
func (ts *treeSpec) ref(j int) membership.Ref {
	p := ts.parent[ts.depth()-1][j]
	return membership.Ref{Edge: p, Index: j - ts.children[ts.leafParent()][p][0]}
}

// leafOf is the inverse of ref.
func (ts *treeSpec) leafOf(r membership.Ref) int {
	return ts.children[ts.leafParent()][r.Edge][r.Index]
}

// leafSampler keys training leaf j's mini-batch stream by its natal (parent,
// position) coordinates, the harness's (edge, worker) keying: the
// three-tier tree reproduces the simulation's exact batch sequences.
func (ts *treeSpec) leafSampler(j int) *rng.RNG {
	r := ts.ref(j)
	return fl.WorkerSampler(ts.cfg.Seed, r.Edge, r.Index)
}
