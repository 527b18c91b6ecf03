package analysis

// Policy decides which checkers run on which packages, and carries the
// checker-specific tables: the nilsink type list, the checkpoint-registry
// types ckptstate keys on, and the pinned allocation-free hot-path roots
// for allocfree. The zero policy runs nothing; DefaultPolicy encodes the
// repo's package table (documented in DESIGN.md §11 and §16).
type Policy struct {
	// Rules maps a checker name to the predicate deciding whether it runs
	// on a package import path. A missing entry disables the checker.
	Rules map[string]func(pkgPath string) bool
	// NilGuardTypes are the receiver type names whose pointer methods
	// nilsink requires to begin with a nil-receiver guard.
	NilGuardTypes []string
	// CkptRegistries names the registry types ("pkg/path.Type") whose
	// Vector/RNG/Int/Float/Dynamic methods are snapshot-registration
	// primitives for ckptstate.
	CkptRegistries []string
	// HotFuncs pins exact functions ("pkg/path.Func" or
	// "(*pkg/path.Type).Method", as types.Func.FullName renders them) as
	// allocation-free hot-path roots for allocfree.
	HotFuncs []string
	// HotIfaces pins interface methods ("pkg/path.Iface.Method"); every
	// loaded implementation becomes an allocfree root.
	HotIfaces []string
}

// Applies reports whether checker runs on the package at path.
func (p Policy) Applies(checker, path string) bool {
	rule, ok := p.Rules[checker]
	return ok && rule != nil && rule(path)
}

// anyPackage applies a checker everywhere.
func anyPackage(string) bool { return true }

// except applies a checker everywhere but the listed import paths.
func except(paths ...string) func(string) bool {
	return func(p string) bool {
		for _, x := range paths {
			if p == x {
				return false
			}
		}
		return true
	}
}

// only applies a checker to exactly the listed import paths.
func only(paths ...string) func(string) bool {
	return func(p string) bool {
		for _, x := range paths {
			if p == x {
				return true
			}
		}
		return false
	}
}

// DefaultPolicy is the repo's enforcement table for the module rooted at
// modulePath (normally "hieradmo"):
//
//   - detwall runs everywhere except internal/cluster and
//     internal/transport, whose receive timeouts and straggler deadlines
//     are wall-clock by design (failure detection cannot be deterministic).
//     Within internal/cluster the exemption is narrower than it looks:
//     deadline *arithmetic* (straggler grace, quorum horizons, interrupt
//     slicing) goes through the injectable cluster.Options.Clock seam, so
//     quorum-timing tests substitute a fake clock instead of scaling real
//     sleeps; only the actual socket waits and duration metrics read the
//     wall clock directly. New cluster code should reach for Options.now(),
//     not time.Now(), whenever the value feeds a deadline comparison;
//   - maporder runs everywhere: map iteration order must never reach a
//     float reduction, an ordered accumulation, or the trace;
//   - fporder runs everywhere except internal/parallel (the sanctioned
//     reducers): float reductions iterate slices or sorted keys in fixed
//     index order, never channel-receive order or goroutine fan-in;
//   - goexec runs everywhere except internal/parallel (the sanctioned
//     worker pool) and internal/cluster (the supervised node runtime);
//   - ckptstate runs everywhere: any struct registering state with
//     internal/checkpoint.Registry (directly or through fl.Checkpointer)
//     must register every mutable stateful field;
//   - allocfree runs everywhere; what it checks is pinned by the root
//     table below — the per-round worker steps and edge/tier update math
//     in internal/core and internal/cluster, the GEMM/conv kernels in
//     internal/tensor and internal/nn, the TCP frame encoder in
//     internal/transport, and every robust.Aggregator implementation.
//     The kernel packages carry no exemptions (enforcement pinned in
//     TestDefaultPolicyTable);
//   - wirealloc runs on the packages that decode wire or snapshot bytes;
//   - nilsink runs on internal/telemetry, over the instrument and sink
//     types whose nil fast path the hot loops rely on.
func DefaultPolicy(modulePath string) Policy {
	in := func(rel string) string {
		if rel == "" {
			return modulePath
		}
		return modulePath + "/" + rel
	}
	// Policy predicates see only module packages, so "everywhere" means
	// every package of this module.
	return Policy{
		Rules: map[string]func(string) bool{
			"detwall":   except(in("internal/cluster"), in("internal/transport")),
			"maporder":  anyPackage,
			"fporder":   except(in("internal/parallel")),
			"goexec":    except(in("internal/parallel"), in("internal/cluster")),
			"ckptstate": anyPackage,
			"allocfree": anyPackage,
			"wirealloc": only(
				in("internal/transport"),
				in("internal/persist"),
				in("internal/checkpoint"),
				in("internal/telemetry"),
				in("cmd/tracecat"),
			),
			"nilsink": only(in("internal/telemetry")),
		},
		NilGuardTypes:  []string{"Counter", "Gauge", "Histogram", "Sink", "Tracer"},
		CkptRegistries: []string{in("internal/checkpoint") + ".Registry"},
		HotFuncs: []string{
			// The per-round worker step and edge update: the simulation's
			// steady-state inner loops (slab arenas, PR 7).
			"(*" + in("internal/core") + ".workerState).step",
			"(*" + in("internal/core") + ".HierAdMo).edgeUpdate",
			// The distributed runtime's equivalents: the leaf's NAG step and
			// every tree node's per-round aggregation, which reads received
			// reports in place and computes its adaptation signals in node
			// scratch.
			"(*" + in("internal/cluster") + ".treeLeaf).step",
			"(*" + in("internal/cluster") + ".tierNode).update",
			// The GEMM kernels every dense/conv layer reduces to.
			in("internal/tensor") + ".GEMMBias",
			in("internal/tensor") + ".GEMMAddTransB",
			// The im2col conv kernels and the fused conv+ReLU fast path.
			"(*" + in("internal/nn") + ".Conv2D).Forward",
			"(*" + in("internal/nn") + ".Conv2D).Backward",
			"(*" + in("internal/nn") + ".convReLU).Forward",
			"(*" + in("internal/nn") + ".convReLU).Backward",
			// The TCP frame encoder runs once per message sent; its
			// per-connection buffer grows once and is then reused.
			"(*" + in("internal/transport") + ".frameWriter).encode",
		},
		HotIfaces: []string{
			// Every robust aggregation rule runs once per round per tier on
			// whole-cohort state: all implementations are pinned.
			in("internal/robust") + ".Aggregator.Aggregate",
		},
	}
}
