package experiment

import (
	"fmt"
	"math"

	"hieradmo/internal/cluster"
	"hieradmo/internal/fl"
	"hieradmo/internal/robust"
	"hieradmo/internal/telemetry"
	"hieradmo/internal/transport"
)

// byzantineColumns sweeps the attacker fraction left to right; the last
// column shows how many reports the robust rule actually excluded under
// the heaviest attack, cross-checked against the telemetry counters.
var byzantineColumns = []string{"clean", "20% flipped", "40% flipped", "rejected@40%"}

// ByzantineTopology is the robustness study's setup: ten workers over two
// edges, so 20% and 40% attacker fractions land as one and two attackers
// per five-worker cohort — an honest per-edge majority in both cases,
// which is the regime robust aggregation can defend.
func ByzantineTopology() []int { return []int{5, 5} }

// ByzantinePlan builds a sign-flip attack plan covering the given fraction
// of the topology's workers for the whole run. Attackers are assigned
// round-robin across edges (worker-0-0, worker-1-0, worker-0-1, ...) so no
// cohort is majority-attacked before the others; a zero fraction returns
// nil (no plan).
func ByzantinePlan(frac float64, edges []int, seed uint64) *robust.AttackPlan {
	total := 0
	for _, c := range edges {
		total += c
	}
	count := int(math.Round(frac * float64(total)))
	if count <= 0 {
		return nil
	}
	var attacks []robust.Attack
	for i := 0; len(attacks) < count; i++ {
		for l := range edges {
			if i < edges[l] && len(attacks) < count {
				attacks = append(attacks, robust.Attack{
					Node: cluster.WorkerID(l, i),
					Kind: robust.SignFlip,
					From: 1,
				})
			}
		}
	}
	return &robust.AttackPlan{Seed: seed, Attacks: attacks}
}

// RunByzantine sweeps sign-flip attacker fraction × aggregation rule: one
// row per aggregator (the undefended mean baseline, then the robust
// rules), one accuracy column per attacker fraction. Every run verifies
// that the attack report's injected/rejected totals match the telemetry
// counters exactly — the report is derived state and must never drift
// from the instruments.
func RunByzantine(s Scale) (*Table, error) {
	cfg, err := BuildConfig(Workload{
		Dataset: "mnist", Model: "logistic",
		Edges:            ByzantineTopology(),
		ClassesPerWorker: 2,
		Tau:              5, Pi: 2,
	}, s)
	if err != nil {
		return nil, fmt.Errorf("byzantine: %w", err)
	}
	fractions := []float64{0, 0.2, 0.4}

	// run executes one cell and returns the final accuracy plus the
	// rejected-report total, after cross-checking report vs counters.
	run := func(spec robust.Spec, plan *robust.AttackPlan) (*fl.Result, int, error) {
		reg := telemetry.NewRegistry()
		sink := telemetry.New(reg, nil)
		topo, err := cluster.DefaultTopology(cfg).WithRules(spec, spec)
		if err != nil {
			return nil, 0, err
		}
		net := transport.NewMemoryNetwork()
		defer net.Close()
		res, err := cluster.Run(cfg, net, cluster.Options{
			Adaptive:   true,
			Telemetry:  sink,
			AttackPlan: plan,
			Topology:   topo,
		})
		if err != nil {
			return nil, 0, err
		}
		var injected, rejected int
		if res.AttackReport != nil {
			injected = res.AttackReport.TotalInjected()
			rejected = res.AttackReport.TotalRejected()
		}
		if got := reg.Counter("fl_attack_injected_total").Value(); got != int64(injected) {
			return nil, 0, fmt.Errorf("injected count drift: report %d vs counter %d", injected, got)
		}
		if got := reg.Counter("fl_robust_rejected_total").Value(); got != int64(rejected) {
			return nil, 0, fmt.Errorf("rejected count drift: report %d vs counter %d", rejected, got)
		}
		return res, rejected, nil
	}

	tbl := &Table{
		Title: fmt.Sprintf("Byzantine — sign-flip attackers vs aggregation rule, logistic on MNIST, N=10 L=2, tau=%d pi=%d",
			cfg.Tau, cfg.Pi),
		Columns: byzantineColumns,
	}
	for _, spec := range []robust.Spec{
		{Kind: robust.Mean},
		{Kind: robust.Median},
		{Kind: robust.Trimmed, Trim: 0.4},
		{Kind: robust.Clip, Clip: 1},
		{Kind: robust.Cosine, CosMin: 0},
	} {
		cells := make([]string, 0, len(byzantineColumns))
		rejectedAtMax := 0
		for _, frac := range fractions {
			res, rejected, err := run(spec, ByzantinePlan(frac, ByzantineTopology(), s.Seed))
			if err != nil {
				return nil, fmt.Errorf("byzantine %s at %.0f%%: %w", spec, 100*frac, err)
			}
			cells = append(cells, Pct(res.FinalAcc))
			rejectedAtMax = rejected
		}
		cells = append(cells, fmt.Sprintf("%d", rejectedAtMax))
		tbl.AddRow(spec.String(), cells...)
	}
	return tbl, nil
}
