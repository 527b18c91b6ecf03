package fl

import (
	"fmt"
	"sort"
	"strings"
)

// AttackReport records a distributed run's Byzantine scenario: how many
// adversarial updates were injected (by attack kind) and what the robust
// aggregation layer did about them, attributed to the aggregation tree's
// tier indices (0 = root; in the paper's three-tier tree 0 is the cloud and
// 1 the edges). A nil AttackReport on a Result means the robust layer never
// engaged — no attack plan and plain mean aggregation at every tier.
type AttackReport struct {
	// Injected maps an attack kind (signflip, scale, noise, replay) to
	// the number of boundary reports it mutated.
	Injected map[string]int `json:",omitempty"`
	// RejectedByTier maps a tier index to the number of child reports its
	// robust aggregations excluded (non-finite values or cosine-filter
	// outliers).
	RejectedByTier map[int]int `json:",omitempty"`
	// ClippedByTier maps a tier index to the number of child updates its
	// robust aggregations norm-clipped before averaging.
	ClippedByTier map[int]int `json:",omitempty"`
	// TierAggregators lists the canonical rule name per aggregating tier
	// (e.g. "median", "trimmed(0.2)"), root first.
	TierAggregators []string `json:",omitempty"`
}

// TotalInjected sums the injected-update counts over all attack kinds.
func (a *AttackReport) TotalInjected() int {
	if a == nil {
		return 0
	}
	n := 0
	for _, c := range a.Injected {
		n += c
	}
	return n
}

// TotalRejected sums the rejections across all tiers.
func (a *AttackReport) TotalRejected() int {
	if a == nil {
		return 0
	}
	n := 0
	for _, c := range a.RejectedByTier {
		n += c
	}
	return n
}

// TotalClipped sums the clips across all tiers.
func (a *AttackReport) TotalClipped() int {
	if a == nil {
		return 0
	}
	n := 0
	for _, c := range a.ClippedByTier {
		n += c
	}
	return n
}

// Any reports whether the run saw at least one injection, rejection, or
// clip.
func (a *AttackReport) Any() bool {
	if a == nil {
		return false
	}
	return len(a.Injected) > 0 || a.TotalRejected() > 0 || a.TotalClipped() > 0
}

// String renders a human-readable summary.
func (a *AttackReport) String() string {
	if a == nil {
		return "no attack scenario"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "byzantine: tier aggregators %s", strings.Join(a.TierAggregators, "/"))
	if len(a.Injected) > 0 {
		kinds := make([]string, 0, len(a.Injected))
		for k := range a.Injected {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		parts := make([]string, len(kinds))
		for i, k := range kinds {
			parts[i] = fmt.Sprintf("%s(×%d)", k, a.Injected[k])
		}
		fmt.Fprintf(&b, "\n  injected updates (%d total): %s", a.TotalInjected(), strings.Join(parts, " "))
	}
	if len(a.RejectedByTier) > 0 {
		fmt.Fprintf(&b, "\n  rejected updates by tier: %s", formatByTier(a.RejectedByTier))
	}
	if len(a.ClippedByTier) > 0 {
		fmt.Fprintf(&b, "\n  clipped updates by tier: %s", formatByTier(a.ClippedByTier))
	}
	return b.String()
}

// formatByTier renders a tier-indexed counter map in ascending tier order
// (map iteration order is not deterministic).
func formatByTier(m map[int]int) string {
	tiers := make([]int, 0, len(m))
	for i := range m {
		tiers = append(tiers, i)
	}
	sort.Ints(tiers)
	parts := make([]string, len(tiers))
	for j, i := range tiers {
		parts[j] = fmt.Sprintf("tier%d(×%d)", i, m[i])
	}
	return strings.Join(parts, " ")
}
