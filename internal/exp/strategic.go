package exp

import (
	"fmt"

	"netfence"
	"netfence/internal/attack"
)

// strategicLineup is the §6.3 adaptive-adversary lineup: every in-tree
// attack strategy, from the plain flood to the policer-aware shapes.
var strategicLineup = []string{"flood", "onoff-sync", "request-prio", "replay", "legacy-flood"}

// strategicNu is the assumed transport efficiency ν discounting the
// Theorem-1 rate-limit bound to a goodput floor (BoundProbe's default).
const strategicNu = attack.DefaultNu

// strategicFloor is the Theorem-1 goodput floor ν·ρ·C/(G+B) at a label.
func strategicFloor(sc Scale, label int) float64 {
	return strategicNu * netfence.TheoremBound(sc.BottleneckBps(label), sc.Senders)
}

// Strategic pits every in-tree attack strategy (the fixed
// strategicLineup, so the figure is reproducible regardless of what
// third parties register) against every compared defense on the §6.3.1
// dumbbell: 25% long-running TCP users against 75%
// attackers driving the strategy at colluding receivers. Each cell's
// legitimate goodput is compared with the Theorem-1 floor ν·ρ·C/(G+B) —
// the share the paper guarantees a legitimate sender keeps regardless of
// the attackers' strategy. The paper's claim, measured: NetFence clears
// the floor for every strategy, while the baselines (TVA+ against
// colluders foremost) fall below it under at least one.
func Strategic(sc Scale) Result {
	label := sc.Labels[0]
	floor := strategicFloor(sc, label)
	res := Result{
		Name: "Strategic attacks",
		Title: fmt.Sprintf("legit goodput vs the Theorem-1 floor ν·ρ·C/(G+B) = %.0f kbps (%dK senders)",
			floor/1000, label/1000),
		Columns: []string{"strategy", "system", "legit kbps", "attacker kbps", "floor kbps", "holds"},
	}
	results := strategicGrid(sc, label)
	for i, strat := range strategicLineup {
		for _, r := range results[i] {
			res.AddRow(
				strat,
				r.Defense,
				fmt.Sprintf("%.0f", r.UserBps/1000),
				fmt.Sprintf("%.0f", r.AttackerBps/1000),
				fmt.Sprintf("%.0f", floor/1000),
				fmt.Sprintf("%v", r.UserBps >= floor),
			)
		}
	}
	res.Note("Theorem 1 bounds the rate LIMIT at ρ·C/(G+B), ρ=(1-δ)³=%.3f; the goodput floor discounts it by an assumed TCP efficiency ν=%.1f", attack.TheoremBound(1, 1), strategicNu)
	res.Note("paper shape: NetFence holds the floor under every strategy; TVA+ falls below it against colluder floods (capabilities granted), and replay/legacy shapes are demoted to the request/legacy channels")
	return res
}

// strategicGrid runs every lineup strategy at its defaults against every
// compared system, indexed [strategy][system].
func strategicGrid(sc Scale, label int) [][]*netfence.Result {
	return grid(sc, strategicLineup, sc.Compared(), func(strat, name string) netfence.Scenario {
		return strategicCell(sc, label, name, strat)
	})
}

// strategicCell is one (strategy, system) cell: the fig9 collusion split
// with the attackers driven by the attack subsystem instead of static
// UDP sources — also the base scenario of the worst-case search.
func strategicCell(sc Scale, label int, name, strat string) netfence.Scenario {
	legit, attackers := fig9Roles(sc.Senders)
	return netfence.Scenario{
		Topology: collusionDumbbell(sc, label),
		Defense:  netfence.Defense(name),
		Workloads: []netfence.Workload{
			netfence.LongTCP{Senders: legit},
			netfence.AttackSpec{Strategy: strat, Senders: attackers, ToColluders: true, RateBps: 1_000_000},
		},
	}
}
