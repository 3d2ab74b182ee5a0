package exp

import (
	"fmt"

	"netfence"
)

// Fig9 regenerates Figure 9: the throughput ratio between legitimate
// users and attackers when compromised sender-receiver pairs collude to
// flood the network (or, equivalently, when victims fail to identify
// attack traffic). Each source AS is 25% legitimate users sending TCP to
// the victim and 75% attackers sending 1 Mbps UDP in regular packets to
// colluders spread over nine extra ASes. web selects the Figure 9(b)
// web-like workload instead of long-running TCP.
func Fig9(sc Scale, web bool) Result {
	variant, title := "a", "long-running TCP"
	if web {
		variant, title = "b", "web-like traffic"
	}
	res := Result{
		Name:    "Figure 9" + variant,
		Title:   "throughput ratio legit/attacker, colluding attacks, " + title,
		Columns: []string{"senders", "system", "ratio", "Jain legit", "legit kbps", "attacker kbps", "util"},
	}
	results := grid(sc, sc.Labels, sc.Compared(), func(label int, name string) netfence.Scenario {
		return fig9Cell(sc, label, name, web, 1)
	})
	for i, label := range sc.Labels {
		for _, r := range results[i] {
			res.AddRow(
				fmt.Sprintf("%dK", label/1000),
				r.Defense,
				fmt.Sprintf("%.2f", r.Ratio),
				fmt.Sprintf("%.2f", r.Jain),
				fmt.Sprintf("%.0f", r.UserBps/1000),
				fmt.Sprintf("%.0f", r.AttackerBps/1000),
				fmt.Sprintf("%.0f%%", 100*r.Utilization),
			)
		}
	}
	if web {
		res.Note("paper shape: NetFence ratio climbs ~0.3 to ~1 with senders (web demand cannot fill large fair shares); TVA+ lowest")
	} else {
		res.Note("paper shape: NetFence ~1; FQ/StopIt slightly below 1 (TCP-vs-DRR); TVA+ ~1/3 with 9 colluders; NetFence utilization >90%%")
	}
	return res
}

// fig9Roles splits each source AS 25% legitimate / 75% attackers.
func fig9Roles(senders int) (legit, attackers []int) {
	return roles(senders, func(perAS int) int { return (perAS + 3) / 4 })
}

// collusionDumbbell is the §6.3.2 dumbbell at a label: the scale's
// senders with colluding receivers spread over nine extra ASes.
func collusionDumbbell(sc Scale, label int) netfence.DumbbellSpec {
	return netfence.DumbbellSpec{Senders: sc.Senders, BottleneckBps: sc.BottleneckBps(label), ColluderASes: 9}
}

// fig9Cell is one Figure 9 cell with deployFrac of the source ASes
// running the defense (the rest pass traffic undefended) — the knob the
// incremental-deployment experiment sweeps. Colluding receivers do not
// identify attack traffic, so nobody is denied.
func fig9Cell(sc Scale, label int, name string, web bool, deployFrac float64) netfence.Scenario {
	legit, attackers := fig9Roles(sc.Senders)
	var users netfence.Workload = netfence.LongTCP{Senders: legit}
	if web {
		users = netfence.WebTraffic{Senders: legit}
	}
	return netfence.Scenario{
		Topology:   collusionDumbbell(sc, label),
		Defense:    netfence.Defense(name),
		Deployment: netfence.DeployFraction(deployFrac),
		Workloads:  []netfence.Workload{users, netfence.ColluderPairs{Senders: attackers}},
	}
}
