package exp

import (
	"fmt"

	"netfence"
	"netfence/internal/defense"
)

// Fig8 regenerates Figure 8: the average transfer time of a 20 KB file
// when the targeted victim can identify and wishes to remove the attack
// traffic. One legitimate user per source AS repeatedly sends the file
// over fresh TCP connections; every other sender attacks with the most
// effective flood against the deployed system (§6.3.1): request floods at
// the strategic priority level against NetFence, request floods against
// TVA+, and direct UDP floods against StopIt (which filters them) and FQ
// (which cannot).
func Fig8(sc Scale) Result {
	res := Result{
		Name:    "Figure 8",
		Title:   "mean 20 KB file transfer time under unwanted-traffic flooding",
		Columns: []string{"senders", "system", "mean FCT (s)", "p95 (s)", "completion", "transfers"},
	}
	results := grid(sc, sc.Labels, sc.Compared(), func(label int, name string) netfence.Scenario {
		return fig8Cell(sc, label, name)
	})
	for i, label := range sc.Labels {
		for _, r := range results[i] {
			fct := r.FCT
			res.AddRow(
				fmt.Sprintf("%dK", label/1000),
				r.Defense,
				fmt.Sprintf("%.2f", fct.MeanSec),
				fmt.Sprintf("%.2f", fct.P95Sec),
				fmt.Sprintf("%.0f%%", 100*fct.Completion),
				fmt.Sprintf("%d", fct.Count+fct.Failed),
			)
		}
	}
	res.Note("paper shape: StopIt < TVA+ < NetFence (+~1 s request backoff), 100%% completion for all three")
	res.Note("FQ grows linearly with senders until each flow's share of the 0.2 s buffer falls under one packet; past that (small scale's 200K row: 75,000 B over 60 flows) TCP timeouts dominate its FCT and completion")
	return res
}

// roles splits a DumbbellSpec's senders into index lists, AS by AS: the
// first users(perAS) hosts of every source AS are legitimate, the rest
// attack. perAS follows DumbbellSpec's default layout — the most source
// ASes, at most 10, that divide the population evenly.
func roles(senders int, users func(perAS int) int) (legit, attackers []int) {
	ases := min(10, senders)
	for senders%ases != 0 {
		ases--
	}
	perAS := senders / ases
	for i := 0; i < senders; i++ {
		if i%perAS < users(perAS) {
			legit = append(legit, i)
		} else {
			attackers = append(attackers, i)
		}
	}
	return legit, attackers
}

// fig8Roles makes the first host of each source AS the legitimate user
// (the paper's one-user-per-AS stress setup).
func fig8Roles(senders int) (legit, attackers []int) {
	return roles(senders, func(int) int { return 1 })
}

func fig8Cell(sc Scale, label int, name string) netfence.Scenario {
	legit, attackers := fig8Roles(sc.Senders)
	var flood netfence.Workload
	switch defense.Canonical(name) {
	case "netfence":
		flood = netfence.RequestFlood{Senders: attackers, Strategic: true}
	case "tva":
		// TVA+'s request channel has no priority levels; flood flat.
		flood = netfence.RequestFlood{Senders: attackers}
	default:
		flood = netfence.UDPFlood{Senders: attackers}
	}
	return netfence.Scenario{
		Topology:      netfence.DumbbellSpec{Senders: sc.Senders, BottleneckBps: sc.BottleneckBps(label)},
		Defense:       netfence.Defense(name),
		Workloads:     []netfence.Workload{netfence.FileTransfers{Senders: legit}, flood},
		DenyAttackers: true,
	}
}
