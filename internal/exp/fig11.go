package exp

import (
	"fmt"

	"netfence"
)

// Fig11 regenerates Figure 11: average user throughput under microscopic
// on-off attacks. Users run long TCP; attackers send synchronized 1 Mbps
// bursts with on-period Ton and off-period Toff. The emulated population
// is 100K senders (each fair share 100 kbps as if attackers were always
// on); the claim is that no burst shape depresses users below that.
func Fig11(sc Scale) Result {
	res := Result{
		Name:    "Figure 11",
		Title:   "avg user throughput (kbps) under synchronized on-off attacks, 100K senders",
		Columns: []string{"Toff (s)", "Ton=0.5s", "Ton=4s"},
	}
	toffs := []netfence.Time{1500 * netfence.Millisecond, 10 * netfence.Second, 50 * netfence.Second, 100 * netfence.Second}
	if sc.Name == "tiny" {
		toffs = []netfence.Time{1500 * netfence.Millisecond, 50 * netfence.Second}
	}
	tons := []netfence.Time{500 * netfence.Millisecond, 4 * netfence.Second}
	results := grid(sc, toffs, tons, func(toff, ton netfence.Time) netfence.Scenario {
		return fig11Cell(sc, ton, toff)
	})
	for i, toff := range toffs {
		res.AddRow(
			fmt.Sprintf("%.1f", toff.Seconds()),
			fmt.Sprintf("%.0f", results[i][0].UserBps/1000),
			fmt.Sprintf("%.0f", results[i][1].UserBps/1000),
		)
	}
	res.Note("paper shape: >=100 kbps everywhere (fair share with always-on attackers), climbing toward ~400 kbps as Toff grows")
	return res
}

// fig11Cell is the collusion dumbbell at a 100 kbps fair share with
// every attacker bursting in phase: synchronized on-off floods.
func fig11Cell(sc Scale, ton, toff netfence.Time) netfence.Scenario {
	legit, attackers := fig9Roles(sc.Senders)
	return netfence.Scenario{
		Topology: collusionDumbbell(sc, 100_000),
		Workloads: []netfence.Workload{
			netfence.LongTCP{Senders: legit},
			netfence.OnOffFlood{Senders: attackers, On: ton, Off: toff, ToColluders: true},
		},
	}
}
