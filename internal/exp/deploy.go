package exp

import (
	"fmt"

	"netfence"
)

// DeployFractions is the incremental-deployment sweep: the fraction of
// source ASes running the defense, from nobody to everybody.
var DeployFractions = []float64{0, 0.25, 0.5, 0.75, 1}

// deployCompared is the default lineup of the incremental-deployment
// study: the closed-loop system against the capability and fair-queuing
// baselines (StopIt's source filters are not meaningfully partial —
// filtering ASes must deploy by definition).
var deployCompared = []string{"netfence", "tva", "fq"}

// Deploy regenerates the incremental-deployment experiment: the
// legitimate/attacker throughput ratio of the §6.3.2 collusion scenario
// as a function of the fraction of source ASes deploying each defense.
// Undeployed ("legacy") ASes keep forwarding traffic, but their hosts
// run no shim and their access routers do not police — under NetFence
// their packets carry no congestion policing feedback, so the bottleneck
// demotes them to the best-effort legacy channel: the paper's
// deployment incentive, measured.
func Deploy(sc Scale) Result {
	label := sc.Labels[0]
	res := Result{
		Name:    "Incremental deployment",
		Title:   fmt.Sprintf("throughput ratio legit/attacker vs deployed source-AS fraction (%dK senders)", label/1000),
		Columns: []string{"deployed", "system", "ratio", "legit kbps", "attacker kbps", "util"},
	}
	systems := deployCompared
	if len(sc.Systems) > 0 {
		systems = sc.Compared()
	}
	results := grid(sc, DeployFractions, systems, func(f float64, name string) netfence.Scenario {
		return fig9Cell(sc, label, name, false, f)
	})
	for i, f := range DeployFractions {
		for _, r := range results[i] {
			res.AddRow(
				fmt.Sprintf("%.0f%%", 100*f),
				r.Defense,
				fmt.Sprintf("%.2f", r.Ratio),
				fmt.Sprintf("%.0f", r.UserBps/1000),
				fmt.Sprintf("%.0f", r.AttackerBps/1000),
				fmt.Sprintf("%.0f%%", 100*r.Utilization),
			)
		}
	}
	res.Note("legacy-AS traffic is demoted to best-effort at a NetFence bottleneck (§4.4): NetFence's ratio climbs monotonically with deployment toward the ~1 fair-share parity")
	res.Note("FQ polices per sender at the router alone, so it is deployment-insensitive; TVA+ stays broken at any fraction because colluding receivers grant capabilities regardless")
	res.Note("at 0%% every SOURCE AS is legacy; the bottleneck and destination side stay protected (they always deploy)")
	return res
}
