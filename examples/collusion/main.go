// Collusion: the §6.3.2 experiment in miniature. Half the senders are
// legitimate TCP users; half are attackers paired with colluding receivers
// that dutifully return congestion policing feedback, so capabilities
// alone cannot stop them. NetFence's guarantee is weaker but robust: the
// per-(sender, bottleneck) AIMD rate limiters give every sender —
// legitimate or malicious — the same fair share, with no per-host state
// at the bottleneck router.
//
// The scenario is declarative; Build (instead of Run) keeps a handle on
// the underlying topology and defense system for the final state-size
// introspection.
package main

import (
	"fmt"
	"log"

	"netfence"
)

func main() {
	const (
		senders    = 20
		bottleneck = 4_000_000 // 200 kbps fair share each
	)
	// Roles: a quarter of the senders are users (the paper uses a 25/75
	// split at 1000 senders; internal/exp reproduces that).
	users := netfence.Range(0, senders/4)
	attackers := netfence.Range(senders/4, senders)

	in, err := netfence.Scenario{
		Name:     "collusion",
		Seed:     9,
		Topology: netfence.DumbbellSpec{Senders: senders, BottleneckBps: bottleneck, ColluderASes: 9},
		Defense:  netfence.Defense("netfence"),
		Workloads: []netfence.Workload{
			netfence.LongTCP{Senders: users},
			netfence.ColluderPairs{Senders: attackers, RateBps: 1_000_000},
		},
		Duration: 240 * netfence.Second,
		Warmup:   120 * netfence.Second,
	}.Build()
	if err != nil {
		log.Fatal(err)
	}
	res := in.Run()

	fmt.Printf("senders: %d (%d users, %d attackers), fair share %.0f kbps\n",
		senders, len(users), len(attackers), float64(bottleneck)/senders/1000)
	fmt.Printf("avg user throughput:     %8.0f kbps\n", res.UserBps/1000)
	fmt.Printf("avg attacker throughput: %8.0f kbps\n", res.AttackerBps/1000)
	fmt.Printf("throughput ratio:        %8.2f   (paper: ~1)\n", res.Ratio)
	fmt.Printf("Jain index among users:  %8.2f   (paper: ~1)\n", res.Jain)

	// The scalability point: the bottleneck keeps no per-sender state;
	// each access router holds only its own senders' limiters. Instance
	// exposes the deployed system and the topology's Graph for this
	// introspection.
	if sys, ok := in.System.(*netfence.System); ok {
		total := 0
		for _, ra := range in.Graph.Groups()[0].Access {
			if ar := sys.Access(ra); ar != nil {
				total += ar.LimiterCount()
			}
		}
		fmt.Printf("rate limiters across access routers: %d (bottleneck router: none)\n", total)
	}
}
