// Onoff: the §6.3.2 strategic-attack study (Figure 11). Attackers send
// synchronized on-off bursts, hoping to congest the link with aligned
// spikes while keeping their average rate low. NetFence's leaky-bucket
// rate limiters (a queue, not a token bucket — §4.3.3) and the two-
// control-interval L-down hysteresis (§4.3.4) make the shape of attack
// traffic irrelevant: users keep at least the fair share they would get
// if the attackers were always on, and reclaim bandwidth as the off
// period grows.
//
// Each off-period is one declarative Scenario; RunAll drives them all
// concurrently, one engine per scenario.
package main

import (
	"fmt"
	"log"

	"netfence"
)

func scenario(toff netfence.Time) netfence.Scenario {
	return netfence.Scenario{
		Name:     fmt.Sprintf("onoff/toff=%.1fs", toff.Seconds()),
		Seed:     11,
		Topology: netfence.DumbbellSpec{Senders: 8, BottleneckBps: 800_000, ColluderASes: 2}, // 100 kbps fair share
		Defense:  netfence.Defense("netfence"),
		Workloads: []netfence.Workload{
			// 2 users, 6 synchronized on-off attackers.
			netfence.LongTCP{Senders: netfence.Range(0, 2)},
			netfence.OnOffFlood{
				Senders: netfence.Range(2, 8), RateBps: 1_000_000,
				On: 500 * netfence.Millisecond, Off: toff, ToColluders: true,
			},
		},
		Duration: 210 * netfence.Second,
		Warmup:   90 * netfence.Second,
	}
}

func main() {
	toffs := []netfence.Time{
		1500 * netfence.Millisecond,
		10 * netfence.Second,
		50 * netfence.Second,
	}
	var scs []netfence.Scenario
	for _, toff := range toffs {
		scs = append(scs, scenario(toff))
	}
	results, err := netfence.RunAll(scs...)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Ton = 0.5s, synchronized bursts; fair share (attackers always on) = 100 kbps")
	fmt.Println("Toff(s)  avg user throughput (kbps)")
	for i, res := range results {
		fmt.Printf("%6.1f  %10.0f\n", toffs[i].Seconds(), res.UserBps/1000)
	}
	fmt.Println("\nno burst shape depresses users below the always-on fair share;")
	fmt.Println("longer silences hand the bandwidth back to TCP (paper Figure 11).")
}
