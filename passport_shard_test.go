package netfence

import (
	"encoding/json"
	"testing"

	"netfence/internal/core"
)

// passportCfg is DefaultConfig with Passport source authentication
// enabled: every protected bottleneck verifies the trailer's CMAC.
func passportCfg() core.Config {
	cfg := core.DefaultConfig()
	cfg.Passport = true
	return cfg
}

// runWithInstance runs a scenario and returns the Result JSON plus the
// finished Instance, for runtime-counter and Sharding introspection.
func runWithInstance(t *testing.T, sc Scenario) (string, *Instance) {
	t.Helper()
	in, err := sc.Build()
	if err != nil {
		t.Fatalf("%s (shards=%d): %v", sc.Name, sc.Shards, err)
	}
	raw, err := json.Marshal(in.Run())
	if err != nil {
		t.Fatal(err)
	}
	return string(raw), in
}

// TestPassportShardEquivalence is the byte-identity gate of sharded
// Passport runs: a handoff over a cut link is verified inline by the
// destination shard's bottleneck, exactly where the single engine
// verifies it, so the sharded Result JSON must equal the single
// engine's. The cases cover full deployment on the dumbbell and the
// random-AS graph, lookahead windows straddling access-router key
// rotations, and the forged-MAC adversary (stale replayed feedback,
// rogue legacy ASes that stamp nothing) under half deployment.
func TestPassportShardEquivalence(t *testing.T) {
	dumbbell := DumbbellSpec{Senders: 20, BottleneckBps: 4_000_000, ColluderASes: 3}
	mix := []Workload{
		LongTCP{Senders: Range(0, 5)},
		UDPFlood{Senders: Range(5, 12)},
		ColluderPairs{Senders: Range(12, 20), RateBps: 1_000_000},
	}
	full := func(spec TopologySpec, wl []Workload) func(shards int) Scenario {
		return func(shards int) Scenario {
			sc := equivScenario(spec, wl, shards)
			sc.Defense = DefenseSpec{Name: "netfence", Config: passportCfg()}
			return sc
		}
	}
	cases := []struct {
		name   string
		mk     func(shards int) Scenario
		shards []int
	}{
		{"dumbbell", full(dumbbell, mix), []int{2, 4, 8}},
		{
			"random-as",
			full(RandomASSpec{Senders: 20, BottleneckBps: 4_000_000, TransitASes: 4, ExtraLinks: 2, ColluderASes: 3, GraphSeed: 3}, mix),
			[]int{2, 4, 8},
		},
		{"key-rotation", func(shards int) Scenario {
			sc := full(dumbbell, mix)(shards)
			cfg := passportCfg()
			cfg.KeyRotate = 6 * Second // > WSec, several rotations inside the 30 s run
			sc.Defense.Config = cfg
			return sc
		}, []int{2, 4}},
		{"forged-mac", func(shards int) Scenario {
			sc := full(dumbbell, []Workload{
				LongTCP{Senders: Range(0, 5)},
				AttackSpec{Strategy: "replay", Senders: Range(5, 12), RateBps: 1_000_000},
				ColluderPairs{Senders: Range(12, 20), RateBps: 1_000_000},
			})(shards)
			sc.Deployment = DeployFraction(0.5) // rogue half: no shim, no stamps
			return sc
		}, []int{2, 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			single := resultJSON(t, tc.mk(1))
			for _, n := range tc.shards {
				diffJSON(t, tc.name, single, resultJSON(t, tc.mk(n)), n)
			}
		})
	}
}
