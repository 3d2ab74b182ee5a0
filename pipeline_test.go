package netfence

import (
	"encoding/json"
	"fmt"
	"testing"

	"netfence/internal/core"
)

// passportCfg is DefaultConfig with Passport source authentication
// enabled — the configuration under which the sharded validation
// pipeline has CMAC work to precompute.
func passportCfg() core.Config {
	cfg := core.DefaultConfig()
	cfg.Passport = true
	return cfg
}

// passportEquiv is equivScenario under Passport with an explicit
// pipeline mode.
func passportEquiv(spec TopologySpec, wl []Workload, shards int, pipe PipelineMode) Scenario {
	sc := equivScenario(spec, wl, shards)
	sc.Defense = DefenseSpec{Name: "netfence", Config: passportCfg()}
	sc.Pipeline = pipe
	return sc
}

// runWithInstance runs a scenario and returns the Result JSON plus the
// finished Instance, for runtime-counter and Sharding introspection.
func runWithInstance(t *testing.T, sc Scenario) (string, *Instance) {
	t.Helper()
	in, err := sc.Build()
	if err != nil {
		t.Fatalf("%s (shards=%d, pipeline=%v): %v", sc.Name, sc.Shards, sc.Pipeline, err)
	}
	raw, err := json.Marshal(in.Run())
	if err != nil {
		t.Fatal(err)
	}
	return string(raw), in
}

// pipelineEquivWorkloads is the shared workload mix of the pipeline
// equivalence suite (the same mix the sharded golden gate runs).
func pipelineEquivWorkloads() []Workload {
	return []Workload{
		LongTCP{Senders: Range(0, 5)},
		UDPFlood{Senders: Range(5, 12)},
		ColluderPairs{Senders: Range(12, 20), RateBps: 1_000_000},
	}
}

// TestPipelineEquivalence is the golden gate of the validation
// pipeline: on dumbbell and random-as under full Passport deployment,
// the sharded run with the pipeline on (auto), the sharded run with the
// pipeline off, and the single engine must produce byte-identical
// Result JSON at every shard count. The auto runs must actually
// precompute (counters prove the pipeline was exercised, not quietly
// disabled).
func TestPipelineEquivalence(t *testing.T) {
	cases := []struct {
		name   string
		spec   TopologySpec
		shards []int
	}{
		{
			name:   "dumbbell",
			spec:   DumbbellSpec{Senders: 20, BottleneckBps: 4_000_000, ColluderASes: 3},
			shards: []int{2, 4, 8},
		},
		{
			name:   "random-as",
			spec:   RandomASSpec{Senders: 20, BottleneckBps: 4_000_000, TransitASes: 4, ExtraLinks: 2, ColluderASes: 3, GraphSeed: 3},
			shards: []int{2, 4, 8},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			single := resultJSON(t, passportEquiv(tc.spec, pipelineEquivWorkloads(), 1, PipelineAuto))
			for _, n := range tc.shards {
				for _, pipe := range []PipelineMode{PipelineOff, PipelineAuto} {
					got, in := runWithInstance(t, passportEquiv(tc.spec, pipelineEquivWorkloads(), n, pipe))
					diffJSON(t, fmt.Sprintf("%s pipeline=%v", tc.name, pipe), single, got, n)
					on := pipe == PipelineAuto
					if in.Sharding == nil || in.Sharding.Pipeline != on {
						t.Fatalf("%s shards=%d: Sharding.Pipeline = %v, want %v", tc.name, n, in.Sharding.Pipeline, on)
					}
					rc := in.RuntimeCounters()
					if on && rc["pipeline_precompute_total"] == 0 {
						t.Fatalf("%s shards=%d: pipeline on but nothing precomputed: %v", tc.name, n, rc)
					}
					if on && rc["pipeline_precompute_hit_total"] == 0 {
						t.Fatalf("%s shards=%d: precomputed verdicts never consumed", tc.name, n)
					}
					if !on && rc["pipeline_validation_batch_total"] != 0 {
						t.Fatalf("%s shards=%d: pipeline off but batches ran", tc.name, n)
					}
				}
			}
		})
	}
}

// TestPipelineAutoMode pins the auto resolution: with Passport on, auto
// enables the pipeline; under the default config (Passport off) it
// stays off and byte-identity with the pre-pipeline executor holds by
// construction.
func TestPipelineAutoMode(t *testing.T) {
	spec := DumbbellSpec{Senders: 20, BottleneckBps: 4_000_000, ColluderASes: 3}
	single := resultJSON(t, passportEquiv(spec, pipelineEquivWorkloads(), 1, PipelineAuto))
	got, in := runWithInstance(t, passportEquiv(spec, pipelineEquivWorkloads(), 4, PipelineAuto))
	diffJSON(t, "auto+passport", single, got, 4)
	if !in.Sharding.Pipeline {
		t.Fatal("auto mode with Passport should enable the pipeline")
	}
	_, in = runWithInstance(t, equivScenario(spec, pipelineEquivWorkloads(), 4))
	if in.Sharding.Pipeline {
		t.Fatal("auto mode without Passport should keep the pipeline off")
	}
}

// TestPipelineKeyRotation shrinks KeyRotate so lookahead windows
// straddle access-router key rotations: the pipeline's Passport verdicts
// do not depend on those keys, so it keeps precomputing across every
// boundary and stays byte-identical to the single engine.
func TestPipelineKeyRotation(t *testing.T) {
	spec := DumbbellSpec{Senders: 20, BottleneckBps: 4_000_000, ColluderASes: 3}
	mk := func(shards int, pipe PipelineMode) Scenario {
		sc := equivScenario(spec, pipelineEquivWorkloads(), shards)
		cfg := passportCfg()
		cfg.KeyRotate = 6 * Second // > WSec, several rotations inside the 30 s run
		sc.Defense = DefenseSpec{Name: "netfence", Config: cfg}
		sc.Pipeline = pipe
		return sc
	}
	single := resultJSON(t, mk(1, PipelineAuto))
	for _, n := range []int{2, 4} {
		got, in := runWithInstance(t, mk(n, PipelineAuto))
		diffJSON(t, "rotation-straddle", single, got, n)
		if rc := in.RuntimeCounters(); rc["pipeline_precompute_total"] == 0 {
			t.Fatalf("shards=%d: key rotation disabled precompute: %v", n, rc)
		}
	}
}

// TestPipelineForgedMAC drives the forged-MAC adversary — the replay
// strategy presenting stale feedback plus rogue legacy ASes whose hosts
// run no shim (no valid stamps at all) — under partial deployment:
// the Passport verdicts precomputed for their packets must act exactly
// as inline verification does, byte for byte.
func TestPipelineForgedMAC(t *testing.T) {
	spec := DumbbellSpec{Senders: 20, BottleneckBps: 4_000_000, ColluderASes: 3}
	wl := []Workload{
		LongTCP{Senders: Range(0, 5)},
		AttackSpec{Strategy: "replay", Senders: Range(5, 12), RateBps: 1_000_000},
		ColluderPairs{Senders: Range(12, 20), RateBps: 1_000_000},
	}
	mk := func(shards int, pipe PipelineMode) Scenario {
		sc := passportEquiv(spec, wl, shards, pipe)
		sc.Deployment = DeployFraction(0.5) // rogue half: no shim, no stamps
		return sc
	}
	single := resultJSON(t, mk(1, PipelineAuto))
	for _, n := range []int{2, 4} {
		for _, pipe := range []PipelineMode{PipelineOff, PipelineAuto} {
			got, in := runWithInstance(t, mk(n, pipe))
			diffJSON(t, fmt.Sprintf("forged-mac pipeline=%v", pipe), single, got, n)
			if pipe == PipelineAuto && in.RuntimeCounters()["pipeline_validation_packet_total"] == 0 {
				t.Fatalf("shards=%d: pipeline on but examined no handoff packets", n)
			}
		}
	}
}

// TestPipelineRace is a short Passport-enabled pipeline run for the race
// detector: drain-phase workers making their own pair-key CMACs and
// writing packet-resident verdicts while the coordinator parks the
// shards.
func TestPipelineRace(t *testing.T) {
	sc := passportEquiv(
		DumbbellSpec{Senders: 8, BottleneckBps: 1_600_000, ColluderASes: 2},
		[]Workload{
			LongTCP{Senders: Range(0, 2)},
			UDPFlood{Senders: Range(2, 5)},
			ColluderPairs{Senders: Range(5, 8), RateBps: 1_000_000},
		}, 4, PipelineAuto)
	sc.Duration = 10 * Second
	sc.Warmup = 4 * Second
	if _, err := sc.Run(); err != nil {
		t.Fatal(err)
	}
}
