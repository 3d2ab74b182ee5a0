package netfence

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"netfence/internal/topo"
)

// equivScenario is the shared deterministic workload mix the sharded
// equivalence suite runs on every topology: long-running TCP users, a
// victim-bound UDP flood, and (where the topology offers colluders) the
// colluder-pair flood, under full NetFence deployment with the
// receiver deny policy — the paper's operating regime, which keeps the
// bottleneck congested so queue order, drops and feedback all matter.
func equivScenario(topoSpec TopologySpec, workloads []Workload, shards int) Scenario {
	return Scenario{
		Name:          "equiv",
		Seed:          7,
		Topology:      topoSpec,
		Defense:       Defense("netfence"),
		Workloads:     workloads,
		DenyAttackers: true,
		Duration:      30 * Second,
		Warmup:        10 * Second,
		Shards:        shards,
	}
}

func resultJSON(t *testing.T, sc Scenario) string {
	t.Helper()
	res, err := sc.Run()
	if err != nil {
		t.Fatalf("%s (shards=%d): %v", sc.Name, sc.Shards, err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
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

// diffJSON pinpoints the first divergence for debuggability.
func diffJSON(t *testing.T, name string, want, got string, shards int) {
	t.Helper()
	if want != got {
		t.Fatalf("%s: shards=%d diverged from the single engine %s", name, shards, divergence(want, got))
	}
}

// divergence shows where got first differs from want.
func divergence(want, got string) string {
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	lo := max(i-80, 0)
	return fmt.Sprintf("at byte %d:\nsingle: ...%s...\nsharded: ...%s...",
		i, want[lo:min(i+120, len(want))], got[lo:min(i+120, len(got))])
}

// TestShardedRace drives a small sharded scenario so `go test -race`
// exercises the mailbox handoff, the published clocks and per-shard meter
// ticking under the race detector. Kept unconditionally short.
func TestShardedRace(t *testing.T) {
	sc := equivScenario(
		DumbbellSpec{Senders: 8, BottleneckBps: 1_600_000, ColluderASes: 2},
		[]Workload{
			LongTCP{Senders: Range(0, 2)},
			UDPFlood{Senders: Range(2, 5)},
			ColluderPairs{Senders: Range(5, 8), RateBps: 1_000_000},
		}, 4)
	sc.Duration = 10 * Second
	sc.Warmup = 4 * Second
	sc.Probes = []Probe{GoodputProbe{}, FairnessProbe{}, FCTProbe{}, TimeseriesProbe{Interval: 2 * Second}}
	if _, err := sc.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestShardsFailFast pins the named-error contract: an explicit shard
// count beyond the AS count errors instead of silently clamping.
func TestShardsFailFast(t *testing.T) {
	sc := equivScenario(
		DumbbellSpec{Senders: 4, BottleneckBps: 1_000_000},
		[]Workload{LongTCP{Senders: Range(0, 4)}}, 64)
	_, err := sc.Run()
	if err == nil {
		t.Fatal("Shards=64 on a 6-AS topology should fail")
	}
	if !errors.Is(err, topo.ErrTooManyShards) {
		t.Fatalf("err = %v, want ErrTooManyShards", err)
	}
	sc.Shards = -5
	if _, err := sc.Run(); err == nil {
		t.Fatal("negative Shards should fail")
	}
}

// TestAutoShards resolves AutoShards to a valid clamped count and runs.
func TestAutoShards(t *testing.T) {
	sc := equivScenario(
		StarSpec{Senders: 6, BottleneckBps: 1_200_000},
		[]Workload{LongTCP{Senders: Range(0, 6)}}, AutoShards)
	sc.Duration = 6 * Second
	sc.Warmup = 2 * Second
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Senders != 6 {
		t.Fatalf("Senders = %d", res.Senders)
	}
}

// TestSweepShardsAxis pins the Sweep shards axis: cell naming, shard
// assignment, and byte-identical results across the axis for a
// deterministic scenario.
func TestSweepShardsAxis(t *testing.T) {
	base := equivScenario(
		DumbbellSpec{Senders: 8, BottleneckBps: 1_600_000, ColluderASes: 2},
		[]Workload{
			LongTCP{Senders: Range(0, 2)},
			ColluderPairs{Senders: Range(2, 8), RateBps: 1_000_000},
		}, 0)
	base.Duration = 12 * Second
	base.Warmup = 4 * Second
	sw := Sweep{Base: base, Shards: []int{1, 2, 4}}
	scs := sw.Scenarios()
	if len(scs) != 3 {
		t.Fatalf("expanded %d cells, want 3", len(scs))
	}
	for i, want := range []int{1, 2, 4} {
		if scs[i].Shards != want {
			t.Fatalf("cell %d Shards = %d, want %d", i, scs[i].Shards, want)
		}
	}
	if scs[1].Name != "equiv/netfence/n=8/shards=2/seed=7" {
		t.Fatalf("cell name = %q", scs[1].Name)
	}
	results, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	mk := func(r *Result) string {
		c := *r
		c.Scenario = ""
		raw, _ := json.Marshal(&c)
		return string(raw)
	}
	if mk(results[0]) != mk(results[1]) || mk(results[0]) != mk(results[2]) {
		t.Fatalf("shards axis results diverge:\n1: %s\n2: %s\n4: %s", mk(results[0]), mk(results[1]), mk(results[2]))
	}
}

// TestSweepShardsValidation pins fail-fast on a bad shards axis.
func TestSweepShardsValidation(t *testing.T) {
	base := equivScenario(DumbbellSpec{Senders: 4, BottleneckBps: 1_000_000},
		[]Workload{LongTCP{Senders: Range(0, 4)}}, 0)
	if _, err := (Sweep{Base: base, Shards: []int{0}}).Run(); err == nil {
		t.Fatal("Shards axis entry 0 should fail")
	}
	if _, err := (Sweep{Base: base, Shards: []int{-3}}).Run(); err == nil {
		t.Fatal("negative Shards axis entry should fail")
	}
}
