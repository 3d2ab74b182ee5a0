package netfence

import "testing"

// buildJobShape is the scenario of one serve-jobs job: a 32-sender
// dumbbell with two colluder ASes, LongTCP from the first quarter and a
// flood from the rest to the colluders, 10 s long with a 1 s timeseries
// (what internal/server makes of the benchmark's job spec).
func buildJobShape() Scenario {
	n := 32
	return Scenario{
		Name: "job", Seed: 1,
		Topology: DumbbellSpec{Senders: n, BottleneckBps: int64(n) * 100_000, ColluderASes: 2},
		Workloads: []Workload{
			LongTCP{Senders: Range(0, n/4)},
			AttackSpec{Senders: Range(n/4, n), RateBps: 1_000_000, ToColluders: true},
		},
		Duration: 10 * Second, Warmup: 5 * Second,
		Probes: []Probe{GoodputProbe{}, FairnessProbe{}, FCTProbe{}, TimeseriesProbe{Interval: Second}},
	}
}

// buildRandomAS is the large cell's shape at 1,024 senders.
func buildRandomAS(shards int) Scenario {
	n := 1024
	return Scenario{
		Name: "random-as", Seed: 1,
		Topology: RandomASSpec{Senders: n, BottleneckBps: int64(n) * 100_000, SrcASes: 32, ColluderASes: 9, GraphSeed: 1},
		Workloads: []Workload{
			LongTCP{Senders: Range(0, n/4)},
			AttackSpec{Senders: Range(n/4, n), RateBps: 200_000, ToColluders: true},
		},
		Duration: 2 * Second, Warmup: Second,
		Shards: shards,
	}
}

// TestBuildAllocs pins what Build allocates. Nodes, host stacks, link
// pairs, egress slots, shims, attack senders, goodput meters and UDP
// sinks are carved from slabs their owners reserve, so a Build allocates
// per entity kind, and per sender only for the transports: a new
// per-entity allocation in Build fails this test, and so does an access
// router that makes its maps before it polices anyone. Each pin is a
// ceiling one above the count measured (324, 1,645 and 1,862): the runtime
// itself allocates now and then during a run, and a sharded Build's
// goroutines allocate or reuse runtime state. The race detector's
// sync.Pool drops make the counts vary more than that.
func TestBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	for _, tc := range []struct {
		name string
		sc   Scenario
		want float64
	}{
		{"serve-jobs job", buildJobShape(), 325},
		{"random-as 1024, 1 shard", buildRandomAS(1), 1646},
		{"random-as 1024, 2 shards", buildRandomAS(2), 1863},
	} {
		got := testing.AllocsPerRun(10, func() {
			in, err := tc.sc.Build()
			if err != nil {
				t.Fatal(err)
			}
			in.Stop()
		})
		if got > tc.want {
			t.Errorf("%s: Build allocates %.0f times, want %.0f", tc.name, got, tc.want)
		}
	}
}
