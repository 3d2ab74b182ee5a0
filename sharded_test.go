package netfence

import (
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
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

// diffJSON pinpoints the first divergence for debuggability.
func diffJSON(t *testing.T, name string, want, got string, shards int) {
	t.Helper()
	if want == got {
		return
	}
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	lo := i - 80
	if lo < 0 {
		lo = 0
	}
	hiW, hiG := i+120, i+120
	if hiW > len(want) {
		hiW = len(want)
	}
	if hiG > len(got) {
		hiG = len(got)
	}
	t.Fatalf("%s: shards=%d diverged from the single engine at byte %d:\nsingle: ...%s...\nsharded: ...%s...",
		name, shards, i, want[lo:hiW], got[lo:hiG])
}

// TestShardedEquivalenceTopologies is the golden-equivalence gate of
// the sharded executor: on each of the four in-tree topologies, the
// partitioned run must reproduce the single-engine Result JSON byte for
// byte at several shard counts.
func TestShardedEquivalenceTopologies(t *testing.T) {
	delayLowered := []Mutation{
		{At: 12 * Second, Link: &LinkMutation{Delay: 40 * Millisecond}},
		{At: 18 * Second, Link: &LinkMutation{Delay: 10 * Millisecond}},
		{At: 24 * Second, Link: &LinkMutation{Delay: 25 * Millisecond}},
		{At: 24*Second + 7*Millisecond, Link: &LinkMutation{Restore: true}},
	}
	cases := []struct {
		name      string
		spec      TopologySpec
		workloads []Workload
		shards    []int
		// timeline, when set, must make some cut link overtake itself:
		// arrivals minted under a lowered delay land ahead of ones still
		// in the destination's FIFO (HandoffStats.Keyed counts them).
		timeline []Mutation
	}{
		{
			name: "dumbbell",
			spec: DumbbellSpec{Senders: 20, BottleneckBps: 4_000_000, ColluderASes: 3},
			workloads: []Workload{
				LongTCP{Senders: Range(0, 5)},
				UDPFlood{Senders: Range(5, 12)},
				ColluderPairs{Senders: Range(12, 20), RateBps: 1_000_000},
			},
			shards: []int{2, 4, 8},
		},
		{
			// The star's bottleneck joins two ASes and is cut at both counts
			// (the dumbbell's and the parking lot's lie inside one AS and never
			// are). Its delay goes up to four lookaheads and back down to one
			// with the link backlogged, then up and down again 7 ms apart.
			name:      "star-delay-lowered",
			spec:      StarSpec{Senders: 16, BottleneckBps: 3_200_000, ColluderASes: 2},
			workloads: []Workload{LongTCP{Senders: Range(0, 4)}, UDPFlood{Senders: Range(4, 10)}},
			shards:    []int{2, 4},
			timeline:  delayLowered,
		},
		{
			name:      "random-as-delay-lowered",
			spec:      RandomASSpec{Senders: 20, BottleneckBps: 4_000_000, TransitASes: 4, ExtraLinks: 2, ColluderASes: 3, GraphSeed: 3},
			workloads: []Workload{LongTCP{Senders: Range(0, 5)}, UDPFlood{Senders: Range(5, 12)}},
			shards:    []int{2, 4},
			timeline:  delayLowered,
		},
		{
			name: "parking-lot",
			spec: ParkingLotSpec{SendersPerGroup: 10, L1Bps: 4_000_000, L2Bps: 2_000_000},
			workloads: []Workload{
				LongTCP{Group: 0, Senders: Range(0, 3)},
				UDPFlood{Group: 0, Senders: Range(3, 10)},
				LongTCP{Group: 1, Senders: Range(0, 3)},
				ColluderPairs{Group: 1, Senders: Range(3, 10), RateBps: 1_000_000},
				LongTCP{Group: 2, Senders: Range(0, 10)},
			},
			shards: []int{2, 4, 8},
		},
		{
			name: "star",
			spec: StarSpec{Senders: 16, BottleneckBps: 3_200_000, ColluderASes: 2},
			workloads: []Workload{
				LongTCP{Senders: Range(0, 4)},
				UDPFlood{Senders: Range(4, 10)},
				ColluderPairs{Senders: Range(10, 16), RateBps: 1_000_000},
			},
			shards: []int{2, 4},
		},
		{
			name: "random-as",
			spec: RandomASSpec{Senders: 20, BottleneckBps: 4_000_000, TransitASes: 4, ExtraLinks: 2, ColluderASes: 3, GraphSeed: 3},
			workloads: []Workload{
				LongTCP{Senders: Range(0, 5)},
				UDPFlood{Senders: Range(5, 12)},
				ColluderPairs{Senders: Range(12, 20), RateBps: 1_000_000},
			},
			shards: []int{2, 4, 8},
		},
		{
			// Clients that open flows mid-run: 319 transfers on one engine,
			// once none at 2 and 4 shards (per-replica flow counters).
			name:      "dumbbell-file-transfers",
			spec:      kindSpec,
			workloads: []Workload{FileTransfers{Senders: Range(0, 6)}, UDPFlood{Senders: Range(6, 12)}},
			shards:    []int{2, 4, 8},
		},
		{
			// Sizes and think times drawn mid-run: once 503 / 594 / 541 / 545
			// transfers at 1 / 2 / 4 / 8 shards (one engine stream per
			// replica).
			name:      "dumbbell-web",
			spec:      kindSpec,
			workloads: []Workload{WebTraffic{Senders: Range(0, 20)}},
			shards:    []int{2, 4, 8},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			run := func(shards int) (string, uint64) {
				sc := equivScenario(tc.spec, tc.workloads, shards)
				sc.Timeline = tc.timeline
				raw, in := runWithInstance(t, sc)
				var keyed uint64
				for _, n := range in.env.sh.nets {
					keyed += n.HandoffStats().Keyed
				}
				return raw, keyed
			}
			single, _ := run(1)
			for _, n := range tc.shards {
				got, keyed := run(n)
				diffJSON(t, tc.name, single, got, n)
				if (keyed > 0) != (tc.timeline != nil) {
					t.Errorf("%s: shards=%d: %d arrivals overtook their FIFO", tc.name, n, keyed)
				}
			}
		})
	}
}

// TestShardedEquivalenceFuzz sweeps seeds over the random-as topology
// (varying the traffic, not the wiring) and asserts identical Result
// JSON at shards 1, 2, 4 and 8 — the cross-shard determinism fuzz of
// the mailbox handoff. It also exercises the handoff under -race when
// the race job runs it.
func TestShardedEquivalenceFuzz(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		spec := RandomASSpec{Senders: 16, BottleneckBps: 3_200_000, TransitASes: 4, ExtraLinks: 1, ColluderASes: 2, GraphSeed: 2}
		wl := []Workload{
			LongTCP{Senders: Range(0, 4)},
			AttackSpec{Strategy: "onoff-sync", Senders: Range(4, 10), RateBps: 1_000_000},
			ColluderPairs{Senders: Range(10, 16), RateBps: 1_000_000},
		}
		sc := equivScenario(spec, wl, 1)
		sc.Seed = seed
		sc.Duration = 20 * Second
		sc.Warmup = 8 * Second
		single := resultJSON(t, sc)
		for _, n := range []int{2, 4, 8} {
			scn := sc
			scn.Shards = n
			got := resultJSON(t, scn)
			diffJSON(t, fmt.Sprintf("fuzz-seed%d", seed), single, got, n)
		}
	}
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

// TestShardIdentityLargeGraphSeed3 is the regression test of the
// model-derived event key: the 10,240-sender random-AS cell wired by
// graph seed 3 phase-locks same-instant transmission chains across cut
// links for longer than any fixed scheduling-history depth can resolve,
// and must still yield byte-identical Result JSON at every shard count.
func TestShardIdentityLargeGraphSeed3(t *testing.T) {
	if testing.Short() {
		t.Skip("10,240-sender cell; the topology suite covers short runs")
	}
	const pop = 10_240
	sc := Scenario{
		Name: "random-as-large", Seed: 1,
		Topology: RandomASSpec{
			Senders: pop, BottleneckBps: pop * 100_000,
			SrcASes: 32, ColluderASes: 9, GraphSeed: 3,
		},
		Defense: Defense("netfence"),
		Workloads: []Workload{
			LongTCP{Senders: Range(0, pop/4)},
			AttackSpec{Senders: Range(pop/4, pop), RateBps: 200_000, ToColluders: true},
		},
		Duration: 2 * Second, Warmup: Second,
	}
	single := resultJSON(t, sc)
	for _, n := range []int{2, 4} {
		sc.Shards = n
		diffJSON(t, sc.Name, single, resultJSON(t, sc), n)
	}
}

// TestShardIdentitySymmetricChains is the adversarial case for any
// ordering key built from scheduling history: eight source ASes whose
// saturated uplinks — the cut links — transmit back to back for the
// whole run, every completion phase-locked with the other seven, so the
// congested bottleneck sees eight simultaneous arrivals per packet time
// and their order decides who is dropped. Half the chains start ten
// packet times after the others (same phase, different history), and
// the late starters sit on both lower and higher shards than the early
// ones. The Result must not depend on the shard count.
func TestShardIdentitySymmetricChains(t *testing.T) {
	const pktTime = 12 * Millisecond // 1500 B at the 1 Mbps edge
	var early, late []int
	for as := 0; as < 8; as++ {
		hosts := []int{2 * as, 2*as + 1}
		if as%3 == 0 {
			late = append(late, hosts...)
		} else {
			early = append(early, hosts...)
		}
	}
	sc := Scenario{
		Name: "symmetric-chains", Seed: 1,
		Topology: DumbbellSpec{Senders: 16, SrcASes: 8, BottleneckBps: 4_000_000, EdgeBps: 1_000_000},
		Defense:  Defense("none"),
		Workloads: []Workload{
			AttackSpec{Senders: early, RateBps: 800_000},
			AttackSpec{Senders: late, RateBps: 800_000},
		},
		Timeline: []Mutation{
			{At: Millisecond, Attack: &AttackMutation{Workload: 1, Action: AttackStop}},
			{At: 10 * pktTime, Attack: &AttackMutation{Workload: 1, Action: AttackStart}},
		},
		Duration: 3 * Second, Warmup: Second,
	}
	single := resultJSON(t, sc)
	for _, n := range []int{2, 4, 8} {
		sc.Shards = n
		diffJSON(t, sc.Name, single, resultJSON(t, sc), n)
	}
}

// workloadKinds lists every type of this package with an
// attach(*scenarioEnv) method — every Workload — read from the source,
// so a kind added to workload.go cannot stay out of the table below.
func workloadKinds(t *testing.T) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, f := range pkgs["netfence"].Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Name.Name != "attach" {
				continue
			}
			if id, ok := fn.Recv.List[0].Type.(*ast.Ident); ok {
				kinds = append(kinds, id.Name)
			}
		}
	}
	return kinds
}

// kindSpec is equivScenario's twenty-sender dumbbell, the topology every
// kindTable row runs on.
var kindSpec = DumbbellSpec{Senders: 20, BottleneckBps: 4_000_000, ColluderASes: 3}

// kindTable holds one workload per kind, run alone over all twenty
// senders of kindSpec.
func kindTable() map[string]Workload {
	all := Range(0, 20)
	return map[string]Workload{
		"LongTCP":       LongTCP{Senders: all},
		"UDPFlood":      UDPFlood{Senders: all},
		"OnOffFlood":    OnOffFlood{Senders: all, On: 2 * Second, Off: 3 * Second},
		"ColluderPairs": ColluderPairs{Senders: all, RateBps: 1_000_000},
		"FleetSpec":     FleetSpec{Senders: all, Count: 200},
		"RequestFlood":  RequestFlood{Senders: all, Strategic: true},
		"AttackSpec":    AttackSpec{Senders: all, RateBps: 1_000_000},
		"FileTransfers": FileTransfers{Senders: all},
		"WebTraffic":    WebTraffic{Senders: all},
	}
}

// TestEveryWorkloadKindShardIdentity holds every Workload kind, under
// every registered defense, to the single engine's Result JSON byte for
// byte on two shards. Each kind runs alone over all twenty senders of
// equivScenario's dumbbell (10 s of it under -short), so no kind can
// cover for another. The one refusal is StopIt with the deny policy
// equivScenario sets: Build names the filter request a partitioned run
// cannot deliver.
func TestEveryWorkloadKindShardIdentity(t *testing.T) {
	table := kindTable()
	kinds := workloadKinds(t)
	if len(kinds) != len(table) {
		t.Errorf("the source declares %d workload kinds %v, the table holds %d", len(kinds), kinds, len(table))
	}
	for _, def := range Defenses() {
		for _, kind := range kinds {
			w, ok := table[kind]
			if !ok {
				t.Errorf("workload kind %s is missing from the table", kind)
				continue
			}
			if got, _, _ := w.span(); got != kind {
				t.Errorf("table row %s holds a %s", kind, got)
			}
			name := def + "/" + kind
			sc := equivScenario(kindSpec, []Workload{w}, 2)
			sc.Defense = Defense(def)
			if testing.Short() {
				sc.Duration, sc.Warmup = 10*Second, 4*Second
			}
			if def == "stopit" {
				if _, err := sc.Build(); !errors.Is(err, errShardedFilterRequest) || !strings.Contains(err.Error(), "filter request") {
					t.Errorf("%s with DenyAttackers on 2 shards: Build returned %v, want the filter-request refusal", name, err)
				}
				sc.DenyAttackers = false
			}
			single := sc
			single.Shards = 1
			diffJSON(t, name, resultJSON(t, single), resultJSON(t, sc), 2)
		}
	}
}
