package netfence

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"netfence/internal/obs"
)

// obsSnapshots runs sc with tracing enabled and returns three
// deterministic byte strings: the counter snapshot at a mid-run Advance
// boundary, the final Result counter snapshot, and the merged trace
// JSON. JSON map marshaling sorts keys, so equal maps yield equal
// bytes.
func obsSnapshots(t *testing.T, sc Scenario) (mid, end, trace string) {
	t.Helper()
	sc.TraceFlows = 4
	in, err := sc.Build()
	if err != nil {
		t.Fatalf("%s (shards=%d): %v", sc.Name, sc.Shards, err)
	}
	defer in.Stop()

	in.Advance(sc.Duration / 2)
	midRaw, err := json.Marshal(in.Counters())
	if err != nil {
		t.Fatal(err)
	}

	res := in.Finish()
	endRaw, err := json.Marshal(res.Counters)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := obs.WriteTraceJSON(&buf, in.Trace()); err != nil {
		t.Fatal(err)
	}
	return string(midRaw), string(endRaw), buf.String()
}

// TestObsDeterminismAcrossShards is the observability analogue of the
// sharded equivalence gate: the deterministic counter plane and the
// sampled flight-recorder trace must be byte-identical at shards 1, 2,
// 4 and 8 — including a counter snapshot taken at a mid-run Advance
// boundary, so the guarantee holds for live-steered runs, not just
// completed ones.
func TestObsDeterminismAcrossShards(t *testing.T) {
	cases := []struct {
		name      string
		spec      TopologySpec
		workloads []Workload
	}{
		{
			name: "dumbbell",
			spec: DumbbellSpec{Senders: 20, BottleneckBps: 4_000_000, ColluderASes: 3},
			workloads: []Workload{
				LongTCP{Senders: Range(0, 5)},
				UDPFlood{Senders: Range(5, 12)},
				ColluderPairs{Senders: Range(12, 20), RateBps: 1_000_000},
			},
		},
		{
			name: "random-as",
			spec: RandomASSpec{Senders: 20, BottleneckBps: 4_000_000, TransitASes: 4, ExtraLinks: 2, ColluderASes: 3, GraphSeed: 3},
			workloads: []Workload{
				LongTCP{Senders: Range(0, 5)},
				UDPFlood{Senders: Range(5, 12)},
				ColluderPairs{Senders: Range(12, 20), RateBps: 1_000_000},
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			mid1, end1, trace1 := obsSnapshots(t, equivScenario(tc.spec, tc.workloads, 1))
			if mid1 == "{}" || end1 == "{}" {
				t.Fatalf("%s: empty counter snapshot (mid=%s end=%s)", tc.name, mid1, end1)
			}
			if trace1 == "[\n]\n" {
				t.Fatalf("%s: empty trace with TraceFlows=4", tc.name)
			}
			for _, n := range []int{2, 4, 8} {
				mid, end, trace := obsSnapshots(t, equivScenario(tc.spec, tc.workloads, n))
				diffJSON(t, tc.name+"/mid-counters", mid1, mid, n)
				diffJSON(t, tc.name+"/end-counters", end1, end, n)
				diffJSON(t, tc.name+"/trace", trace1, trace, n)
			}
		})
	}
}

// TestResultCountersPlane pins the plane split: the deterministic
// snapshot in Result.Counters must not carry runtime-plane series
// (per-shard event counts, handoff traffic, keyring rotations —
// anything whose value depends on the shard count or wall-clock
// scheduling), and every key must resolve to a registered metric.
func TestResultCountersPlane(t *testing.T) {
	runtime := map[string]bool{}
	for _, d := range obs.Catalog() {
		if d.Runtime {
			runtime[d.Name] = true
		}
	}
	sc := equivScenario(
		DumbbellSpec{Senders: 8, BottleneckBps: 1_600_000, ColluderASes: 2},
		[]Workload{
			LongTCP{Senders: Range(0, 2)},
			UDPFlood{Senders: Range(2, 5)},
			ColluderPairs{Senders: Range(5, 8), RateBps: 1_000_000},
		}, 2)
	sc.Duration = 10 * Second
	sc.Warmup = 4 * Second
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Counters) == 0 {
		t.Fatal("Result.Counters is empty")
	}
	known := map[string]bool{}
	for _, d := range obs.Catalog() {
		known[d.Name] = true
	}
	for k := range res.Counters {
		base := k
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		for _, suf := range []string{"_bucket", "_count", "_sum"} {
			if b := strings.TrimSuffix(base, suf); b != base && known[b] {
				base = b
				break
			}
		}
		if !known[base] {
			t.Errorf("Result.Counters key %q has no registered metric", k)
		}
		if runtime[base] {
			t.Errorf("runtime-plane metric %q leaked into the deterministic snapshot", k)
		}
	}
}

// TestTraceSampling pins pay-for-what-you-sample: with TraceFlows unset
// no recorder exists and Trace is empty; with TraceFlows=n only sampled
// flows appear, and the sample set is a deterministic function of the
// seed.
func TestTraceSampling(t *testing.T) {
	sc := equivScenario(
		DumbbellSpec{Senders: 8, BottleneckBps: 1_600_000, ColluderASes: 2},
		[]Workload{
			LongTCP{Senders: Range(0, 4)},
			UDPFlood{Senders: Range(4, 8)},
		}, 1)
	sc.Duration = 10 * Second
	sc.Warmup = 4 * Second

	in, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	in.Finish()
	if got := in.Trace(); len(got) != 0 {
		t.Fatalf("TraceFlows=0 recorded %d events", len(got))
	}
	in.Stop()

	traced := sc
	traced.TraceFlows = 2
	in2, err := traced.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer in2.Stop()
	in2.Finish()
	events := in2.Trace()
	if len(events) == 0 {
		t.Fatal("TraceFlows=2 recorded no events")
	}
	flows := map[uint32]bool{}
	for _, ev := range events {
		flows[ev.Flow] = true
	}
	if len(flows) > 2 {
		t.Fatalf("trace covers %d flows, want at most 2 sampled", len(flows))
	}
	want := obs.SampleFlows(traced.Seed, int(in2.Net.FlowSeq()), 2)
	for f := range flows {
		if int(f) >= len(want) || !want[f] {
			t.Fatalf("flow %d recorded but not in the deterministic sample set", f)
		}
	}
}
