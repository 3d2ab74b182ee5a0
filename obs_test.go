package netfence

import (
	"slices"
	"strings"
	"testing"

	"netfence/internal/obs"
)

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
	flows := map[uint64]bool{}
	for _, ev := range events {
		flows[ev.Flow] = true
	}
	if len(flows) > 2 {
		t.Fatalf("trace covers %d flows, want at most 2 sampled", len(flows))
	}
	want := obs.SampleFlows(traced.Seed, in2.env.flows, 2)
	for f := range flows {
		if !slices.Contains(want, f) {
			t.Fatalf("flow %d recorded but not in the deterministic sample set", f)
		}
	}
}
