package netfence

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// timelineScenario is the time-varying equivalence workload: the
// dumbbell mix under partial deployment, with a timeline exercising
// every mutation kind — link degradation and restoration, attack stop
// and restart, deployment fresh-arm, disarm and re-arm — across the
// simulated half hour.
func timelineScenario(shards int) Scenario {
	sc := equivScenario(
		DumbbellSpec{Senders: 20, BottleneckBps: 4_000_000, ColluderASes: 3},
		[]Workload{
			LongTCP{Senders: Range(0, 5)},
			AttackSpec{Strategy: "flood", Senders: Range(5, 12)},
			ColluderPairs{Senders: Range(12, 20), RateBps: 1_000_000},
		},
		shards,
	)
	sc.Name = "timeline"
	sc.Deployment = DeployFraction(0.5)
	sc.Probes = []Probe{GoodputProbe{}, FairnessProbe{}, FCTProbe{}, TimeseriesProbe{Interval: 5 * Second}}
	sc.Timeline = []Mutation{
		{At: 12 * Second, Link: &LinkMutation{Bottleneck: 0, RateBps: 2_000_000}},
		{At: 14 * Second, Attack: &AttackMutation{Workload: 0, Action: AttackStop}},
		{At: 16 * Second, Deploy: &DeployMutation{Deployment: FullDeployment()}},
		{At: 18 * Second, Attack: &AttackMutation{Workload: 0, Action: AttackStart}},
		{At: 20 * Second, Deploy: &DeployMutation{Deployment: DeployFraction(0.5)}},
		{At: 22 * Second, Attack: &AttackMutation{Workload: 0, Action: AttackSetRate, RateBps: 2_000_000}},
		{At: 24 * Second, Link: &LinkMutation{Bottleneck: 0, Restore: true}},
		{At: 26 * Second, Deploy: &DeployMutation{Deployment: FullDeployment()}},
	}
	return sc
}

// TestTimelineSegmentationInvariance checks that a segmented run — the
// serve mode's execution shape, advancing in small steps with the same
// mutations applied at the same instants through Instance.Apply — is
// byte-identical to the scripted Run. Event order must depend only on
// the event keys, never on where the window boundaries fall.
func TestTimelineSegmentationInvariance(t *testing.T) {
	want := resultJSON(t, timelineScenario(4))

	sc := timelineScenario(4)
	timeline := sc.Timeline
	sc.Timeline = nil
	in, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for at := Time(0); at < sc.Duration; at += Second {
		in.Advance(at)
		for next < len(timeline) && timeline[next].At == at {
			if err := in.Apply(timeline[next]); err != nil {
				t.Fatalf("Apply at %v: %v", at, err)
			}
			next++
		}
		// The live stream reads the merged series at every control
		// point; doing so must not perturb the run.
		in.Series()
	}
	if next != len(timeline) {
		t.Fatalf("applied %d of %d mutations", next, len(timeline))
	}
	res := in.Finish()
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	diffJSON(t, "timeline-segmented", want, string(raw), 4)
}

// TestSegmentedSeriesAcrossShards drives the serve mode's scenario job
// the way the job runner does — the 32-sender dumbbell, LongTCP on
// 0–8, a flood from 8–32 to the colluders, 10 s with a 1 s timeseries,
// advanced in 1 s segments with Series and Counters read at every
// control point — and holds every mid-run series, and the final Result,
// to the one-shard bytes at 2 and 4 shards. A second Series read at the
// same point must return the same samples, not duplicates.
func TestSegmentedSeriesAcrossShards(t *testing.T) {
	job := func(shards int) (series []string, result string) {
		sc := Scenario{
			Name:     "job",
			Seed:     1,
			Topology: DumbbellSpec{Senders: 32, BottleneckBps: 3_200_000, ColluderASes: 2},
			Workloads: []Workload{
				LongTCP{Senders: Range(0, 8)},
				AttackSpec{Senders: Range(8, 32), RateBps: 1_000_000, ToColluders: true},
			},
			Probes:   []Probe{GoodputProbe{}, FairnessProbe{}, FCTProbe{}, TimeseriesProbe{Interval: Second}},
			Duration: 10 * Second,
			Warmup:   5 * Second,
			Shards:   shards,
		}
		in, err := sc.Build()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		// The stream sends samples, so an empty series compares equal
		// whether it is nil or not.
		read := func() []byte {
			raw, err := json.Marshal(append([]Sample(nil), in.Series()...))
			if err != nil {
				t.Fatal(err)
			}
			return raw
		}
		for at := Second; at < sc.Duration; at += Second {
			in.Advance(at)
			first := read()
			in.Counters()
			again := read()
			if string(again) != string(first) {
				t.Fatalf("shards=%d at %v: a repeat Series read changed it:\n%s\n%s", shards, at, first, again)
			}
			series = append(series, string(first))
		}
		raw, err := json.Marshal(in.Finish())
		if err != nil {
			t.Fatal(err)
		}
		return series, string(raw)
	}
	wantSeries, want := job(1)
	if !strings.Contains(want, `"Series":[{`) {
		t.Fatalf("the job collected no timeseries: %s", want)
	}
	for _, shards := range []int{2, 4} {
		series, got := job(shards)
		for i := range wantSeries {
			diffJSON(t, fmt.Sprintf("series after %d s", i+1), wantSeries[i], series[i], shards)
		}
		diffJSON(t, "job", want, got, shards)
	}
}

// TestTimelineValidation exercises the fail-fast surface: structural
// errors are caught at Build, referential ones against the built
// topology, and the sharded cut-link lookahead bound on live Apply.
func TestTimelineValidation(t *testing.T) {
	base := func() Scenario {
		return Scenario{
			Name:     "tl-validate",
			Seed:     1,
			Topology: DumbbellSpec{Senders: 4, BottleneckBps: 1_000_000},
			Workloads: []Workload{
				LongTCP{Senders: Range(0, 4)},
			},
			Duration: 10 * Second,
			Warmup:   5 * Second,
		}
	}
	cases := []struct {
		name string
		m    Mutation
		want string
	}{
		{"empty", Mutation{At: Second}, "exactly one"},
		{"two-kinds", Mutation{At: Second, Link: &LinkMutation{RateBps: 1}, Attack: &AttackMutation{Action: AttackStop}}, "exactly one"},
		{"zero-at", Mutation{Link: &LinkMutation{RateBps: 1}}, "At must be positive"},
		{"late-at", Mutation{At: 11 * Second, Link: &LinkMutation{RateBps: 1}}, "beyond the scenario Duration"},
		{"no-effect", Mutation{At: Second, Link: &LinkMutation{}}, "no effect"},
		{"bad-bottleneck", Mutation{At: Second, Link: &LinkMutation{Bottleneck: 3, RateBps: 1}}, "out of range"},
		{"bad-workload", Mutation{At: Second, Attack: &AttackMutation{Workload: 0, Action: AttackStop}}, "out of range"},
		{"bad-action", Mutation{At: Second, Attack: &AttackMutation{Action: "explode"}}, "unknown action"},
		{"neg-rate", Mutation{At: Second, Attack: &AttackMutation{Action: AttackSetRate, RateBps: -1}}, "negative"},
		{"bad-deploy", Mutation{At: Second, Deploy: &DeployMutation{Deployment: DeployFraction(1.5)}}, "outside [0, 1]"},
	}
	for _, tc := range cases {
		sc := base()
		sc.Timeline = []Mutation{tc.m}
		_, err := sc.Build()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Build error = %v, want substring %q", tc.name, err, tc.want)
		}
	}

	// Valid timelines sort stably by instant.
	sc := base()
	sc.Timeline = []Mutation{
		{At: 4 * Second, Link: &LinkMutation{RateBps: 500_000}},
		{At: 2 * Second, Link: &LinkMutation{RateBps: 250_000}},
	}
	in, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	tl := in.timeline
	if len(tl) != 2 || tl[0].At != 2*Second || tl[1].At != 4*Second {
		t.Fatalf("timeline = %+v, want sorted by At", tl)
	}

	// Apply after Finish is rejected; Advance is a no-op.
	in.Run()
	if err := in.Apply(Mutation{At: Second, Link: &LinkMutation{RateBps: 1}}); err == nil {
		t.Fatal("Apply on a finished instance succeeded")
	}
	in.Advance(20 * Second)

	// The sharded cut-link delay bound: the star's bottleneck (the
	// access uplink) crosses ASes, so it is a cut link at 2 shards, and
	// a lookahead-violating delay on it is rejected.
	shardSc := base()
	shardSc.Topology = StarSpec{Senders: 4, BottleneckBps: 1_000_000, ColluderASes: 1}
	shardSc.Shards = 2
	sin, err := shardSc.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer sin.Run()
	err = sin.Apply(Mutation{At: Second, Link: &LinkMutation{Delay: Millisecond / 10}})
	if err == nil || !strings.Contains(err.Error(), "lookahead") {
		t.Fatalf("cut-link delay below lookahead: err = %v, want lookahead violation", err)
	}
}

// TestSweepTimelineAxis expands a sweep over the timeline axis and
// checks cell naming, per-cell Timeline assignment, the Progress hook,
// and that the axis validates its mutations up front.
func TestSweepTimelineAxis(t *testing.T) {
	base := Scenario{
		Name:     "tlsweep",
		Seed:     3,
		Topology: DumbbellSpec{Senders: 4, BottleneckBps: 1_000_000},
		Workloads: []Workload{
			LongTCP{Senders: Range(0, 4)},
		},
		Duration: 6 * Second,
		Warmup:   2 * Second,
	}
	sw := Sweep{
		Base: base,
		Timelines: []NamedTimeline{
			{Name: "static"},
			{Name: "degrade", Timeline: []Mutation{
				{At: 3 * Second, Link: &LinkMutation{Bottleneck: 0, RateBps: 500_000}},
			}},
		},
		Seeds: []uint64{3, 4},
	}
	scs := sw.Scenarios()
	if len(scs) != 4 {
		t.Fatalf("expanded %d cells, want 4", len(scs))
	}
	if want := "tlsweep/netfence/n=4/timeline=static/seed=3"; scs[0].Name != want {
		t.Errorf("cell 0 name = %q, want %q", scs[0].Name, want)
	}
	if want := "tlsweep/netfence/n=4/timeline=degrade/seed=4"; scs[3].Name != want {
		t.Errorf("cell 3 name = %q, want %q", scs[3].Name, want)
	}
	if len(scs[0].Timeline) != 0 || len(scs[2].Timeline) != 1 {
		t.Errorf("timeline assignment wrong: static=%d degrade=%d", len(scs[0].Timeline), len(scs[2].Timeline))
	}

	var calls atomic.Int32
	var lastDone atomic.Int32
	sw.Progress = func(done, total int, cell string) {
		calls.Add(1)
		lastDone.Store(int32(done))
		if total != 4 || cell == "" {
			t.Errorf("Progress(done=%d, total=%d, cell=%q)", done, total, cell)
		}
	}
	results, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 4 || lastDone.Load() != 4 {
		t.Errorf("Progress: %d calls, final done %d, want 4/4", calls.Load(), lastDone.Load())
	}
	for i, r := range results {
		if r == nil {
			t.Fatalf("cell %d missing", i)
		}
	}
	// The degraded cells must differ from their static siblings.
	a, _ := json.Marshal(results[0])
	b, _ := json.Marshal(results[2])
	if string(a) == string(b) {
		t.Error("degrade timeline produced an identical result to the static cell")
	}

	// Invalid timeline mutations fail fast, before any cell runs.
	bad := sw
	bad.Progress = nil
	bad.Timelines = []NamedTimeline{{Name: "bad", Timeline: []Mutation{{}}}}
	if _, err := bad.Run(); err == nil || !strings.Contains(err.Error(), "exactly one") {
		t.Errorf("invalid timeline axis: err = %v", err)
	}
}

// TestSweepRunContextCancel checks the interrupt contract: a cancelled
// sweep returns completed cells, leaves the rest nil, and joins the
// context error.
func TestSweepRunContextCancel(t *testing.T) {
	base := Scenario{
		Name:     "cancel",
		Seed:     1,
		Topology: DumbbellSpec{Senders: 4, BottleneckBps: 1_000_000},
		Workloads: []Workload{
			LongTCP{Senders: Range(0, 4)},
		},
		Duration: 6 * Second,
		Warmup:   2 * Second,
	}
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int32
	// One worker, so the cells after the cancel are never started.
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	sw := Sweep{
		Base:  base,
		Seeds: []uint64{1, 2, 3, 4, 5, 6, 7, 8},
		Progress: func(d, total int, cell string) {
			if done.Add(1) == 2 {
				cancel() // after two cells, interrupt
			}
		},
	}
	results, err := sw.RunContext(ctx)
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("cancelled sweep error = %v, want interrupted", err)
	}
	completed := 0
	for _, r := range results {
		if r != nil {
			completed++
		}
	}
	if completed < 2 || completed >= len(results) {
		t.Errorf("completed %d of %d cells after cancel at 2", completed, len(results))
	}
}

// TestAdvanceAppliesScriptedTimeline drives a scripted Timeline the way
// the serve runner does — Advance in 3 s steps, the series read at every
// control point, then Finish — and holds it to Run's bytes on two
// shards. Two mutations share an instant inside a step, and one sits at
// exactly Duration, which only Finish reaches.
func TestAdvanceAppliesScriptedTimeline(t *testing.T) {
	cell := func() Scenario {
		sc := equivScenario(kindSpec, []Workload{
			LongTCP{Senders: Range(0, 8)},
			AttackSpec{Senders: Range(8, 20), RateBps: 1_000_000},
		}, 2)
		sc.Probes = []Probe{GoodputProbe{}, FairnessProbe{}, TimeseriesProbe{Interval: Second}}
		sc.Timeline = []Mutation{
			{At: 13 * Second, Link: &LinkMutation{Bottleneck: 0, RateBps: 2_000_000}},
			{At: 30 * Second, Link: &LinkMutation{Bottleneck: 0, Restore: true}},
			{At: 13 * Second, Attack: &AttackMutation{Workload: 0, Action: AttackStop}},
		}
		return sc
	}
	want := resultJSON(t, cell())

	sc := cell()
	in, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	for at := 3 * Second; at < sc.Duration; at += 3 * Second {
		in.Advance(at)
		in.Series()
	}
	raw, err := json.Marshal(in.Finish())
	if err != nil {
		t.Fatal(err)
	}
	diffJSON(t, "advance-scripted", want, string(raw), 2)
}
