package netfence

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"sort"
	"testing"

	"netfence/internal/obs"
)

// kindGolden is one pinned single-engine run: the sha256 of its Result
// JSON, the events it executed and, when traced, the sha256 of its
// merged flight-recorder trace.
type kindGolden struct {
	Result string `json:"result_sha256"`
	Events uint64 `json:"events"`
	Trace  string `json:"trace_sha256,omitempty"`
}

// goldenTimelineScenario mixes every control-plane mutation kind with
// mid-run flows, a fanned-out fleet, sampled tracing and a timeseries on
// kindSpec's dumbbell.
func goldenTimelineScenario() Scenario {
	sc := equivScenario(kindSpec, []Workload{
		LongTCP{Senders: Range(0, 4)},
		FileTransfers{Senders: Range(4, 8)},
		AttackSpec{Senders: Range(8, 14), RateBps: 1_000_000},
		FleetSpec{Senders: Range(14, 17), Count: 3, Attacker: true},
		ColluderPairs{Senders: Range(17, 20), RateBps: 1_000_000},
	}, 0)
	sc.Timeline = []Mutation{
		{At: 6 * Second, Link: &LinkMutation{RateBps: 2_000_000}},
		{At: 9 * Second, Attack: &AttackMutation{Workload: 0, Action: AttackStop}},
		{At: 13 * Second, Attack: &AttackMutation{Workload: 0, Action: AttackStart}},
		{At: 15 * Second, Attack: &AttackMutation{Workload: 0, Action: AttackSetRate, RateBps: 500_000}},
		{At: 16 * Second, Deploy: &DeployMutation{Deployment: DeployFraction(0.5)}},
		{At: 22 * Second, Link: &LinkMutation{Restore: true}},
		{At: 25 * Second, Deploy: &DeployMutation{Deployment: FullDeployment()}},
	}
	sc.TraceFlows = 4
	sc.Probes = []Probe{GoodputProbe{}, FairnessProbe{}, FCTProbe{}, BoundProbe{}, TimeseriesProbe{Interval: 2 * Second}}
	return sc
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// runKindGolden runs sc and condenses it into its pinned form.
func runKindGolden(t *testing.T, sc Scenario) kindGolden {
	t.Helper()
	raw, in := runWithInstance(t, sc)
	g := kindGolden{Result: sha([]byte(raw)), Events: in.EventsExecuted()}
	if sc.TraceFlows > 0 {
		var buf bytes.Buffer
		if err := obs.WriteTraceJSON(&buf, in.Trace()); err != nil {
			t.Fatal(err)
		}
		g.Trace = sha(buf.Bytes())
	}
	return g
}

// TestSingleEngineKindGolden pins the single engine's bytes and event
// counts for every workload kind run alone (the rows of
// TestEveryWorkloadKindShardIdentity, FileTransfers and WebTraffic
// included), plus one run under a link, attack and deploy timeline with
// tracing and a timeseries. TestGraphGoldenEquivalence covers neither
// the file, web, fleet, request-flood and on-off kinds nor the control
// plane. After an intentional behavior change, rewrite the fixture with
//
//	NETFENCE_REGEN_GOLDEN=1 go test -run TestSingleEngineKindGolden .
func TestSingleEngineKindGolden(t *testing.T) {
	got := map[string]kindGolden{}
	table := kindTable()
	kinds := make([]string, 0, len(table))
	for kind := range table {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		got[kind] = runKindGolden(t, equivScenario(kindSpec, []Workload{table[kind].w}, 0))
	}
	got["timeline"] = runKindGolden(t, goldenTimelineScenario())

	const path = "testdata/kind_golden.json"
	if os.Getenv("NETFENCE_REGEN_GOLDEN") != "" {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("regenerated " + path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]kindGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("the fixture pins %d runs, the test made %d", len(want), len(got))
	}
	for name, g := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: not in the fixture", name)
		} else if g != w {
			t.Errorf("%s diverged from the pinned single-engine run:\ngot  %+v\nwant %+v", name, g, w)
		}
	}
}
