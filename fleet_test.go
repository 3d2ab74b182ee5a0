package netfence

import (
	"encoding/json"
	"strings"
	"testing"
)

// fleetScenario is the shared scaffold for the fleet equivalence suite:
// a congested bottleneck with long-running TCP users so the policers,
// queues and feedback all matter, shortened relative to the sharded
// equivalence sweep to keep the multi-variant matrix fast.
func fleetScenario(topoSpec TopologySpec, workloads []Workload, shards int) Scenario {
	return Scenario{
		Name:          "fleet-equiv",
		Seed:          7,
		Topology:      topoSpec,
		Defense:       Defense("netfence"),
		Workloads:     workloads,
		DenyAttackers: true,
		Duration:      15 * Second,
		Warmup:        5 * Second,
		Shards:        shards,
	}
}

var fleetTopologies = []struct {
	name string
	spec TopologySpec
}{
	{"dumbbell", kindSpec},
	{"random-as", equivRandomAS},
}

// TestFleetExactMatchesIndividualHosts is the exact-fan-out contract:
// a FleetSpec with Exact set and Count == len(Senders) must be
// indistinguishable — byte-identical Result JSON, counters included —
// from the same senders attached as individual UDPFlood hosts, at
// every shard count.
func TestFleetExactMatchesIndividualHosts(t *testing.T) {
	for _, tc := range fleetTopologies {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			individual := []Workload{
				LongTCP{Senders: Range(0, 5)},
				UDPFlood{Senders: Range(5, 12)},
			}
			fleet := []Workload{
				LongTCP{Senders: Range(0, 5)},
				FleetSpec{Count: 7, Senders: Range(5, 12), Attacker: true, Exact: true},
			}
			want := resultJSON(t, fleetScenario(tc.spec, individual, 1))
			for _, n := range []int{1, 2, 4, 8} {
				got := resultJSON(t, fleetScenario(tc.spec, fleet, n))
				diffJSON(t, tc.name+"/fleet-exact", want, got, n)
			}
		})
	}
}

// TestFleetMidRunSnapshot drives an aggregate-fleet scenario through
// the live Instance surface — Build, Advance to mid-run, read the
// deterministic counters, Finish — and requires the final Result to be
// byte-identical to the scripted Run. Observing a fleet mid-flight
// must not perturb it.
func TestFleetMidRunSnapshot(t *testing.T) {
	workloads := []Workload{
		LongTCP{Senders: Range(0, 5)},
		FleetSpec{Count: 700, Senders: Range(5, 12), Attacker: true, RateBps: 20_000},
	}
	spec := fleetTopologies[0].spec
	for _, shards := range []int{1, 4} {
		want := resultJSON(t, fleetScenario(spec, workloads, shards))

		sc := fleetScenario(spec, workloads, shards)
		in, err := sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		in.Advance(sc.Duration / 2)
		mid := in.Counters()
		if got := mid["fleet_modeled_senders_total"]; got != 700 {
			t.Fatalf("shards=%d mid-run fleet_modeled_senders_total = %d, want 700", shards, got)
		}
		if mid["netsim_tx_packets_total"] == 0 {
			t.Fatalf("shards=%d mid-run snapshot shows no traffic", shards)
		}
		res := in.Finish()
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		diffJSON(t, "fleet-snapshot", want, string(raw), shards)
	}
}

// TestFleetDeployMutationForcesFanout covers the forced fan-out leg of
// the contract: a deployment mutation mid-run changes who polices each
// sender, so an un-Exact fleet with Count == len(Senders) must quietly
// materialize individual hosts and match UDPFlood under the same
// timeline, byte for byte.
func TestFleetDeployMutationForcesFanout(t *testing.T) {
	timeline := []Mutation{
		{At: 8 * Second, Deploy: &DeployMutation{Deployment: DeployFraction(0.5)}},
	}
	individual := []Workload{
		LongTCP{Senders: Range(0, 5)},
		UDPFlood{Senders: Range(5, 12)},
	}
	fleet := []Workload{
		LongTCP{Senders: Range(0, 5)},
		FleetSpec{Count: 7, Senders: Range(5, 12), Attacker: true},
	}
	spec := fleetTopologies[0].spec
	base := fleetScenario(spec, individual, 1)
	base.Timeline = timeline
	want := resultJSON(t, base)
	for _, n := range []int{1, 4} {
		sc := fleetScenario(spec, fleet, n)
		sc.Timeline = timeline
		got := resultJSON(t, sc)
		diffJSON(t, "fleet-deploy-fanout", want, got, n)
	}
}

// TestFleetValidation exercises the fail-fast surface of the
// aggregation contract: every malformed FleetSpec must be rejected at
// build time with the reason named.
func TestFleetValidation(t *testing.T) {
	deploy := []Mutation{
		{At: 8 * Second, Deploy: &DeployMutation{Deployment: DeployFraction(0.5)}},
	}
	cases := []struct {
		name     string
		fleet    FleetSpec
		timeline []Mutation
		wantErr  string
	}{
		{
			name:    "non-positive count",
			fleet:   FleetSpec{Count: 0, Senders: Range(5, 12)},
			wantErr: "Count must be positive",
		},
		{
			name:    "no attachment senders",
			fleet:   FleetSpec{Count: 7},
			wantErr: "no attachment senders",
		},
		{
			name:    "exact count mismatch",
			fleet:   FleetSpec{Count: 14, Senders: Range(5, 12), Exact: true},
			wantErr: "Exact is set",
		},
		{
			name:     "deploy mutation forbids aggregation",
			fleet:    FleetSpec{Count: 700, Senders: Range(5, 12)},
			timeline: deploy,
			wantErr:  "deployment mutations",
		},
		{
			name:    "uneven split",
			fleet:   FleetSpec{Count: 705, Senders: Range(5, 12)},
			wantErr: "does not divide evenly",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sc := fleetScenario(fleetTopologies[0].spec, []Workload{tc.fleet}, 1)
			sc.Timeline = tc.timeline
			_, err := sc.Run()
			if err == nil {
				t.Fatalf("Run succeeded, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}
