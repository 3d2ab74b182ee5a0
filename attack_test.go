package netfence_test

import (
	"reflect"
	"strings"
	"testing"

	"netfence"
)

// attackBase is a small collusion scenario with an adaptive attacker
// side: one group, 1 user + 3 attackers aimed at colluding receivers.
func attackBase(strategy string) netfence.Scenario {
	return netfence.Scenario{
		Name:     "strategic",
		Seed:     1,
		Topology: netfence.DumbbellSpec{Senders: 4, BottleneckBps: 800_000, ColluderASes: 2},
		Defense:  netfence.Defense("netfence"),
		Workloads: []netfence.Workload{
			netfence.LongTCP{Senders: []int{0}},
			netfence.AttackSpec{Strategy: strategy, Senders: netfence.Range(1, 4), ToColluders: true},
		},
		Duration: 60 * netfence.Second,
		Warmup:   30 * netfence.Second,
	}
}

// TestAttackRegistryListing checks every in-tree strategy resolves in
// the root registry surface.
func TestAttackRegistryListing(t *testing.T) {
	names := netfence.Attacks()
	if len(names) < 5 {
		t.Fatalf("registry lists %d strategies, want >= 5: %v", len(names), names)
	}
	for _, want := range []string{"flood", "onoff-sync", "request-prio", "replay", "legacy-flood"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("registry missing %q (have %v)", want, names)
		}
	}
}

// TestAttackSpecStrategiesRun drives every registered strategy through
// the declarative API: each must attach, run, record itself in
// Result.Attack, and leave the legitimate sender with working goodput.
func TestAttackSpecStrategiesRun(t *testing.T) {
	for _, name := range netfence.Attacks() {
		res, err := attackBase(name).Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Attack != name {
			t.Fatalf("%s: Result.Attack = %q", name, res.Attack)
		}
		if len(res.AttackerRates) != 3 {
			t.Fatalf("%s: %d attacker meters, want 3", name, len(res.AttackerRates))
		}
		if res.UserBps <= 0 {
			t.Fatalf("%s: user goodput %.0f", name, res.UserBps)
		}
	}
}

// TestAttackSpecValidation exercises the attach-time error paths.
func TestAttackSpecValidation(t *testing.T) {
	bad := attackBase("bogus")
	if _, err := bad.Run(); err == nil || !strings.Contains(err.Error(), "unknown strategy") {
		t.Fatalf("unknown strategy error = %v", err)
	}
	bad = attackBase("onoff-sync")
	ws := bad.Workloads[1].(netfence.AttackSpec)
	ws.Params = map[string]float64{"on": 9} // declared range 1..8
	bad.Workloads[1] = ws
	if _, err := bad.Run(); err == nil || !strings.Contains(err.Error(), "onoff-sync") {
		t.Fatalf("onoff-sync with an out-of-range param: error %v", err)
	}
	bad = attackBase("flood")
	bad.Topology = netfence.DumbbellSpec{Senders: 4, BottleneckBps: 800_000} // no colluders
	if _, err := bad.Run(); err == nil {
		t.Fatal("colluder-bound attack without colluder hosts accepted")
	}
}

// TestReplayDemotedUnderNetFence pits replay against flood under
// NetFence: replayed feedback expires (keyring + freshness window), so
// the replay attackers end up demoted to the request channel and take
// far less than the honestly policed flood.
func TestReplayDemotedUnderNetFence(t *testing.T) {
	results, err := netfence.RunAll(attackBase("flood"), attackBase("replay"))
	if err != nil {
		t.Fatal(err)
	}
	flood, replay := results[0], results[1]
	if replay.AttackerBps >= flood.AttackerBps/2 {
		t.Fatalf("replay attackers hold %.0f bps vs flood's %.0f — expiry did not bite",
			replay.AttackerBps, flood.AttackerBps)
	}
	if replay.UserBps <= 0 {
		t.Fatal("user starved under replay")
	}
}

// TestReplayDemotedUnderMultiFeedback repeats the replay-vs-flood check
// with the Appendix B.1 multi-bottleneck header enabled: returned
// feedback arrives as a chained multi header, which replay must cache
// and replay the same way — and which the access router must likewise
// expire and demote.
func TestReplayDemotedUnderMultiFeedback(t *testing.T) {
	cfg := netfence.DefaultConfig()
	cfg.MultiFeedback = true
	mk := func(strategy string) netfence.Scenario {
		sc := attackBase(strategy)
		sc.Defense = netfence.DefenseSpec{Name: "netfence", Config: cfg}
		return sc
	}
	results, err := netfence.RunAll(mk("flood"), mk("replay"))
	if err != nil {
		t.Fatal(err)
	}
	flood, replay := results[0], results[1]
	if replay.AttackerBps >= flood.AttackerBps/2 {
		t.Fatalf("B.1 replay attackers hold %.0f bps vs flood's %.0f — multi-header expiry did not bite",
			replay.AttackerBps, flood.AttackerBps)
	}
	if replay.UserBps <= 0 {
		t.Fatal("user starved under B.1 replay")
	}
}

// TestSweepAttackAxis checks the new Attacks axis: deterministic
// expansion with /attack= segments, per-cell re-targeting recorded in
// Result.Attack, and serial/parallel result identity.
func TestSweepAttackAxis(t *testing.T) {
	sw := netfence.Sweep{
		Base:     attackBase("flood"),
		Defenses: []string{"netfence", "fq"},
		Attacks:  []string{"flood", "legacy-flood"},
		Seeds:    []uint64{1},
	}
	scs := sw.Scenarios()
	if len(scs) != 4 {
		t.Fatalf("matrix size %d, want 4", len(scs))
	}
	if want := "strategic/netfence/n=4/attack=flood/seed=1"; scs[0].Name != want {
		t.Fatalf("first cell %q, want %q", scs[0].Name, want)
	}
	if want := "strategic/fq/n=4/attack=legacy-flood/seed=1"; scs[3].Name != want {
		t.Fatalf("last cell %q, want %q", scs[3].Name, want)
	}
	// Re-targeting must not mutate the shared Base workload list.
	if got := sw.Base.Workloads[1].(netfence.AttackSpec).Strategy; got != "flood" {
		t.Fatalf("Base workload mutated to %q", got)
	}

	setProcs(t, 1)
	a, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	setProcs(t, 4)
	b, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("cell %d differs between serial and parallel runs:\n%v\n%v", i, a[i], b[i])
		}
	}
	for i, want := range []string{"flood", "legacy-flood", "flood", "legacy-flood"} {
		if a[i].Attack != want {
			t.Fatalf("cell %d Attack = %q, want %q", i, a[i].Attack, want)
		}
	}
}

// TestSweepAttackOptionsSurvival pins the Params rule on the Attacks
// axis: strategy-specific params survive onto their own strategy's
// cells and are dropped from foreign cells (which would reject the
// key), mirroring the Defense.Config rule.
func TestSweepAttackOptionsSurvival(t *testing.T) {
	base := attackBase("onoff-sync")
	ws := base.Workloads[1].(netfence.AttackSpec)
	ws.Params = map[string]float64{"trickle_bps": 10_000}
	base.Workloads[1] = ws
	sw := netfence.Sweep{Base: base, Attacks: []string{"flood", "onoff-sync"}}
	scs := sw.Scenarios()
	if len(scs) != 2 {
		t.Fatalf("matrix size %d, want 2", len(scs))
	}
	if p := scs[0].Workloads[1].(netfence.AttackSpec).Params; p != nil {
		t.Fatalf("flood cell kept onoff-sync params: %v", p)
	}
	if p := scs[1].Workloads[1].(netfence.AttackSpec).Params; p["trickle_bps"] != 10_000 {
		t.Fatalf("onoff-sync cell lost its own params: %v", p)
	}
	results, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	if results[0] == nil || results[1] == nil {
		t.Fatal("a cell failed to run")
	}
}

// TestSweepAttackFailFast pins the up-front validation: unknown names
// and an Attacks axis with nothing to re-target error before any cell
// builds, in the Populations-check style.
func TestSweepAttackFailFast(t *testing.T) {
	sw := netfence.Sweep{Base: attackBase("flood"), Attacks: []string{"flood", "bogus"}}
	_, err := sw.Run()
	if err == nil || !strings.Contains(err.Error(), `Sweep attack "bogus"`) {
		t.Fatalf("unknown attack error = %v", err)
	}
	if !strings.Contains(err.Error(), "registered:") {
		t.Fatalf("error does not list registered strategies: %v", err)
	}
	noAttack := sweepBase()
	sw = netfence.Sweep{Base: noAttack, Attacks: []string{"flood"}}
	if _, err := sw.Run(); err == nil || !strings.Contains(err.Error(), "Base has no AttackSpec") {
		t.Fatalf("missing-AttackSpec error = %v", err)
	}
}

// TestBoundProbe checks the Theorem-1 floor computation and that a
// NetFence-defended scenario clears it.
func TestBoundProbe(t *testing.T) {
	sc := attackBase("flood")
	sc.Probes = []netfence.Probe{netfence.BoundProbe{}, netfence.GoodputProbe{}}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Fair share: 800 kbps / 4 senders = 200 kbps.
	if res.FairShareBps != 200_000 {
		t.Fatalf("FairShareBps = %f", res.FairShareBps)
	}
	// Floor: nu * rho * fair = 0.5 * 0.729 * 200k = 72.9k.
	if res.BoundBps < 72_800 || res.BoundBps > 73_000 {
		t.Fatalf("BoundBps = %f, want ~72900", res.BoundBps)
	}
	if !res.BoundHolds {
		t.Fatalf("NetFence under flood must clear the Theorem-1 floor (user %.0f, floor %.0f)",
			res.UserBps, res.BoundBps)
	}
	// The explicit Nu knob scales the floor.
	sc.Probes = []netfence.Probe{netfence.BoundProbe{Nu: 1.0}}
	res, err = sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.BoundBps < 145_700 || res.BoundBps > 145_900 {
		t.Fatalf("BoundBps with Nu=1 = %f, want ~145800", res.BoundBps)
	}
	// The floor is a single-link statement: multi-bottleneck topologies
	// are rejected at build time rather than checked vacuously.
	pl := netfence.Scenario{
		Seed:     3,
		Topology: netfence.ParkingLotSpec{SendersPerGroup: 4, L1Bps: 640_000, L2Bps: 960_000},
		Workloads: []netfence.Workload{
			netfence.LongTCP{Group: 0, Senders: []int{0}},
		},
		Probes:   []netfence.Probe{netfence.BoundProbe{}},
		Duration: 20 * netfence.Second,
		Warmup:   10 * netfence.Second,
	}
	if _, err := pl.Run(); err == nil || !strings.Contains(err.Error(), "single-bottleneck") {
		t.Fatalf("BoundProbe on a parking lot: err = %v, want single-bottleneck rejection", err)
	}
}
