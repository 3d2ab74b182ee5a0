package netfence_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"netfence"
)

// TestGraphGoldenEquivalence pins the scenario layer's measured results
// seed for seed: the quickstart scenario, the 4-defense × 2-seed sweep
// and a parking-lot cell must reproduce testdata/golden_results.json
// exactly, so any accidental behavior change in the topology builders,
// the defense deployments or the transports shows up as a diff. The
// fixture was first emitted by the pre-refactor builders (proving the
// Graph reimplementation byte-identical) and re-pinned after the §4.2
// request-priority escalation fix intentionally changed NetFence
// sender behavior (feedback-less packets now climb priority levels with
// waiting time instead of holding level 0), and again when Result grew
// the deterministic Counters plane — the counter snapshots are part of
// the pinned surface now — and once more when same-instant events
// became ordered by the model-derived (time, origin, seq) key (three
// parking-lot counters moved). After an intentional behavior change,
// rewrite the fixture with
//
//	NETFENCE_REGEN_GOLDEN=1 go test -run TestGraphGoldenEquivalence .
func TestGraphGoldenEquivalence(t *testing.T) {
	qres, err := quickstartScenario().Run()
	if err != nil {
		t.Fatal(err)
	}

	sweep, err := netfence.Sweep{
		Base:     sweepBase(),
		Defenses: []string{"netfence", "tva", "stopit", "fq"},
		Seeds:    []uint64{1, 2},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}

	plres, err := parkingLotGoldenScenario().Run()
	if err != nil {
		t.Fatal(err)
	}

	// The golden predates the Topology/Deployed result fields; blank
	// them on the fresh results so only the measured values compare.
	normalize := func(r *netfence.Result) *netfence.Result {
		c := *r
		c.Topology = ""
		c.Deployed = 0
		return &c
	}

	if os.Getenv("NETFENCE_REGEN_GOLDEN") != "" {
		fresh := struct {
			Quickstart *netfence.Result   `json:"quickstart"`
			Sweep      []*netfence.Result `json:"sweep"`
			ParkingLot *netfence.Result   `json:"parkinglot"`
		}{Quickstart: normalize(qres), ParkingLot: normalize(plres)}
		for _, r := range sweep {
			fresh.Sweep = append(fresh.Sweep, normalize(r))
		}
		buf, err := json.MarshalIndent(fresh, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/golden_results.json", append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("regenerated testdata/golden_results.json")
		return
	}

	raw, err := os.ReadFile("testdata/golden_results.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Quickstart *netfence.Result   `json:"quickstart"`
		Sweep      []*netfence.Result `json:"sweep"`
		ParkingLot *netfence.Result   `json:"parkinglot"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}

	check := func(name string, got, want *netfence.Result) {
		t.Helper()
		if got.Topology == "" {
			t.Fatalf("%s: fresh result has no topology name", name)
		}
		if got.Deployed != 1 {
			t.Fatalf("%s: full deployment recorded as %v", name, got.Deployed)
		}
		if !reflect.DeepEqual(normalize(got), want) {
			t.Fatalf("%s diverged from the pinned golden:\ngot:  %+v\nwant: %+v", name, got, want)
		}
	}
	check("quickstart", qres, golden.Quickstart)
	if len(sweep) != len(golden.Sweep) {
		t.Fatalf("sweep produced %d cells, golden has %d", len(sweep), len(golden.Sweep))
	}
	for i := range sweep {
		check(sweep[i].Scenario, sweep[i], golden.Sweep[i])
	}
	check("parkinglot", plres, golden.ParkingLot)
}

// parkingLotGoldenScenario is the parking-lot cell the golden fixture
// pins.
func parkingLotGoldenScenario() netfence.Scenario {
	return netfence.Scenario{
		Name:     "parkinglot",
		Seed:     3,
		Topology: netfence.ParkingLotSpec{SendersPerGroup: 4, L1Bps: 640_000, L2Bps: 960_000},
		Defense:  netfence.Defense("netfence"),
		Workloads: []netfence.Workload{
			netfence.LongTCP{Group: 0, Senders: netfence.Range(0, 2)},
			netfence.ColluderPairs{Group: 0, Senders: netfence.Range(2, 4)},
			netfence.LongTCP{Group: 1, Senders: netfence.Range(0, 2)},
			netfence.LongTCP{Group: 2, Senders: netfence.Range(0, 2)},
		},
		Duration: 60 * netfence.Second,
		Warmup:   30 * netfence.Second,
	}
}

// TestPartialDeployment pins the incremental-deployment semantics: at
// fraction 1 the colluding flood is policed to fair share; with the
// attacker ASes legacy, NetFence demotes their traffic to best-effort
// (it cannot present feedback), so the policed user still gets through;
// the recorded Deployed fraction matches the plan.
func TestPartialDeployment(t *testing.T) {
	base := netfence.Scenario{
		Name: "partial",
		Seed: 5,
		// 4 source ASes, one sender each: AS0-1 users, AS2-3 attackers.
		Topology: netfence.DumbbellSpec{Senders: 4, SrcASes: 4, BottleneckBps: 800_000, ColluderASes: 2},
		Workloads: []netfence.Workload{
			netfence.LongTCP{Senders: netfence.Range(0, 2)},
			netfence.ColluderPairs{Senders: netfence.Range(2, 4), RateBps: 1_000_000},
		},
		Duration: 60 * netfence.Second,
		Warmup:   30 * netfence.Second,
	}

	full := base
	full.Deployment = netfence.DeployFraction(1)
	fres, err := full.Run()
	if err != nil {
		t.Fatal(err)
	}
	if fres.Deployed != 1 {
		t.Fatalf("full deployment recorded as %v", fres.Deployed)
	}

	half := base
	half.Deployment = netfence.DeployMap(map[int]bool{0: true, 1: true})
	hres, err := half.Run()
	if err != nil {
		t.Fatal(err)
	}
	if hres.Deployed != 0.5 {
		t.Fatalf("half deployment recorded as %v", hres.Deployed)
	}
	if hres.UserBps <= 0 {
		t.Fatal("users starved under partial deployment")
	}
	// The legacy attackers' packets ride the best-effort channel; the
	// deployed users' regular-channel traffic must keep a working share.
	if hres.Ratio <= 0 {
		t.Fatalf("ratio = %v", hres.Ratio)
	}

	none := base
	none.Deployment = netfence.DeployFraction(0)
	nres, err := none.Run()
	if err != nil {
		t.Fatal(err)
	}
	if nres.Deployed != 0 {
		t.Fatalf("zero deployment recorded as %v", nres.Deployed)
	}

	// Validation: fractions outside [0,1] and out-of-range map indices
	// are build errors.
	bad := base
	bad.Deployment = netfence.DeployFraction(1.5)
	if _, err := bad.Run(); err == nil {
		t.Fatal("fraction 1.5 accepted")
	}
	bad = base
	bad.Deployment = netfence.DeployMap(map[int]bool{9: true})
	if _, err := bad.Run(); err == nil {
		t.Fatal("out-of-range source-AS index accepted")
	}
}

// TestStarAndRandomASSpecs smoke-tests the two new topology specs under
// NetFence with a colluding flood.
func TestStarAndRandomASSpecs(t *testing.T) {
	for _, sc := range []netfence.Scenario{
		{
			Name:     "star",
			Seed:     2,
			Topology: netfence.StarSpec{Senders: 4, BottleneckBps: 800_000, ColluderASes: 2},
			Workloads: []netfence.Workload{
				netfence.LongTCP{Senders: netfence.Range(0, 2)},
				netfence.ColluderPairs{Senders: netfence.Range(2, 4)},
			},
			Duration: 40 * netfence.Second,
			Warmup:   20 * netfence.Second,
		},
		{
			Name:     "random-as",
			Seed:     2,
			Topology: netfence.RandomASSpec{Senders: 6, BottleneckBps: 1_200_000, TransitASes: 5, ExtraLinks: 2, ColluderASes: 2, GraphSeed: 7},
			Workloads: []netfence.Workload{
				netfence.LongTCP{Senders: netfence.Range(0, 3)},
				netfence.ColluderPairs{Senders: netfence.Range(3, 6)},
			},
			Duration: 40 * netfence.Second,
			Warmup:   20 * netfence.Second,
		},
	} {
		res, err := sc.Run()
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if res.UserBps <= 0 {
			t.Fatalf("%s: no user goodput", sc.Name)
		}
		if res.Topology != sc.Name {
			t.Fatalf("%s: result topology %q", sc.Name, res.Topology)
		}
	}

	// The random graph is a GraphSeed function: same seed same results,
	// different seed (usually) different wiring.
	mk := func(graphSeed uint64) *netfence.Result {
		res, err := netfence.Scenario{
			Seed:     3,
			Topology: netfence.RandomASSpec{Senders: 4, BottleneckBps: 800_000, TransitASes: 6, GraphSeed: graphSeed},
			Workloads: []netfence.Workload{
				netfence.LongTCP{Senders: netfence.Range(0, 4)},
			},
			Duration: 30 * netfence.Second,
			Warmup:   15 * netfence.Second,
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(11), mk(11)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("random-as not deterministic for a fixed GraphSeed")
	}
}

// TestSweepDeployFractions pins the deployment axis: expansion order,
// cell naming, per-cell Deployed fractions, and name stability when the
// axis is unused.
func TestSweepDeployFractions(t *testing.T) {
	sw := netfence.Sweep{
		Base:            sweepBase(),
		Defenses:        []string{"netfence"},
		DeployFractions: []float64{0, 0.5, 1},
	}
	scs := sw.Scenarios()
	if len(scs) != 3 {
		t.Fatalf("matrix size %d, want 3", len(scs))
	}
	if scs[1].Name != "collusion/netfence/n=4/deploy=0.50/seed=1" {
		t.Fatalf("deploy cell name %q", scs[1].Name)
	}
	results, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{0, 0.5, 1} {
		if results[i].Deployed != want {
			t.Fatalf("cell %d deployed = %v, want %v", i, results[i].Deployed, want)
		}
	}
	// Without the axis, names keep the pre-axis shape.
	plain := netfence.Sweep{Base: sweepBase(), Defenses: []string{"netfence"}}
	if name := plain.Scenarios()[0].Name; name != "collusion/netfence/n=4/seed=1" {
		t.Fatalf("axis-free cell name %q gained a deploy segment", name)
	}
	// Out-of-range fractions fail fast.
	bad := netfence.Sweep{Base: sweepBase(), DeployFractions: []float64{2}}
	if _, err := bad.Run(); err == nil {
		t.Fatal("deployment fraction 2 accepted")
	}
}

// TestDeployFractionOutsideUnitInterval holds both entry points of a
// deployment fraction — Scenario.Deployment and Sweep.DeployFractions —
// to refusing anything outside [0, 1], NaN included: a range check
// written as f < 0 || f > 1 is false for NaN, and the plan then rounds
// int(NaN·n + 0.5), whose value is implementation-defined.
func TestDeployFractionOutsideUnitInterval(t *testing.T) {
	for _, f := range []float64{-0.1, 1.5, math.NaN(), math.Inf(1)} {
		sc := sweepBase()
		sc.Deployment = netfence.DeployFraction(f)
		if _, err := sc.Build(); err == nil || !strings.Contains(err.Error(), "outside [0, 1]") {
			t.Errorf("Scenario.Build with DeployFraction(%v): err = %v, want outside [0, 1]", f, err)
		}
		sw := netfence.Sweep{Base: sweepBase(), DeployFractions: []float64{0.5, f}}
		if _, err := sw.Run(); err == nil || !strings.Contains(err.Error(), "outside [0, 1]") {
			t.Errorf("Sweep.DeployFractions %v: err = %v, want outside [0, 1]", f, err)
		}
	}
}

// TestSweepPopulationsResizeEverySpec sweeps the population axis over
// the specs no other test resizes — StarSpec and RandomASSpec — and
// checks every cell's /n= segment and that its Result counts that many
// senders.
func TestSweepPopulationsResizeEverySpec(t *testing.T) {
	specs := map[string]netfence.TopologySpec{
		"star":      netfence.StarSpec{Senders: 4, BottleneckBps: 800_000},
		"random-as": netfence.RandomASSpec{Senders: 4, BottleneckBps: 800_000},
	}
	pops := []int{6, 12}
	for name, spec := range specs {
		sw := netfence.Sweep{
			Base: netfence.Scenario{
				Name:      name,
				Seed:      1,
				Topology:  spec,
				Workloads: []netfence.Workload{netfence.LongTCP{Senders: []int{0, 1}}},
				Duration:  2 * netfence.Second,
				Warmup:    netfence.Second,
			},
			Populations: pops,
		}
		results, err := sw.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, n := range pops {
			if want := fmt.Sprintf("%s/netfence/n=%d/seed=1", name, n); results[i].Scenario != want {
				t.Errorf("%s: cell %d named %q, want %q", name, i, results[i].Scenario, want)
			}
			if results[i].Senders != n {
				t.Errorf("%s: population %d built %d senders", name, n, results[i].Senders)
			}
		}
	}
}

// TestSweepPopulationFailFast pins the fail-fast error for populations
// below a workload's highest sender index: it must name the workload
// and the offending index, before any cell runs.
func TestSweepPopulationFailFast(t *testing.T) {
	base := sweepBase() // workloads use sender indices 0..3
	sw := netfence.Sweep{Base: base, Populations: []int{2, 8}}
	_, err := sw.Run()
	if err == nil {
		t.Fatal("population 2 with sender index 3 accepted")
	}
	for _, want := range []string{"ColluderPairs", "index 3", "population 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("fail-fast error missing %q: %v", want, err)
		}
	}
	// Parking-lot group capacity is per group.
	plBase := sweepBase()
	plBase.Topology = netfence.ParkingLotSpec{SendersPerGroup: 4, L1Bps: 640_000, L2Bps: 960_000}
	plBase.Workloads = []netfence.Workload{netfence.LongTCP{Group: 2, Senders: []int{5}}}
	if _, err := (netfence.Sweep{Base: plBase, Populations: []int{12}}).Run(); err == nil {
		t.Fatal("group-capacity overflow accepted")
	} else if !strings.Contains(err.Error(), "group 2") {
		t.Fatalf("fail-fast error missing group: %v", err)
	}
	// A sufficient population still runs.
	sw = netfence.Sweep{Base: base, Populations: []int{8}}
	if _, err := sw.Run(); err != nil {
		t.Fatal(err)
	}
}
