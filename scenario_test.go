package netfence_test

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"netfence"
)

// quickstartScenario is the declarative form of the quickstart example:
// one legitimate TCP sender and one colluding attacker pair share a
// 400 kbps NetFence-protected bottleneck.
func quickstartScenario() netfence.Scenario {
	return netfence.Scenario{
		Name:     "quickstart",
		Seed:     42,
		Topology: netfence.DumbbellSpec{Senders: 2, BottleneckBps: 400_000, ColluderASes: 1},
		Defense:  netfence.Defense("netfence"),
		Workloads: []netfence.Workload{
			netfence.LongTCP{Senders: []int{0}},
			netfence.ColluderPairs{Senders: []int{1}, RateBps: 1_000_000},
		},
		Probes: []netfence.Probe{
			netfence.GoodputProbe{}, netfence.FairnessProbe{},
			netfence.TimeseriesProbe{Interval: 20 * netfence.Second},
		},
		Duration: 180 * netfence.Second,
		Warmup:   60 * netfence.Second,
	}
}

// TestDefenseRegistry verifies that NetFence and all four baselines
// resolve by name — including the paper's display spellings — and that
// each constructed system satisfies the defense.System interface.
func TestDefenseRegistry(t *testing.T) {
	names := netfence.Defenses()
	for _, want := range []string{"netfence", "tva", "stopit", "fq", "none"} {
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
	build := func(d netfence.DefenseSpec) (*netfence.Instance, error) {
		return netfence.Scenario{
			Seed:     1,
			Topology: netfence.DumbbellSpec{Senders: 2, BottleneckBps: 400_000},
			Defense:  d,
		}.Build()
	}
	for _, name := range []string{"netfence", "NetFence", "tva", "TVA+", "stopit", "StopIt", "fq", "FQ", "none", "None"} {
		in, err := build(netfence.Defense(name))
		if err != nil {
			t.Fatalf("Defense(%q): %v", name, err)
		}
		var _ netfence.DefenseSystem = in.System
		if in.System.Name() == "" {
			t.Fatalf("Defense(%q): empty system name", name)
		}
	}
	if _, err := build(netfence.Defense("bogus")); err == nil {
		t.Fatal("bogus defense resolved")
	}
	// A NetFence config must be rejected by systems that take none.
	if _, err := build(netfence.DefenseSpec{Name: "fq", Config: netfence.DefaultConfig()}); err == nil {
		t.Fatal("fq accepted a NetFence config")
	}
}

// TestScenarioQuickstartGolden asserts the quickstart scenario built via
// the declarative API converges both senders to their fair share: the
// paper's headline guarantee, measured entirely through probes.
func TestScenarioQuickstartGolden(t *testing.T) {
	res, err := quickstartScenario().Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Defense != "NetFence" {
		t.Fatalf("defense = %q", res.Defense)
	}
	// Fair share is 200 kbps per sender. The user must hold a working
	// share; the 1 Mbps flood must be pinned near fair share.
	if res.UserBps < 80_000 {
		t.Fatalf("user goodput %.0f bps, want >= 80 kbps", res.UserBps)
	}
	if res.AttackerBps > 300_000 {
		t.Fatalf("attacker goodput %.0f bps above fair-share band", res.AttackerBps)
	}
	if res.Ratio <= 0 {
		t.Fatalf("ratio = %.2f", res.Ratio)
	}
	// The monitoring cycle must have engaged, and the timeseries must
	// record it.
	saw := false
	for _, s := range res.Series {
		if s.Monitoring {
			saw = true
		}
	}
	if !saw {
		t.Fatal("monitoring cycle never observed in the timeseries")
	}
	if len(res.Series) < 8 {
		t.Fatalf("timeseries has %d samples, want >= 8", len(res.Series))
	}
}

// TestScenarioDenyAttackers drives the §6.3.1 capability scenario: the
// victim denies request flooders, so the legitimate client's transfers
// keep completing.
func TestScenarioDenyAttackers(t *testing.T) {
	res, err := netfence.Scenario{
		Name:          "capability",
		Seed:          7,
		Topology:      netfence.DumbbellSpec{Senders: 10, BottleneckBps: 2_000_000},
		Defense:       netfence.Defense("netfence"),
		DenyAttackers: true,
		Workloads: []netfence.Workload{
			netfence.FileTransfers{Senders: []int{0}, FileBytes: 20_000},
			netfence.RequestFlood{Senders: netfence.Range(1, 10), RateBps: 1_000_000, Level: 5},
		},
		Duration: 60 * netfence.Second,
		Warmup:   10 * netfence.Second,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FCT.Count == 0 {
		t.Fatal("no transfers completed")
	}
	if res.FCT.Completion < 0.99 {
		t.Fatalf("completion = %.2f", res.FCT.Completion)
	}
	if res.FCT.MeanSec > 4 {
		t.Fatalf("mean FCT %.2fs under denial, want the ~1s request-backoff cost only", res.FCT.MeanSec)
	}
}

// TestParkingLotScenario smoke-tests the multi-bottleneck topology under
// the declarative API, with per-group workload targeting.
func TestParkingLotScenario(t *testing.T) {
	res, err := netfence.Scenario{
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
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.UserBps <= 0 {
		t.Fatalf("user goodput %.0f", res.UserBps)
	}
	if res.Senders != 12 {
		t.Fatalf("population = %d, want 12", res.Senders)
	}
}

// sweepBase is a small collusion scenario used by the sweep tests.
func sweepBase() netfence.Scenario {
	return netfence.Scenario{
		Name:     "collusion",
		Seed:     1,
		Topology: netfence.DumbbellSpec{Senders: 4, BottleneckBps: 800_000, ColluderASes: 2},
		Defense:  netfence.Defense("netfence"),
		Workloads: []netfence.Workload{
			netfence.LongTCP{Senders: netfence.Range(0, 2)},
			netfence.ColluderPairs{Senders: netfence.Range(2, 4)},
		},
		Duration: 60 * netfence.Second,
		Warmup:   30 * netfence.Second,
	}
}

// setProcs sets GOMAXPROCS, which sizes a sweep's worker pool, for the
// rest of the test and restores the previous value when the test ends.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestSweepDeterminism runs the same 4-defense × 2-seed matrix serially
// (GOMAXPROCS 1) and with eight workers: the result sets must be
// identical, byte for byte — one engine per scenario, no shared mutable
// state.
func TestSweepDeterminism(t *testing.T) {
	sw := netfence.Sweep{
		Base:     sweepBase(),
		Defenses: []string{"netfence", "tva", "stopit", "fq"},
		Seeds:    []uint64{1, 2},
	}
	setProcs(t, 1)
	a, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	setProcs(t, 8)
	b, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 8 || len(b) != 8 {
		t.Fatalf("result counts: %d, %d, want 8", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("cell %d differs between serial and parallel runs:\n%v\n%v", i, a[i], b[i])
		}
	}
	// Seed-stability: rerunning the parallel sweep reproduces it again.
	c, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], c[i]) {
			t.Fatalf("cell %d not seed-stable across reruns", i)
		}
	}
}

// TestSweepMatrix checks the deterministic expansion order and the
// population axis.
func TestSweepMatrix(t *testing.T) {
	sw := netfence.Sweep{
		Base:        sweepBase(),
		Defenses:    []string{"netfence", "fq"},
		Populations: []int{4, 8},
		Seeds:       []uint64{1, 2},
	}
	scs := sw.Scenarios()
	if len(scs) != 8 {
		t.Fatalf("matrix size %d, want 8", len(scs))
	}
	// Defense-major, then population, then seed.
	wantFirst := "collusion/netfence/n=4/seed=1"
	if scs[0].Name != wantFirst {
		t.Fatalf("first cell %q, want %q", scs[0].Name, wantFirst)
	}
	wantLast := "collusion/fq/n=8/seed=2"
	if scs[7].Name != wantLast {
		t.Fatalf("last cell %q, want %q", scs[7].Name, wantLast)
	}
	if scs[2].Topology.(netfence.DumbbellSpec).Senders != 8 {
		t.Fatalf("population override not applied: %+v", scs[2].Topology)
	}
}

// TestPopulationExact pins that topology specs honor the declared
// population exactly even when it does not divide the default AS count,
// and reject explicit non-divisible splits.
func TestPopulationExact(t *testing.T) {
	res, err := netfence.Scenario{
		Seed:     1,
		Topology: netfence.DumbbellSpec{Senders: 25, BottleneckBps: 5_000_000, ColluderASes: 2},
		Workloads: []netfence.Workload{
			netfence.LongTCP{Senders: netfence.Range(0, 5)},
			netfence.ColluderPairs{Senders: netfence.Range(5, 25)},
		},
		Duration: 20 * netfence.Second,
		Warmup:   10 * netfence.Second,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.UserRates) + len(res.AttackerRates); got != 25 {
		t.Fatalf("%d active senders, want all 25", got)
	}
	bad := sweepBase()
	bad.Topology = netfence.DumbbellSpec{Senders: 25, BottleneckBps: 5_000_000, SrcASes: 10}
	if _, err := bad.Run(); err == nil {
		t.Fatal("non-divisible explicit SrcASes accepted")
	}
}

// TestSweepBaseForDefenseConfig pins who owns a defense config on the
// sweep's Base: it survives onto the cells of its own system, whatever
// the name's spelling, and never leaks onto others. It also pins the
// population axis's up-front checks.
func TestSweepBaseForDefenseConfig(t *testing.T) {
	cfg := netfence.DefaultConfig()
	base := sweepBase()
	base.Defense = netfence.DefenseSpec{Name: "NetFence", Config: cfg}
	sw := netfence.Sweep{
		Base:        base,
		Defenses:    []string{"netfence", "fq"},
		Populations: []int{4},
	}
	scs := sw.Scenarios()
	if len(scs) != 2 {
		t.Fatalf("matrix size %d, want 2", len(scs))
	}
	if scs[0].Defense.Config == nil {
		t.Fatal("Base's config dropped from its own system's cell")
	}
	if scs[1].Defense.Config != nil {
		t.Fatal("NetFence config leaked onto the fq cell")
	}
	// Non-positive populations are rejected up front, not conflated with
	// the internal keep-base sentinel.
	sw4 := netfence.Sweep{Base: sweepBase(), Populations: []int{8, 0}}
	if _, err := sw4.Run(); err == nil {
		t.Fatal("population 0 accepted")
	}
	// The parking-lot population axis honors the declared population:
	// values that do not split into 3 equal groups error per cell.
	plBase := sweepBase()
	plBase.Topology = netfence.ParkingLotSpec{SendersPerGroup: 2, L1Bps: 320_000, L2Bps: 480_000}
	plBase.Workloads = []netfence.Workload{netfence.LongTCP{Group: 0, Senders: []int{0}}}
	swPL := netfence.Sweep{Base: plBase, Populations: []int{20}}
	if _, err := swPL.Run(); err == nil {
		t.Fatal("parking-lot population 20 (not divisible by 3) accepted")
	}
	swPL.Populations = []int{6}
	if results, err := swPL.Run(); err != nil || results[0].Senders != 6 {
		t.Fatalf("parking-lot population 6 failed: %v %v", results, err)
	}
}

// TestRunAllOrder verifies RunAll returns results in argument order with
// names preserved.
func TestRunAllOrder(t *testing.T) {
	a := sweepBase()
	a.Name = "first"
	b := sweepBase()
	b.Name = "second"
	b.Defense = netfence.Defense("fq")
	results, err := netfence.RunAll(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Scenario != "first" || results[1].Scenario != "second" {
		t.Fatalf("RunAll order broken: %v", results)
	}
	if results[1].Defense != "FQ" {
		t.Fatalf("second result defense = %q", results[1].Defense)
	}
	out := netfence.FormatResults(results)
	if !strings.Contains(out, "first") || !strings.Contains(out, "second") {
		t.Fatalf("FormatResults missing rows:\n%s", out)
	}
}

// TestScenarioValidation exercises the build-time error paths.
func TestScenarioValidation(t *testing.T) {
	if _, err := (netfence.Scenario{}).Run(); err == nil {
		t.Fatal("missing topology accepted")
	}
	bad := sweepBase()
	bad.Defense = netfence.Defense("bogus")
	if _, err := bad.Run(); err == nil {
		t.Fatal("unknown defense accepted")
	}
	bad = sweepBase()
	bad.Workloads = []netfence.Workload{netfence.LongTCP{Senders: []int{99}}}
	if _, err := bad.Run(); err == nil {
		t.Fatal("out-of-range sender accepted")
	}
	bad = sweepBase()
	bad.Topology = netfence.DumbbellSpec{Senders: 2, BottleneckBps: 400_000} // no colluders
	if _, err := bad.Run(); err == nil {
		t.Fatal("colluder flood without colluder hosts accepted")
	}
	bad = sweepBase()
	bad.Warmup = bad.Duration
	if _, err := bad.Run(); err == nil {
		t.Fatal("warmup >= duration accepted")
	}
	bad = sweepBase()
	bad.Defense = netfence.DefenseSpec{Name: "fq", Config: netfence.DefaultConfig()}
	if _, err := bad.Run(); err == nil {
		t.Fatal("fq with a NetFence config accepted")
	}
}
