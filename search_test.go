package netfence_test

import (
	"strings"
	"testing"

	"netfence"
)

func searchBase(shards int) netfence.Scenario {
	return netfence.Scenario{
		Name:     "searchtest",
		Seed:     1,
		Topology: netfence.DumbbellSpec{Senders: 8, BottleneckBps: 800_000, ColluderASes: 2},
		Defense:  netfence.Defense("netfence"),
		Workloads: []netfence.Workload{
			netfence.LongTCP{Senders: []int{0, 1}},
			netfence.AttackSpec{Strategy: "flood", Senders: netfence.Range(2, 8), ToColluders: true},
		},
		Duration: 40 * netfence.Second,
		Warmup:   20 * netfence.Second,
		Shards:   shards,
	}
}

// TestSearchDeterminism pins the report contract: identical
// seed/budget/optimizer produce a byte-identical worst-found table
// regardless of shard count and worker count (GOMAXPROCS sizes the
// pool), and the netfence rows clear the Theorem-1 floor at the
// searched optimum.
func TestSearchDeterminism(t *testing.T) {
	run := func(shards, procs int) (*netfence.SearchReport, string, string) {
		setProcs(t, procs)
		rep, err := netfence.SearchSpec{
			Base:       searchBase(shards),
			Defenses:   []string{"netfence", "none"},
			Strategies: []string{"flood"},
			Optimizer:  "anneal",
			Budget:     4,
			Seed:       7,
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		js, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return rep, rep.Table(), string(js)
	}
	rep, table1, js1 := run(1, 1)
	_, table4, js4 := run(4, 8)
	if table1 != table4 {
		t.Fatalf("worst-found table differs across shard/worker counts:\n--- shards=1 procs=1\n%s\n--- shards=4 procs=8\n%s", table1, table4)
	}
	if js1 != js4 {
		t.Fatalf("JSON report differs across shard/worker counts:\n%s\n%s", js1, js4)
	}

	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rep.Rows))
	}
	worst := 0
	for _, row := range rep.Rows {
		if row.Evals == 0 || row.Evals > 4 {
			t.Fatalf("row %s/%s evaluated %d candidates, budget 4", row.Defense, row.Strategy, row.Evals)
		}
		if row.Worst {
			worst++
		}
		if row.Result == nil || len(row.Result.SearchTrace) != row.Evals {
			t.Fatalf("row %s/%s: missing result or trace (%+v)", row.Defense, row.Strategy, row.Result)
		}
		if row.Result.SearchTrace[0].Eval != 0 || row.DefaultUserBps != row.Result.SearchTrace[0].UserBps {
			t.Fatalf("trace must start at the defaults: %+v", row.Result.SearchTrace[0])
		}
		if row.Defense == "netfence" && !row.BoundHolds {
			t.Fatalf("netfence fell below the Theorem-1 floor at the searched optimum: user %.0f < floor %.0f (attack %s)",
				row.UserBps, row.BoundBps, row.Attack)
		}
	}
	if worst != 2 {
		t.Fatalf("want exactly one worst row per defense, got %d marks", worst)
	}
	if err := rep.Gate(); err != nil {
		t.Fatalf("Gate: %v", err)
	}
}

// TestSearchBeatsDefault pins that annealing finds a configuration at
// least as damaging as the hand-written defaults — and, on an
// undefended bottleneck where raw rate scales damage monotonically,
// strictly more damaging.
func TestSearchBeatsDefault(t *testing.T) {
	base := searchBase(0)
	// A low base rate leaves the defaults short of saturating the
	// undefended bottleneck, so rate_mult has damage headroom.
	as := base.Workloads[1].(netfence.AttackSpec)
	as.RateBps = 60_000
	base.Workloads[1] = as
	rep, err := netfence.SearchSpec{
		Base:       base,
		Defenses:   []string{"none"},
		Strategies: []string{"flood"},
		Optimizer:  "anneal",
		Budget:     6,
		Seed:       3,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	row := rep.Rows[0]
	if row.UserBps >= row.DefaultUserBps {
		t.Fatalf("search did not beat the default: worst %.0f bps >= default %.0f bps (attack %s)",
			row.UserBps, row.DefaultUserBps, row.Attack)
	}
	if row.SuppressionBps <= 0 {
		t.Fatalf("suppression %.0f, want > 0", row.SuppressionBps)
	}
}

// TestSearchProgressAndCandidates checks the streaming hooks fire once
// per evaluated candidate with best-so-far marks.
func TestSearchProgressAndCandidates(t *testing.T) {
	var cells []string
	var steps []netfence.SearchStep
	progress := 0
	rep, err := netfence.SearchSpec{
		Base:       searchBase(0),
		Strategies: []string{"flood"},
		Optimizer:  "grid",
		Budget:     3,
		Seed:       1,
		Progress:   func(done, total int, cell string) { progress = done },
		OnCandidate: func(cell string, step netfence.SearchStep) {
			cells = append(cells, cell)
			steps = append(steps, step)
		},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	evals := rep.Rows[0].Evals
	if len(steps) != evals || progress != evals {
		t.Fatalf("hooks fired %d/%d times for %d evals", len(steps), progress, evals)
	}
	if !steps[0].Best || steps[0].Eval != 0 {
		t.Fatalf("first candidate must be the best-so-far defaults: %+v", steps[0])
	}
	for _, c := range cells {
		if c != "netfence/flood" {
			t.Fatalf("cell = %q", c)
		}
	}
}

// TestSearchValidation pins the fail-fast errors.
func TestSearchValidation(t *testing.T) {
	base := searchBase(0)
	cases := []struct {
		spec netfence.SearchSpec
		want string
	}{
		{netfence.SearchSpec{}, "needs a topology"},
		{netfence.SearchSpec{Base: netfence.Scenario{Topology: base.Topology, Workloads: []netfence.Workload{netfence.LongTCP{Senders: []int{0}}}}}, "no AttackSpec"},
		{netfence.SearchSpec{Base: base, Optimizer: "gradient"}, "unknown optimizer"},
		{netfence.SearchSpec{Base: base, Defenses: []string{"firewall"}}, `defense "firewall"`},
		{netfence.SearchSpec{Base: base, Strategies: []string{"slowloris"}}, `strategy "slowloris"`},
		{netfence.SearchSpec{Base: base, Budget: -1}, "must be positive"},
	}
	for _, c := range cases {
		if _, err := c.spec.Run(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("want error containing %q, got %v", c.want, err)
		}
	}
}

// TestSweepParameterizedAttackAxis pins the Sweep.Attacks spec-string
// surface: parameterized entries re-target workloads with overrides
// and name their cells canonically.
func TestSweepParameterizedAttackAxis(t *testing.T) {
	sw := netfence.Sweep{
		Base:    searchBase(0),
		Attacks: []string{"flood", "flood:rate_mult=2", "onoff-sync:on=1,off=4"},
	}
	scs := sw.Scenarios()
	if len(scs) != 3 {
		t.Fatalf("matrix size %d, want 3", len(scs))
	}
	wantSegs := []string{"attack=flood/", "attack=flood:rate_mult=2/", "attack=onoff-sync:on=1,off=4/"}
	for i, sc := range scs {
		if !strings.Contains(sc.Name, wantSegs[i]) {
			t.Fatalf("cell %d name %q missing %q", i, sc.Name, wantSegs[i])
		}
	}
	as := scs[1].Workloads[1].(netfence.AttackSpec)
	if as.Params["rate_mult"] != 2 {
		t.Fatalf("cell 1 params = %v", as.Params)
	}
	as = scs[2].Workloads[1].(netfence.AttackSpec)
	if as.Strategy != "onoff-sync" || as.Params["on"] != 1 || as.Params["off"] != 4 {
		t.Fatalf("cell 2 = %+v", as)
	}
	// Malformed specs fail fast with the strategy and key named.
	sw.Attacks = []string{"onoff-sync:dty=2"}
	if _, err := sw.Run(); err == nil || !strings.Contains(err.Error(), `attack "onoff-sync": unknown param "dty"`) {
		t.Fatalf("malformed spec error = %v", err)
	}
	// A parameterized cell runs end to end.
	sw.Attacks = []string{"flood:rate_mult=2"}
	results, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	if results[0] == nil || results[0].Attack == "" {
		t.Fatalf("parameterized cell result = %+v", results[0])
	}
}
