// Package exp contains one runner per table/figure of the paper's
// evaluation (§6). Each runner declares its cells as netfence.Scenario
// values — the paper's topology, one or more defense systems, the
// paper's workloads and attack strategies — runs them through the public
// Scenario API, and emits the same rows/series the paper reports.
//
// Experiments run at three scales. The paper itself evaluates 25K-200K
// senders by fixing a 1000-sender population and scaling the bottleneck
// capacity so each sender's fair share matches the full-size scenario
// (§6.3.1); the scales here apply the same trick with smaller
// populations, preserving per-sender fair shares (the paper's 50-400 kbps
// operating region) and therefore the result shapes.
package exp

import (
	"fmt"
	"strings"

	"netfence"
	"netfence/internal/obs"
)

// Scale fixes an experiment family's population and durations.
type Scale struct {
	Name string
	// Senders is the real simulated population.
	Senders int
	// Labels are the emulated sender counts reported in result rows; the
	// bottleneck capacity for label L is Senders * (10 Gbps / L), keeping
	// per-sender fair shares faithful to the paper.
	Labels []int
	// Duration is the simulated run length; measurements that need AIMD
	// convergence start at Warmup.
	Duration, Warmup netfence.Time
	// PLGroup is the parking-lot per-group population (paper: 1000).
	PLGroup int
	// Seed feeds the deterministic RNG.
	Seed uint64
	// Systems, when non-empty, restricts the comparison figures to the
	// named defense systems (defense-registry names); empty keeps the
	// paper's full lineup.
	Systems []string
	// Meter, when set, accumulates executed-event counts from every
	// scenario the experiment runs — per-invocation, so concurrent
	// experiment runs never share a counter.
	Meter *netfence.Meter
}

// cell stamps a runner's scenario with the scale's seed and meter, and
// with the scale's measurement window unless the cell fixes its own.
func (sc Scale) cell(s netfence.Scenario) netfence.Scenario {
	s.Seed, s.Meter = sc.Seed, sc.Meter
	if s.Duration == 0 {
		s.Duration, s.Warmup = sc.Duration, sc.Warmup
	}
	return s
}

// runAll runs a runner's cells concurrently, one engine each, and
// returns their results in argument order. Runners declare fixed cells,
// so a failing one is a programmer error, not a runtime condition.
func (sc Scale) runAll(cells ...netfence.Scenario) []*netfence.Result {
	for i := range cells {
		cells[i] = sc.cell(cells[i])
	}
	res, err := netfence.RunAll(cells...)
	if err != nil {
		panic(err)
	}
	return res
}

// build constructs one cell; runners that read defense-internal state
// keep the Instance past its Run.
func (sc Scale) build(s netfence.Scenario) *netfence.Instance {
	in, err := sc.cell(s).Build()
	if err != nil {
		panic(err)
	}
	return in
}

// grid runs one cell per (row × column) concurrently and returns the
// results in the same layout.
func grid[R, C any](sc Scale, rows []R, cols []C, cell func(R, C) netfence.Scenario) [][]*netfence.Result {
	var cells []netfence.Scenario
	for _, r := range rows {
		for _, c := range cols {
			cells = append(cells, cell(r, c))
		}
	}
	flat := sc.runAll(cells...)
	out := make([][]*netfence.Result, len(rows))
	for i := range out {
		out[i] = flat[i*len(cols) : (i+1)*len(cols)]
	}
	return out
}

// The three standard scales.
var (
	// Tiny runs in seconds; used by unit tests and the bench harness.
	Tiny = Scale{
		Name: "tiny", Senders: 20, Labels: []int{25_000, 200_000},
		Duration: 120 * netfence.Second, Warmup: 60 * netfence.Second,
		PLGroup: 12, Seed: 1,
	}
	// Small is the CLI default: every label, minutes of wall time.
	Small = Scale{
		Name: "small", Senders: 60, Labels: []int{25_000, 50_000, 100_000, 200_000},
		Duration: 240 * netfence.Second, Warmup: 120 * netfence.Second,
		PLGroup: 30, Seed: 1,
	}
	// Paper is the full 1000-sender, 4000-second configuration.
	Paper = Scale{
		Name: "paper", Senders: 1000, Labels: []int{25_000, 50_000, 100_000, 200_000},
		Duration: 4000 * netfence.Second, Warmup: 1000 * netfence.Second,
		PLGroup: 1000, Seed: 1,
	}
)

// ScaleByName resolves tiny/small/paper.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "tiny":
		return Tiny, nil
	case "small", "":
		return Small, nil
	case "paper":
		return Paper, nil
	}
	return Scale{}, fmt.Errorf("unknown scale %q (tiny|small|paper)", name)
}

// BottleneckBps returns the scaled capacity for an emulated sender count.
func (sc Scale) BottleneckBps(label int) int64 {
	return int64(sc.Senders) * (10_000_000_000 / int64(label))
}

// FairShareBps is each sender's bottleneck fair share at a label.
func (sc Scale) FairShareBps(label int) int64 {
	return 10_000_000_000 / int64(label)
}

// Result is one experiment's output table.
type Result struct {
	Name    string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (r *Result) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// Note appends a free-form note printed under the table.
func (r *Result) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Table renders the result as an aligned text table.
func (r *Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.Name, r.Title)
	obs.WriteTable(&b, r.Columns, r.Rows)
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// comparedSystems is the lineup of Figures 8 and 9, as defense-registry
// names.
var comparedSystems = []string{"fq", "netfence", "tva", "stopit"}

// Compared returns the defense-registry names a comparison figure
// sweeps: the paper's lineup by default, or the Scale.Systems
// restriction when set. Rows print each cell's Result.Defense, the
// system's own name.
func (sc Scale) Compared() []string {
	if len(sc.Systems) == 0 {
		return comparedSystems
	}
	return sc.Systems
}

// Runner is a named experiment: it maps a CLI/bench identifier to the
// function regenerating one table or figure. Compares marks experiments
// that sweep the compared defense lineup (and therefore honor
// Scale.Systems); the rest are NetFence-only studies.
type Runner struct {
	Name     string
	Brief    string
	Run      func(sc Scale) Result
	Compares bool
}

// Runners lists every experiment, in paper order.
func Runners() []Runner {
	return []Runner{
		{"fig7", "per-packet processing overhead (Linux prototype table)", Fig7, false},
		{"fig8", "unwanted-traffic flooding: mean 20KB transfer time", Fig8, true},
		{"fig9a", "colluding attacks, long-running TCP: throughput ratio", func(sc Scale) Result { return Fig9(sc, false) }, true},
		{"fig9b", "colluding attacks, web-like traffic: throughput ratio", func(sc Scale) Result { return Fig9(sc, true) }, true},
		{"fig10", "multi-bottleneck parking lot, core design", func(sc Scale) Result { return Fig10(sc, ModeCore) }, false},
		{"fig11", "microscopic on-off attacks: user throughput", Fig11, false},
		{"fig13", "parking lot with multi-bottleneck feedback (App. B.1)", func(sc Scale) Result { return Fig10(sc, ModeMultiFB) }, false},
		{"fig14", "parking lot with rate-limiter inference (App. B.2)", func(sc Scale) Result { return Fig10(sc, ModeInfer) }, false},
		{"theorem", "fair-share lower bound of §3.4/Appendix A", Theorem, false},
		{"strategic", "adaptive attack strategies vs the Theorem-1 goodput floor (§6.3)", Strategic, true},
		{"worstcase", "adversarial search: annealed worst attack per defense vs the hand-written lineup", WorstCase, true},
		{"localize", "compromised-AS damage localization (§4.5)", Localize, false},
		{"header", "NetFence header sizes (§6.1)", HeaderSizes, false},
		{"ablate-hysteresis", "L-down hysteresis ablation (footnote 1)", AblateHysteresis, false},
		{"ablate-initrate", "initial rate-limit ablation", AblateInitRate, false},
		{"ablate-bucket", "leaky-queue vs token-bucket limiter (§4.3.3)", AblateBucket, false},
		{"quota", "congestion quota extension (§7)", AblateQuota, false},
		{"deploy", "incremental deployment: ratio vs deployed source-AS fraction", Deploy, true},
	}
}

// RunnerByName resolves an experiment identifier.
func RunnerByName(name string) (Runner, error) {
	for _, r := range Runners() {
		if r.Name == name {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("unknown experiment %q", name)
}
