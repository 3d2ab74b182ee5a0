package netfence

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"

	"netfence/internal/attack"
	"netfence/internal/defense"
	"netfence/internal/obs"
	"netfence/internal/search"
)

// SearchSpec drives an adversarial search: for each (defense ×
// strategy) cell it hands the strategy's declared parameter space
// (attack.ParamSpec) to a deterministic optimizer and hunts for the
// configuration that minimizes legitimate goodput — the worst attack
// the strategy can mount against that defense on Base's topology. The
// found optima feed a worst-found table (SearchReport) and the
// Theorem-1 gate: NetFence must clear its goodput floor even at the
// searched worst case, turning the BoundProbe spot check into an
// adversarially-tested claim.
//
// Determinism: the optimizer's candidate sequence is a pure function
// of (dims, Budget, Seed), candidate batches run through the same
// index-slotted parallel runner as Sweep, and cell names carry no
// shard segment — so identical Spec inputs produce a byte-identical
// report across shard counts and worker counts.
type SearchSpec struct {
	// Base is the scenario every candidate derives from. It must carry
	// at least one AttackSpec workload (the one the search re-targets
	// and re-parameterizes) and a topology. Base.Shards applies to every
	// candidate without affecting the report.
	Base Scenario
	// Defenses lists the defense systems to search against (nil = just
	// Base's defense).
	Defenses []string
	// Strategies lists the attack strategies whose parameter spaces are
	// searched (nil = every registered strategy).
	Strategies []string
	// Optimizer names the search algorithm: "grid" (default) or
	// "anneal". See netfence/internal/search.
	Optimizer string
	// Budget caps evaluated candidates per (defense × strategy) cell
	// (0 = 24).
	Budget int
	// Seed seeds the optimizer's random stream, independently per cell
	// (0 is a valid seed; it is mixed before use).
	Seed uint64
	// Nu is the BoundProbe's assumed transport efficiency ν (0 = 0.5).
	Nu float64
	// Progress, when set, is called after each evaluated candidate with
	// the evaluation count so far, the budget-derived upper bound, and
	// the candidate's cell name. Calls are serialized. done may end
	// below total: optimizers stop early when a cell's space is
	// exhausted.
	Progress func(done, total int, cell string)
	// OnCandidate, when set, streams each evaluated candidate as a
	// SearchStep (best-so-far marked) with its cell name — the server's
	// SSE candidate feed. Calls are serialized.
	OnCandidate func(cell string, step SearchStep)
}

// SearchStep is one evaluated candidate in a cell's search trace.
type SearchStep struct {
	// Eval is the candidate's evaluation index within its cell (0 = the
	// strategy's defaults).
	Eval int `json:"eval"`
	// Attack is the candidate's canonical spec ("flood:rate_mult=4").
	Attack string `json:"attack"`
	// UserBps is the mean legitimate goodput under the candidate —
	// lower is worse for the defense.
	UserBps float64 `json:"user_bps"`
	// Best marks the steps where the incumbent worst-found improved.
	Best bool `json:"best,omitempty"`
}

// SearchRow is one (defense × strategy) cell of the worst-found table.
type SearchRow struct {
	Defense  string `json:"defense"`
	Topology string `json:"topology"`
	Strategy string `json:"strategy"`
	// Attack is the worst-found configuration's canonical spec.
	Attack string `json:"attack"`
	// Params are the worst-found parameter values (nil when the optimum
	// is the all-defaults vector).
	Params map[string]float64 `json:"params,omitempty"`
	// UserBps is the legitimate goodput at the worst-found
	// configuration; DefaultUserBps is the goodput under the strategy's
	// defaults (evaluation 0), and SuppressionBps is how much further
	// the search pushed goodput down from there.
	UserBps        float64 `json:"user_bps"`
	DefaultUserBps float64 `json:"default_user_bps"`
	SuppressionBps float64 `json:"suppression_bps"`
	AttackerBps    float64 `json:"attacker_bps"`
	// FairShareBps, BoundBps and BoundHolds restate the BoundProbe
	// verdict at the worst-found configuration; GapBps is UserBps −
	// BoundBps (how far above — or, negative, below — the Theorem-1
	// floor the defense lands at its searched worst case).
	FairShareBps float64 `json:"fair_share_bps"`
	BoundBps     float64 `json:"bound_bps"`
	BoundHolds   bool    `json:"bound_holds"`
	GapBps       float64 `json:"gap_bps"`
	// Evals is how many candidates the cell actually evaluated.
	Evals int `json:"evals"`
	// Worst marks the strategy that hurt this defense most (exactly one
	// row per defense).
	Worst bool `json:"worst"`
	// Result is the full simulation result at the worst-found
	// configuration, with SearchTrace attached.
	Result *Result `json:"-"`
}

// SearchReport is the worst-found table across every searched cell.
type SearchReport struct {
	Optimizer string      `json:"optimizer"`
	Budget    int         `json:"budget"`
	Seed      uint64      `json:"seed"`
	Rows      []SearchRow `json:"rows"`
}

// cellSeed derives a per-cell optimizer seed from the search seed, so
// every (defense × strategy) cell walks an independent — but still
// fully reproducible — candidate sequence.
func cellSeed(seed uint64, defenseName, strategy string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s", defense.Canonical(defenseName), attack.Canonical(strategy))
	return seed ^ h.Sum64()
}

// Run executes the search. See RunContext.
func (s SearchSpec) Run() (*SearchReport, error) {
	return s.RunContext(context.Background())
}

// Validate checks the spec without running anything: the topology, the
// searched-over attack workload, the optimizer name, the budget, and
// every defense/strategy name. RunContext performs the same checks; the
// simulation service calls this at submit time so a bad spec fails the
// POST, not the job.
func (s SearchSpec) Validate() error {
	_, _, _, _, err := s.resolve()
	return err
}

// resolve validates the spec and fills its defaults.
func (s SearchSpec) resolve() (opt search.Optimizer, budget int, defenses, strategies []string, err error) {
	if s.Base.Topology == nil {
		return nil, 0, nil, nil, errors.New("netfence: SearchSpec.Base needs a topology")
	}
	hasAttack := false
	for _, w := range s.Base.Workloads {
		if _, ok := w.(AttackSpec); ok {
			hasAttack = true
			break
		}
	}
	if !hasAttack {
		return nil, 0, nil, nil, errors.New("netfence: SearchSpec.Base has no AttackSpec workload to search over")
	}
	opt, err = search.New(s.Optimizer)
	if err != nil {
		return nil, 0, nil, nil, err
	}
	budget = s.Budget
	if budget == 0 {
		budget = 24
	}
	if budget < 1 {
		return nil, 0, nil, nil, fmt.Errorf("netfence: SearchSpec.Budget %d must be positive", budget)
	}
	defenses = s.Defenses
	if len(defenses) == 0 {
		name := s.Base.Defense.Name
		if name == "" {
			name = "netfence"
		}
		defenses = []string{name}
	}
	for i, d := range defenses {
		if !slices.Contains(defense.Names(), defense.Canonical(d)) {
			return nil, 0, nil, nil, fmt.Errorf("netfence: SearchSpec defense %q (index %d) is not a registered system (registered: %s)",
				d, i, strings.Join(defense.Names(), ", "))
		}
	}
	strategies = s.Strategies
	if len(strategies) == 0 {
		strategies = attack.Names()
	}
	for i, st := range strategies {
		if !attack.Registered(st) {
			return nil, 0, nil, nil, fmt.Errorf("netfence: SearchSpec strategy %q (index %d) is not a registered strategy (registered: %s)",
				st, i, strings.Join(attack.Names(), ", "))
		}
	}
	return opt, budget, defenses, strategies, nil
}

// RunContext is Run under a context: cancelling aborts between
// candidate batches (in-flight simulations finish), returning the
// context error.
func (s SearchSpec) RunContext(ctx context.Context) (*SearchReport, error) {
	opt, budget, defenses, strategies, err := s.resolve()
	if err != nil {
		return nil, err
	}

	report := &SearchReport{Optimizer: opt.Name(), Budget: budget, Seed: s.Seed, Rows: make([]SearchRow, 0, len(defenses)*len(strategies))}
	total := len(defenses) * len(strategies) * budget
	done := 0
	for _, d := range defenses {
		defStart := len(report.Rows)
		for _, st := range strategies {
			row, evals, err := s.runCell(ctx, opt, d, st, budget, &done, total)
			if err != nil {
				return nil, fmt.Errorf("netfence: search cell %s/%s: %w", defense.Canonical(d), attack.Canonical(st), err)
			}
			row.Evals = evals
			report.Rows = append(report.Rows, row)
		}
		// Mark the defense's worst row: minimum goodput, first wins ties.
		worst := defStart
		for i := defStart + 1; i < len(report.Rows); i++ {
			if report.Rows[i].UserBps < report.Rows[worst].UserBps {
				worst = i
			}
		}
		report.Rows[worst].Worst = true
	}
	return report, nil
}

// runCell searches one (defense × strategy) cell and assembles its row.
func (s SearchSpec) runCell(ctx context.Context, opt search.Optimizer, d, st string, budget int, done *int, total int) (SearchRow, int, error) {
	dims, err := attack.Params(st)
	if err != nil {
		return SearchRow{}, 0, err
	}
	cell := fmt.Sprintf("%s/%s", defense.Canonical(d), attack.Canonical(st))
	byKey := map[string]*Result{}
	var trace []SearchStep
	bestUser := 0.0
	eval := func(batch []search.Vec) ([]float64, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		scs := make([]Scenario, len(batch))
		specs := make([]string, len(batch))
		for i, v := range batch {
			params := v.Params(dims)
			scs[i] = s.cellScenario(d, st, params)
			specs[i] = attack.FormatSpec(st, params)
		}
		results, err := runParallel(ctx, scs, nil)
		if err != nil {
			return nil, err
		}
		damages := make([]float64, len(batch))
		for i, r := range results {
			byKey[specs[i]] = r
			damages[i] = -r.UserBps
			step := SearchStep{Eval: len(trace), Attack: specs[i], UserBps: r.UserBps}
			if len(trace) == 0 || r.UserBps < bestUser {
				bestUser = r.UserBps
				step.Best = true
			}
			trace = append(trace, step)
			*done++
			if s.Progress != nil {
				s.Progress(*done, total, cell)
			}
			if s.OnCandidate != nil {
				s.OnCandidate(cell, step)
			}
		}
		return damages, nil
	}
	best, optTrace, err := opt.Run(dims, budget, cellSeed(s.Seed, d, st), eval)
	if err != nil {
		return SearchRow{}, 0, err
	}
	if len(optTrace) == 0 {
		return SearchRow{}, 0, errors.New("optimizer evaluated no candidates")
	}
	params := best.Params(dims)
	spec := attack.FormatSpec(st, params)
	res := byKey[spec]
	if res == nil {
		return SearchRow{}, 0, fmt.Errorf("optimizer returned unevaluated best %q", spec)
	}
	res.SearchTrace = trace
	row := SearchRow{
		Defense:        res.Defense,
		Topology:       res.Topology,
		Strategy:       attack.Canonical(st),
		Attack:         spec,
		Params:         params,
		UserBps:        res.UserBps,
		DefaultUserBps: trace[0].UserBps,
		AttackerBps:    res.AttackerBps,
		FairShareBps:   res.FairShareBps,
		BoundBps:       res.BoundBps,
		BoundHolds:     res.BoundHolds,
		GapBps:         res.UserBps - res.BoundBps,
		Result:         res,
	}
	row.SuppressionBps = row.DefaultUserBps - row.UserBps
	return row, len(optTrace), nil
}

// cellScenario derives one candidate scenario: Base with the cell's
// defense, the candidate's attack configuration, and the search's
// fixed probe set. The name carries no shard segment, so the report is
// identical across shard counts.
func (s SearchSpec) cellScenario(d, st string, params map[string]float64) Scenario {
	sc := s.Base
	sc.Defense = defenseFor(sc.Defense, d)
	sc.Workloads = retargetAttacks(sc.Workloads, st, params)
	sc.Probes = []Probe{GoodputProbe{}, FairnessProbe{}, FCTProbe{}, BoundProbe{Nu: s.Nu}}
	baseName := sc.Name
	if baseName == "" {
		baseName = "search"
	}
	sc.Name = fmt.Sprintf("%s/%s/attack=%s/seed=%d", baseName, defense.Canonical(d), attack.FormatSpec(st, params), sc.Seed)
	return sc
}

// Gate enforces the Theorem-1 contract on the report: every netfence
// row must clear the goodput floor at its searched worst case. Other
// systems are expected to fall below the floor — that is the point of
// the comparison — so they never fail the gate.
func (r *SearchReport) Gate() error {
	var errs []error
	for _, row := range r.Rows {
		if defense.Canonical(row.Defense) != "netfence" {
			continue
		}
		if !row.BoundHolds {
			errs = append(errs, fmt.Errorf(
				"netfence: searched worst case %s drives user goodput %.0f bps below the Theorem-1 floor %.0f bps",
				row.Attack, row.UserBps, row.BoundBps))
		}
	}
	return errors.Join(errs...)
}

// JSON renders the report as indented JSON (what -out writes for a
// search job).
func (r *SearchReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Table renders the worst-found table: one row per (defense ×
// strategy) cell, the defense's overall worst strategy starred.
func (r *SearchReport) Table() string {
	var rows [][]string
	for _, row := range r.Rows {
		star := ""
		if row.Worst {
			star = "*"
		}
		rows = append(rows, []string{
			row.Defense + star, row.Strategy, row.Attack,
			fmt.Sprintf("%.0f", row.UserBps/1000),
			fmt.Sprintf("%.0f", row.DefaultUserBps/1000),
			fmt.Sprintf("%.0f", row.SuppressionBps/1000),
			fmt.Sprintf("%.0f", row.BoundBps/1000),
			fmt.Sprintf("%.0f", row.GapBps/1000),
			fmt.Sprintf("%v", row.BoundHolds),
			fmt.Sprintf("%d", row.Evals),
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "worst-found table (optimizer=%s budget=%d seed=%d; * = defense's worst strategy)\n",
		r.Optimizer, r.Budget, r.Seed)
	obs.WriteTable(&b, []string{"defense", "strategy", "worst attack", "user kbps", "default", "suppress", "floor", "gap", "holds", "evals"}, rows)
	return b.String()
}
