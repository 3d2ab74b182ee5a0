package netfence

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"netfence/internal/attack"
	"netfence/internal/defense"
)

// Sweep fans a scenario matrix — defenses × populations × deployment
// fractions × attacks × seeds × shard counts — across goroutines, one
// engine (or engine group, for sharded cells) per scenario, and
// returns a unified result set. Results are deterministic: the matrix
// expands in a fixed order, every scenario runs on its own seeded
// engine, and results land in matrix order regardless of worker count
// (GOMAXPROCS sets it), so the same sweep always produces an identical
// []*Result.
//
//	results, err := netfence.Sweep{
//		Base:     base,
//		Defenses: []string{"netfence", "tva", "stopit", "fq"},
//		Seeds:    []uint64{1, 2, 3},
//	}.Run()
type Sweep struct {
	// Base is the scenario every matrix cell derives from.
	Base Scenario
	// Defenses lists registry names to sweep (nil = just Base's defense).
	Defenses []string
	// Populations lists sender populations to sweep (nil = just Base's).
	// Each entry only rebuilds Base's topology at that population —
	// Base's workload sender lists are kept verbatim, which suits
	// populations at or above every listed index but errors below them.
	// A role split that scales with the population is one Base (one
	// sweep) per population.
	Populations []int
	// DeployFractions lists partial-deployment fractions to sweep: each
	// cell deploys the defense on that fraction of source ASes via
	// DeployFraction (nil = just Base's Deployment). The incremental-
	// deployment axis of the paper's "inside out" story.
	DeployFractions []float64
	// Attacks lists attack specs to sweep — registry names, optionally
	// parameterized ("onoff-sync:on=1,off=4"): each cell re-targets
	// every AttackSpec workload of Base at that strategy with those
	// parameter overrides (nil = keep the workloads' declared
	// strategies). The adaptive-adversary axis of §6.3.
	Attacks []string
	// Timelines lists named mutation timelines to sweep: each cell runs
	// the scenario under that Timeline (nil = just Base's Timeline). The
	// time-varying-conditions axis — e.g. the same attack under a static
	// bottleneck, a mid-run degradation, and a mid-run deployment change.
	Timelines []NamedTimeline
	// Seeds lists RNG seeds to sweep (nil = just Base's).
	Seeds []uint64
	// Shards lists per-scenario shard counts to sweep (nil = just
	// Base's Shards): each cell runs its engines partitioned that many
	// ways — the parallel-execution axis, for speedup and equivalence
	// studies.
	Shards []int
	// Progress, when set, is called after each cell completes (or fails)
	// with the number of finished cells, the matrix total, and the cell's
	// name. Calls are serialized; done reaches total when the sweep ends.
	// The serve mode's job status and the CLI's -progress flag hang off
	// this hook.
	Progress func(done, total int, cell string)
}

// NamedTimeline is one entry of the Sweep's timeline axis: a scenario
// Timeline with the name its cells carry (`/timeline=<name>`).
type NamedTimeline struct {
	Name     string
	Timeline []Mutation
}

// Scenarios expands the matrix in its deterministic order:
// defense-major, then population, then deployment fraction, then attack,
// then seed.
func (sw Sweep) Scenarios() []Scenario {
	defenses := sw.Defenses
	if len(defenses) == 0 {
		name := sw.Base.Defense.Name
		if name == "" {
			name = "netfence"
		}
		defenses = []string{name}
	}
	pops := sw.Populations
	if len(pops) == 0 {
		pops = []int{0} // keep the base topology
	}
	// The deployment axis keeps cell names stable when unused: a nil
	// axis reuses Base's Deployment and adds no name segment.
	deploys := sw.DeployFractions
	sweepDeploy := len(deploys) > 0
	if !sweepDeploy {
		deploys = []float64{-1}
	}
	attacks := sw.Attacks
	sweepAttack := len(attacks) > 0
	if !sweepAttack {
		attacks = []string{""}
	}
	timelines := sw.Timelines
	sweepTimeline := len(timelines) > 0
	if !sweepTimeline {
		timelines = []NamedTimeline{{}} // keep Base's Timeline
	}
	seeds := sw.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{sw.Base.Seed}
	}
	shardsAxis := sw.Shards
	sweepShards := len(shardsAxis) > 0
	if !sweepShards {
		shardsAxis = []int{0} // keep the base scenario's Shards
	}
	baseName := sw.Base.Name
	if baseName == "" {
		baseName = "sweep"
	}
	var out []Scenario
	for _, d := range defenses {
		for _, pop := range pops {
			for _, dep := range deploys {
				for _, atk := range attacks {
					for _, tl := range timelines {
						for _, seed := range seeds {
							for _, nsh := range shardsAxis {
								sc := sw.Base
								if pop > 0 && sc.Topology != nil {
									sc.Topology = sc.Topology.withPopulation(pop)
								}
								sc.Defense = defenseFor(sw.Base.Defense, d)
								sc.Seed = seed
								// A registry-resolved spec on its builder default has
								// no declared population; omit the segment rather
								// than reporting a misleading n=0.
								popSeg := ""
								if sc.Topology != nil {
									if n := sc.Topology.population(); n > 0 {
										popSeg = fmt.Sprintf("/n=%d", n)
									}
								}
								deploySeg := ""
								if sweepDeploy {
									sc.Deployment = DeployFraction(dep)
									deploySeg = fmt.Sprintf("/deploy=%.2f", dep)
								}
								attackSeg := ""
								if sweepAttack {
									// Scenarios has no error return; an invalid spec keeps
									// its raw canonical name here and fails in checkAttacks.
									name, params, err := attack.ParseSpec(atk)
									if err != nil {
										name, params = attack.Canonical(atk), nil
									}
									sc.Workloads = retargetAttacks(sc.Workloads, name, params)
									attackSeg = fmt.Sprintf("/attack=%s", attack.FormatSpec(name, params))
								}
								timelineSeg := ""
								if sweepTimeline {
									sc.Timeline = tl.Timeline
									timelineSeg = fmt.Sprintf("/timeline=%s", tl.Name)
								}
								shardSeg := ""
								if sweepShards {
									sc.Shards = nsh
									shardSeg = fmt.Sprintf("/shards=%d", nsh)
								}
								sc.Name = fmt.Sprintf("%s/%s%s%s%s%s%s/seed=%d", baseName, defense.Canonical(d), popSeg, deploySeg, attackSeg, timelineSeg, shardSeg, seed)
								out = append(out, sc)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// defenseFor returns the defense of a cell that runs system d on top of
// base, for the sweep's defense axis and the search's cells alike: a
// system-specific Config survives only onto its own system (an empty
// base name means "netfence"); other systems build with their defaults.
func defenseFor(base DefenseSpec, d string) DefenseSpec {
	own := defense.Canonical(base.Name)
	if own == "" {
		own = "netfence"
	}
	if defense.Canonical(d) == own {
		return DefenseSpec{Name: d, Config: base.Config}
	}
	return DefenseSpec{Name: d}
}

// retargetAttacks copies a workload list with every AttackSpec pointed
// at the given strategy with the given parameter overrides, leaving the
// input (shared with Base across matrix cells) untouched.
// Strategy-specific Params only survive onto cells of their own
// declared strategy — the same rule the defense axis applies to
// Defense.Config — so a foreign strategy's cells build with defaults
// instead of erroring on a param key they reject. Axis params, when
// present, replace the workload's own.
func retargetAttacks(ws []Workload, strategy string, params map[string]float64) []Workload {
	out := make([]Workload, len(ws))
	for i, w := range ws {
		if as, ok := w.(AttackSpec); ok {
			declared := as.Strategy
			if declared == "" {
				declared = "flood"
			}
			if attack.Canonical(declared) != attack.Canonical(strategy) {
				as.Params = nil
			}
			as.Strategy = strategy
			if params != nil {
				as.Params = params
			}
			out[i] = as
			continue
		}
		out[i] = w
	}
	return out
}

// Run executes the matrix and returns results in matrix order. A failing
// cell leaves a nil slot; the error joins every failure alongside the
// completed cells' results.
func (sw Sweep) Run() ([]*Result, error) {
	return sw.RunContext(context.Background())
}

// RunContext is Run under a context: when ctx is cancelled, in-flight
// cells run to completion (a discrete-event engine has no safe
// mid-window abort), remaining cells are skipped with nil slots, and
// the joined error includes ctx's error — so an interrupted sweep
// still returns every completed cell's result, the checkpoint the CLI
// flushes on SIGINT.
func (sw Sweep) RunContext(ctx context.Context) ([]*Result, error) {
	for _, p := range sw.Populations {
		if p <= 0 {
			return nil, fmt.Errorf("netfence: Sweep population %d must be positive", p)
		}
		if err := sw.checkPopulation(p); err != nil {
			return nil, err
		}
	}
	for _, f := range sw.DeployFractions {
		if !(f >= 0 && f <= 1) { // NaN fails too
			return nil, fmt.Errorf("netfence: Sweep deployment fraction %v outside [0, 1]", f)
		}
	}
	for _, n := range sw.Shards {
		if n == 0 || (n < 0 && n != AutoShards) {
			return nil, fmt.Errorf("netfence: Sweep shard count %d must be positive or AutoShards", n)
		}
	}
	if err := sw.checkAttacks(); err != nil {
		return nil, err
	}
	for i, tl := range sw.Timelines {
		for j, m := range tl.Timeline {
			if err := m.Validate(); err != nil {
				return nil, fmt.Errorf("netfence: Sweep timeline %q (index %d) mutation %d: %w", tl.Name, i, j, err)
			}
		}
	}
	scs := sw.Scenarios()
	var onDone func(i int)
	if sw.Progress != nil {
		var mu sync.Mutex
		done := 0
		onDone = func(i int) {
			// The callback runs under the mutex so calls are serialized
			// and done counts monotonically as delivered.
			mu.Lock()
			defer mu.Unlock()
			done++
			sw.Progress(done, len(scs), scs[i].Name)
		}
	}
	return runParallel(ctx, scs, onDone)
}

// checkAttacks fails fast on an unknown attack name — naming the
// offending entry and the registered strategies instead of erroring
// from deep inside workload attachment — and on an Attacks axis with no
// AttackSpec workload to re-target (without this, every /attack= cell
// would silently run identical workloads).
func (sw Sweep) checkAttacks() error {
	for i, a := range sw.Attacks {
		if !attack.Registered(a) {
			if _, _, err := attack.ParseSpec(a); err != nil {
				return fmt.Errorf("netfence: Sweep attack %q (index %d): %w", a, i, err)
			}
		}
	}
	if len(sw.Attacks) == 0 {
		return nil
	}
	for _, w := range sw.Base.Workloads {
		if _, ok := w.(AttackSpec); ok {
			return nil
		}
	}
	return errors.New("netfence: Sweep.Attacks is set, but Base has no AttackSpec workload to re-target")
}

// checkPopulation fails fast when a population cell is too small for
// Base's declared workload sender lists — naming the offending workload
// and index instead of erroring from deep inside topology build.
func (sw Sweep) checkPopulation(pop int) error {
	if sw.Base.Topology == nil {
		return nil
	}
	sizes := sw.Base.Topology.withPopulation(pop).groupSizes()
	if sizes == nil {
		return nil // registry-resolved spec: capacity unknown until build
	}
	for _, w := range sw.Base.Workloads {
		kind, group, max := w.span()
		if max < 0 {
			continue
		}
		if group < 0 || group >= len(sizes) {
			return fmt.Errorf("netfence: Sweep workload %s targets group %d, but the topology has %d groups", kind, group, len(sizes))
		}
		if max >= sizes[group] {
			return fmt.Errorf("netfence: Sweep population %d is too small for workload %s: sender index %d needs at least %d senders in group %d, got %d",
				pop, kind, max, max+1, group, sizes[group])
		}
	}
	return nil
}

// cpuTokens is a weighted semaphore over GOMAXPROCS: each in-flight
// sweep cell holds as many tokens as it has shard goroutines, so the
// sum of running shards never exceeds the CPU budget while cells of
// different widths pack freely (a shards=8 cell does not halve the
// concurrency of the shards=1 cells around it).
type cpuTokens struct {
	mu   sync.Mutex
	cond *sync.Cond
	free int
}

func newCPUTokens(n int) *cpuTokens {
	t := &cpuTokens{free: n}
	t.cond = sync.NewCond(&t.mu)
	return t
}

func (t *cpuTokens) acquire(n int) {
	t.mu.Lock()
	for t.free < n {
		t.cond.Wait()
	}
	t.free -= n
	t.mu.Unlock()
}

func (t *cpuTokens) release(n int) {
	t.mu.Lock()
	t.free += n
	t.mu.Unlock()
	t.cond.Broadcast()
}

// cellWidth is the CPU-token cost of one built scenario: its realized
// shard count (AutoShards already resolved and clamped by Build),
// clamped to the budget so every cell can run at all.
func cellWidth(in *Instance, budget int) int {
	n := 1
	if in.Sharding != nil {
		n = in.Sharding.Shards
	}
	if n < 1 {
		n = 1
	}
	if n > budget {
		n = budget
	}
	return n
}

// runParallel drives scenarios across a pool of GOMAXPROCS workers,
// slotting each result at its scenario's index. It budgets the sum of
// in-flight shard goroutines to GOMAXPROCS via a weighted semaphore:
// every sharded cell brings its own goroutines, and running more than
// the budget allows makes each cell's shards wait on descheduled
// neighbours — oversubscription slows the whole sweep down rather than
// speeding it up. GOMAXPROCS is the one concurrency lever.
//
// Cancelling ctx stops feeding new cells (and makes queued workers drop
// their items); cells already running finish normally. onDone, when
// set, is invoked once per attempted cell — completed or failed — with
// its scenario index.
func runParallel(ctx context.Context, scs []Scenario, onDone func(i int)) ([]*Result, error) {
	budget := runtime.GOMAXPROCS(0)
	tokens := newCPUTokens(budget)
	workers := min(budget, len(scs))
	results := make([]*Result, len(scs))
	errs := make([]error, len(scs)+1)
	work := make(chan int)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				// A cancellation between feed and pickup: skip the cell,
				// leave its slot nil without a per-cell error (the joined
				// ctx error already says why).
				if ctx.Err() != nil {
					continue
				}
				// Build before costing: the instance knows its realized
				// shard count (AutoShards resolved against the actual
				// topology), so an auto-sharded cell over a small
				// topology is charged what it really uses. At most
				// GOMAXPROCS built-but-waiting cells exist, the same
				// bound as running cells.
				in, err := scs[i].Build()
				if err != nil {
					errs[i] = err
					if onDone != nil {
						onDone(i)
					}
					continue
				}
				n := cellWidth(in, budget)
				tokens.acquire(n)
				results[i] = in.Run()
				tokens.release(n)
				if onDone != nil {
					onDone(i)
				}
			}
		}()
	}
feed:
	for i := range scs {
		select {
		case work <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		errs[len(scs)] = fmt.Errorf("netfence: sweep interrupted: %w", err)
	}
	return results, errors.Join(errs...)
}
