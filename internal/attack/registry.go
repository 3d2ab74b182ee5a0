package attack

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// BuildOptions carries construction parameters to a strategy.
type BuildOptions struct {
	// RateBps is the per-sender attack rate (0 = 1 Mbps).
	RateBps int64
	// Env gives the scenario facts adaptive strategies key off: the
	// attack population and the bottleneck capacity. nil builds
	// against defaults, which disables the capacity-derived adaptations.
	Env *Env
	// Params sets the strategy's tunable parameters by name — the
	// numeric surface an adversarial search turns (see the strategy's
	// declared ParamSpecs; -list attacks prints them). nil keeps every
	// default; set values override the defaults. Build validates keys
	// and ranges against the specs before the strategy is built, so a typo
	// fails fast with the strategy and key named.
	Params map[string]float64
}

// Param returns the parameter value for key, or def when unset.
func (o BuildOptions) Param(key string, def float64) float64 {
	if v, ok := o.Params[key]; ok {
		return v
	}
	return def
}

// strategy is one in-tree strategy: its constructor plus its declared
// parameter surface. One Strategy instance drives every sender of one
// attack workload, so a constructor may precompute population-level
// decisions (the §6.3.1 request level) once.
type strategy struct {
	build  func(opts BuildOptions) (Strategy, error)
	params []ParamSpec
}

// Canonical normalizes a strategy name: whitespace trimmed, lower-cased.
func Canonical(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}

// lookup resolves name in the strategy table, erroring with every
// strategy name when it is unknown.
func lookup(name string) (strategy, error) {
	st, ok := strategies[Canonical(name)]
	if !ok {
		return strategy{}, fmt.Errorf("attack: unknown strategy %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	return st, nil
}

// Registered reports whether a strategy name resolves in the table.
func Registered(name string) bool {
	_, ok := strategies[Canonical(name)]
	return ok
}

// Build resolves name in the strategy table, validates opts.Params
// against the strategy's declared ParamSpecs, and constructs it.
func Build(name string, opts BuildOptions) (Strategy, error) {
	st, err := lookup(name)
	if err != nil {
		return nil, err
	}
	if err := validateParams(st.params, opts.Params); err != nil {
		return nil, fmt.Errorf("attack %q: %w", Canonical(name), err)
	}
	s, err := st.build(opts)
	if err != nil {
		return nil, fmt.Errorf("attack %q: %w", Canonical(name), err)
	}
	return s, nil
}

// Params returns a copy of the strategy's declared parameter specs, in
// declaration order (the canonical dimension order of its search
// space). An unknown name errors with the strategy names, the same
// shape Build reports.
func Params(name string) ([]ParamSpec, error) {
	st, err := lookup(name)
	if err != nil {
		return nil, err
	}
	return slices.Clone(st.params), nil
}

// Names returns the sorted canonical names of every strategy.
func Names() []string {
	out := make([]string, 0, len(strategies))
	for name := range strategies {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
