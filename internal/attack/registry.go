package attack

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// BuildOptions carries construction parameters to a strategy Builder.
type BuildOptions struct {
	// RateBps is the per-sender attack rate (0 = 1 Mbps).
	RateBps int64
	// Env gives the builder the scenario facts adaptive strategies key
	// off: the attack population, the bottleneck capacity and the
	// deployed NetFence parameters. nil builds against defaults, which
	// disables the capacity-derived adaptations.
	Env *Env
	// Params sets the strategy's tunable parameters by name — the
	// numeric surface an adversarial search turns (see the strategy's
	// registered ParamSpecs; -list-attacks prints them). nil keeps every
	// default; set values override the defaults. Build validates keys
	// and ranges against the specs before the builder runs, so a typo
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

// Builder constructs an attack strategy. One Strategy instance drives
// every sender of one attack workload, so builders may precompute
// population-level decisions (the §6.3.1 request level) once.
type Builder func(opts BuildOptions) (Strategy, error)

// entry is one registration: the builder plus its declared parameter
// surface.
type entry struct {
	builder Builder
	params  []ParamSpec
}

var (
	regMu    sync.RWMutex
	registry = map[string]entry{}
)

// Canonical normalizes a registry name: whitespace trimmed, lower-cased.
func Canonical(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}

// Register makes an attack strategy constructible by name through Build.
// The in-tree strategies self-register from an init function ("flood",
// "onoff-sync", "request-prio", "replay", "legacy-flood"); third-party
// strategies may register under any unclaimed name. The optional params
// declare the strategy's tunable surface: Build validates
// BuildOptions.Params against them, and the adversarial search treats
// them as the dimensions of the strategy's configuration space.
// Register panics on an empty name, a nil builder, a malformed spec, or
// a duplicate registration — all programmer errors.
func Register(name string, b Builder, params ...ParamSpec) {
	key := Canonical(name)
	if key == "" {
		panic("attack: Register with empty name")
	}
	if b == nil {
		panic(fmt.Sprintf("attack: Register(%q) with nil builder", name))
	}
	checkSpecs(key, params)
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[key]; dup {
		panic(fmt.Sprintf("attack: Register(%q) called twice", key))
	}
	registry[key] = entry{builder: b, params: params}
}

// Registered reports whether a strategy name resolves in the registry.
func Registered(name string) bool {
	regMu.RLock()
	defer regMu.RUnlock()
	_, ok := registry[Canonical(name)]
	return ok
}

// Build resolves name in the registry, validates opts.Params against
// the strategy's declared ParamSpecs, and constructs the strategy.
func Build(name string, opts BuildOptions) (Strategy, error) {
	regMu.RLock()
	e, ok := registry[Canonical(name)]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("attack: unknown strategy %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	if err := validateParams(e.params, opts.Params); err != nil {
		return nil, fmt.Errorf("attack %q: %w", Canonical(name), err)
	}
	s, err := e.builder(opts)
	if err != nil {
		return nil, fmt.Errorf("attack %q: %w", Canonical(name), err)
	}
	return s, nil
}

// Params returns a copy of the strategy's declared parameter specs, in
// declaration order (the canonical dimension order of its search
// space). An unregistered name errors with the registered names, the
// same shape Build reports.
func Params(name string) ([]ParamSpec, error) {
	regMu.RLock()
	e, ok := registry[Canonical(name)]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("attack: unknown strategy %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	out := make([]ParamSpec, len(e.params))
	copy(out, e.params)
	return out, nil
}

// Names returns the sorted canonical names of every registered strategy.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
