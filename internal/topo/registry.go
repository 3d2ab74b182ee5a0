package topo

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"netfence/internal/sim"
)

// BuildOptions carries optional construction parameters to a Builder.
type BuildOptions struct {
	// Population overrides the builder's default total sender population
	// (0 or less = the builder's default). Builders must reject
	// populations they cannot realize (e.g. a parking lot population not
	// divisible by 3).
	Population int
}

// Builder constructs a role-tagged topology graph on eng.
type Builder func(eng *sim.Engine, opts BuildOptions) (*Graph, error)

var (
	regMu    sync.RWMutex
	registry = map[string]Builder{}
)

// Canonical normalizes a registry name: whitespace trimmed, lower-cased.
func Canonical(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}

// Register makes a topology constructible by name through Build. The
// root netfence package registers the in-tree topologies ("dumbbell",
// "parkinglot", "star", "random-as") as its typed specs; third-party
// topologies may register under any unclaimed name. Register panics on
// an empty name, a nil builder, or a duplicate registration — all
// programmer errors.
func Register(name string, b Builder) {
	key := Canonical(name)
	if key == "" {
		panic("topo: Register with empty name")
	}
	if b == nil {
		panic(fmt.Sprintf("topo: Register(%q) with nil builder", name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[key]; dup {
		panic(fmt.Sprintf("topo: Register(%q) called twice", key))
	}
	registry[key] = b
}

// Build resolves name in the registry and constructs the graph on eng.
func Build(name string, eng *sim.Engine, opts BuildOptions) (*Graph, error) {
	regMu.RLock()
	b := registry[Canonical(name)]
	regMu.RUnlock()
	if b == nil {
		return nil, fmt.Errorf("topo: unknown topology %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	g, err := b(eng, opts)
	if err != nil {
		return nil, fmt.Errorf("topo %q: %w", Canonical(name), err)
	}
	return g.Build(), nil
}

// Names returns the sorted canonical names of every registered topology.
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
