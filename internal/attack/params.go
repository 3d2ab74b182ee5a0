package attack

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ParamSpec declares one tunable parameter of an attack strategy: the
// knob an adversarial search turns. Every strategy registers its specs
// alongside its builder; BuildOptions.Params sets values by Name, and
// Build validates them against the specs before the builder runs.
type ParamSpec struct {
	// Name is the canonical key ("rate_mult", "on", "cadence", ...).
	Name string
	// Desc is the one-line help printed by -list-attacks.
	Desc string
	// Min and Max bound the value (inclusive); Default is the value an
	// unset parameter takes.
	Min, Max, Default float64
	// Integer constrains values to whole numbers (interval counts,
	// priority levels).
	Integer bool
}

// Type renders the spec's value type for display.
func (p ParamSpec) Type() string {
	if p.Integer {
		return "int"
	}
	return "float"
}

// checkSpecs validates a registration's spec list — programmer errors,
// reported by panic from Register.
func checkSpecs(name string, specs []ParamSpec) {
	seen := map[string]bool{}
	for _, p := range specs {
		if p.Name == "" {
			panic(fmt.Sprintf("attack: Register(%q) with unnamed ParamSpec", name))
		}
		if seen[p.Name] {
			panic(fmt.Sprintf("attack: Register(%q) declares param %q twice", name, p.Name))
		}
		seen[p.Name] = true
		if p.Min > p.Max || p.Default < p.Min || p.Default > p.Max {
			panic(fmt.Sprintf("attack: Register(%q) param %q has default %v outside [%v, %v]", name, p.Name, p.Default, p.Min, p.Max))
		}
	}
}

// validateParams checks a Params map against a strategy's specs:
// every key must name a declared parameter, every value must sit in
// its range, and integer parameters take whole numbers only. Keys are
// checked in sorted order so the first error is deterministic.
func validateParams(specs []ParamSpec, params map[string]float64) error {
	if len(params) == 0 {
		return nil
	}
	byName := make(map[string]ParamSpec, len(specs))
	names := make([]string, 0, len(specs))
	for _, p := range specs {
		byName[p.Name] = p
		names = append(names, p.Name)
	}
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		spec, ok := byName[k]
		if !ok {
			if len(names) == 0 {
				return fmt.Errorf("unknown param %q (strategy has no tunable params)", k)
			}
			return fmt.Errorf("unknown param %q (params: %s)", k, strings.Join(names, ", "))
		}
		v := params[k]
		if math.IsNaN(v) || v < spec.Min || v > spec.Max {
			return fmt.Errorf("param %s=%v outside [%v, %v]", k, v, spec.Min, spec.Max)
		}
		if spec.Integer && v != math.Trunc(v) {
			return fmt.Errorf("param %s=%v must be an integer", k, v)
		}
	}
	return nil
}

// ParseSpec parses an attack option string — "name" or
// "name:key=val,key=val" — into the canonical strategy name and its
// parameter map, failing fast with the strategy and offending key
// named: an unknown strategy reports the registered names, an unknown
// or out-of-range key reports the strategy's declared params.
func ParseSpec(s string) (name string, params map[string]float64, err error) {
	head, rest, hasParams := strings.Cut(s, ":")
	name = Canonical(head)
	if name == "" {
		return "", nil, fmt.Errorf("attack spec %q: missing strategy name", s)
	}
	if !Registered(name) {
		return "", nil, fmt.Errorf("attack: unknown strategy %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	if !hasParams {
		return name, nil, nil
	}
	params = map[string]float64{}
	for _, kv := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(kv, "=")
		k = strings.ToLower(strings.TrimSpace(k))
		if !ok || k == "" {
			return "", nil, fmt.Errorf("attack %q: malformed param %q (want key=val)", name, strings.TrimSpace(kv))
		}
		if _, dup := params[k]; dup {
			return "", nil, fmt.Errorf("attack %q: param %q given twice", name, k)
		}
		f, ferr := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if ferr != nil {
			return "", nil, fmt.Errorf("attack %q: param %q: bad value %q", name, k, strings.TrimSpace(v))
		}
		params[k] = f
	}
	specs, _ := Params(name)
	if err := validateParams(specs, params); err != nil {
		return "", nil, fmt.Errorf("attack %q: %w", name, err)
	}
	return name, params, nil
}

// FormatSpec renders a (strategy, params) pair in canonical form —
// "name" or "name:key=val,..." with keys in ParamSpec declaration
// order and minimal float formatting — so equal configurations always
// render byte-identically. FormatSpec and ParseSpec round-trip. Keys
// not declared by the strategy (unregistered names pass through too)
// append in sorted order.
func FormatSpec(name string, params map[string]float64) string {
	name = Canonical(name)
	if len(params) == 0 {
		return name
	}
	specs, _ := Params(name)
	var parts []string
	emitted := map[string]bool{}
	for _, p := range specs {
		if v, ok := params[p.Name]; ok {
			parts = append(parts, p.Name+"="+strconv.FormatFloat(v, 'g', -1, 64))
			emitted[p.Name] = true
		}
	}
	var extra []string
	for k := range params {
		if !emitted[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		parts = append(parts, k+"="+strconv.FormatFloat(params[k], 'g', -1, 64))
	}
	return name + ":" + strings.Join(parts, ",")
}
