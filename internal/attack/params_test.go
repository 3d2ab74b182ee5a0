package attack

import (
	"strings"
	"testing"

	"netfence/internal/sim"
)

// TestParamSpecsDeclared checks every in-tree strategy declares a
// tunable surface and the shared rate knob.
func TestParamSpecsDeclared(t *testing.T) {
	for _, name := range Names() {
		specs, err := Params(name)
		if err != nil {
			t.Fatalf("Params(%q): %v", name, err)
		}
		if len(specs) == 0 {
			t.Fatalf("%s declares no tunable params", name)
		}
		hasRate := false
		for _, p := range specs {
			if p.Name == "rate_mult" {
				hasRate = true
			}
		}
		if !hasRate {
			t.Fatalf("%s lacks the shared rate_mult knob: %+v", name, specs)
		}
	}
	if _, err := Params("bogus"); err == nil || !strings.Contains(err.Error(), "registered:") {
		t.Fatalf("unknown strategy error = %v", err)
	}
}

// TestStrategyTable holds every entry of the strategy table to the
// rules Build and ParseSpec rely on: a canonical name and constructor,
// canonical param names without duplicates, and each default inside
// [Min, Max].
func TestStrategyTable(t *testing.T) {
	for name, st := range strategies {
		if name == "" || name != Canonical(name) {
			t.Errorf("strategy %q: name is not canonical", name)
		}
		if st.build == nil {
			t.Errorf("strategy %q: no constructor", name)
		}
		seen := map[string]bool{}
		for _, p := range st.params {
			if p.Name == "" || p.Name != Canonical(p.Name) {
				t.Errorf("strategy %q: param %q is not canonically named", name, p.Name)
			}
			if seen[p.Name] {
				t.Errorf("strategy %q: param %q declared twice", name, p.Name)
			}
			seen[p.Name] = true
			if !(p.Min <= p.Default && p.Default <= p.Max) {
				t.Errorf("strategy %q: param %q default %v outside [%v, %v]", name, p.Name, p.Default, p.Min, p.Max)
			}
		}
	}
}

// TestSpecRoundTrip pins FormatSpec∘ParseSpec as the identity on every
// strategy's full parameter surface.
func TestSpecRoundTrip(t *testing.T) {
	for _, name := range Names() {
		specs, _ := Params(name)
		params := map[string]float64{}
		for _, p := range specs {
			v := p.Max
			if p.Integer {
				v = float64(int(p.Max))
			}
			params[p.Name] = v
		}
		s := FormatSpec(name, params)
		gotName, gotParams, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		if gotName != name || len(gotParams) != len(params) {
			t.Fatalf("round trip %q -> %q %v", s, gotName, gotParams)
		}
		for k, v := range params {
			if gotParams[k] != v {
				t.Fatalf("round trip %q: param %s = %v, want %v", s, k, gotParams[k], v)
			}
		}
		if again := FormatSpec(gotName, gotParams); again != s {
			t.Fatalf("format not canonical: %q != %q", again, s)
		}
	}
	// The bare name round-trips too.
	if s := FormatSpec("flood", nil); s != "flood" {
		t.Fatalf("FormatSpec(flood, nil) = %q", s)
	}
}

// TestParseSpecErrors pins the fail-fast shapes: strategy and offending
// key are always named.
func TestParseSpecErrors(t *testing.T) {
	cases := []struct{ in, want string }{
		{"slowloris", `unknown strategy "slowloris"`},
		{"onoff-sync:dty=2", `attack "onoff-sync": unknown param "dty"`},
		{"flood:rate_mult", `attack "flood": malformed param "rate_mult" (want key=val)`},
		{"flood:rate_mult=fast", `attack "flood": param "rate_mult": bad value "fast"`},
		{"flood:rate_mult=99", "outside [0.1, 8]"},
		{"onoff-sync:on=1.5", "must be an integer"},
		{"flood:rate_mult=2:rate_mult=3", `bad value "2:rate_mult=3"`},
		{":rate_mult=2", "missing strategy name"},
	}
	for _, c := range cases {
		if _, _, err := ParseSpec(c.in); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("ParseSpec(%q) error = %v, want containing %q", c.in, err, c.want)
		}
	}
	if _, _, err := ParseSpec("flood:rate_mult=2,rate_mult=3"); err == nil || !strings.Contains(err.Error(), `given twice`) {
		t.Fatalf("duplicate param error = %v", err)
	}
}

// TestBuildValidatesParams checks Build rejects bad Params maps with
// the strategy named, and accepts full-surface overrides for every
// strategy.
func TestBuildValidatesParams(t *testing.T) {
	if _, err := Build("flood", BuildOptions{Params: map[string]float64{"dty": 1}}); err == nil ||
		!strings.Contains(err.Error(), `attack "flood": unknown param "dty"`) {
		t.Fatalf("Build error = %v", err)
	}
	env := &Env{Eng: sim.New(1), Attackers: 2, BottleneckBps: 1_000_000}
	for _, name := range Names() {
		specs, _ := Params(name)
		params := map[string]float64{}
		for _, p := range specs {
			params[p.Name] = p.Default
		}
		if _, err := Build(name, BuildOptions{Env: env, Params: params}); err != nil {
			t.Fatalf("Build(%q, defaults): %v", name, err)
		}
	}
}

// TestRateMultScalesRate checks the shared knob scales every
// strategy's sending rate.
func TestRateMultScalesRate(t *testing.T) {
	for _, name := range Names() {
		env := &Env{Eng: sim.New(1), Attackers: 1, BottleneckBps: 1_000_000}
		base, err := Build(name, BuildOptions{RateBps: 100_000, Env: env})
		if err != nil {
			t.Fatal(err)
		}
		doubled, err := Build(name, BuildOptions{RateBps: 100_000, Env: env, Params: map[string]float64{"rate_mult": 2}})
		if err != nil {
			t.Fatal(err)
		}
		s := &Sender{ctrl: NewController(base, env)}
		d0, d2 := base.Start(s), doubled.Start(s)
		if d2.RateBps != 2*d0.RateBps {
			t.Fatalf("%s: rate_mult=2 rate %d, want %d", name, d2.RateBps, 2*d0.RateBps)
		}
	}
}
