package attack

import (
	"strings"
	"testing"
)

// FuzzAttackSpec holds the attack-spec parsers to their contract on
// arbitrary strings: ParseSpec and ParseSpecList never panic, whatever
// they accept re-parses from its canonical rendering (Spec.String /
// FormatSpec) to the same strategy and parameters, and the canonical
// rendering is a fixed point. A list re-parses from its specs joined
// by commas — the CLI's -attack flag — to the same list.
func FuzzAttackSpec(f *testing.F) {
	// TestParseSpecErrors, TestParseSpecList and TestSpecRoundTrip's
	// shapes, plus whitespace, case and float-syntax variants.
	for _, s := range []string{
		"flood", "slowloris", "onoff-sync:dty=2", "flood:rate_mult",
		"flood:rate_mult=fast", "flood:rate_mult=99", "onoff-sync:on=1.5",
		"flood:rate_mult=2:rate_mult=3", ":rate_mult=2",
		"flood:rate_mult=2,rate_mult=3",
		"onoff-sync:on=2,off=4,flood, replay:cadence=3",
		"on=2,flood", "flood:dty=2", "onoff-sync:on=1,off=4,trickle_bps=10000",
		" Replay : Cadence = 3 ", "flood:rate_mult=0x1p-1", "flood:rate_mult=1e0",
		"request-prio,legacy-flood,", "flood:", ",,", "",
	} {
		f.Add(s)
	}
	for _, name := range Names() {
		specs, _ := Params(name)
		params := map[string]float64{}
		for _, p := range specs {
			params[p.Name] = p.Max
		}
		f.Add(FormatSpec(name, params))
	}
	f.Fuzz(func(t *testing.T, s string) {
		if name, params, err := ParseSpec(s); err == nil {
			checkCanonical(t, s, Spec{Strategy: name, Params: params})
		}
		specs, err := ParseSpecList(s)
		if err != nil {
			return
		}
		rendered := make([]string, len(specs))
		for i, sp := range specs {
			rendered[i] = checkCanonical(t, s, sp)
		}
		joined := strings.Join(rendered, ",")
		again, err := ParseSpecList(joined)
		if err != nil {
			t.Fatalf("ParseSpecList(%q) accepted, its rendering %q rejected: %v", s, joined, err)
		}
		if len(again) != len(specs) {
			t.Fatalf("ParseSpecList(%q): %d specs, its rendering %q: %d", s, len(specs), joined, len(again))
		}
		for i := range again {
			if got := again[i].String(); got != rendered[i] {
				t.Fatalf("ParseSpecList(%q) spec %d: %q, re-parsed from %q: %q", s, i, rendered[i], joined, got)
			}
		}
	})
}

// checkCanonical re-parses an accepted spec from its rendering and
// returns that rendering, failing unless the strategy and every
// parameter survive and the rendering is a fixed point.
func checkCanonical(t *testing.T, in string, sp Spec) string {
	t.Helper()
	out := sp.String()
	name, params, err := ParseSpec(out)
	if err != nil {
		t.Fatalf("%q accepted as %q, which ParseSpec rejects: %v", in, out, err)
	}
	if name != sp.Strategy || len(params) != len(sp.Params) {
		t.Fatalf("%q accepted as %s %v, re-parsed from %q as %s %v", in, sp.Strategy, sp.Params, out, name, params)
	}
	for k, v := range sp.Params {
		if got, ok := params[k]; !ok || got != v {
			t.Fatalf("%q: param %s = %v, re-parsed from %q as %v", in, k, v, out, got)
		}
	}
	if again := FormatSpec(name, params); again != out {
		t.Fatalf("%q: FormatSpec not a fixed point: %q -> %q", in, out, again)
	}
	return out
}
