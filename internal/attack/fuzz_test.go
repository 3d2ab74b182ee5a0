package attack

import "testing"

// FuzzAttackSpec holds the attack-spec parser to its contract on
// arbitrary strings: ParseSpec never panics, whatever it accepts
// re-parses from its canonical rendering (FormatSpec) to the same
// strategy and parameters, and the canonical rendering is a fixed
// point.
func FuzzAttackSpec(f *testing.F) {
	// TestParseSpecErrors and TestSpecRoundTrip's shapes, comma lists,
	// plus whitespace, case and float-syntax variants.
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
			checkCanonical(t, s, name, params)
		}
	})
}

// checkCanonical re-parses an accepted spec from its rendering, failing
// unless the strategy and every parameter survive and the rendering is
// a fixed point.
func checkCanonical(t *testing.T, in, strategy string, params map[string]float64) {
	t.Helper()
	out := FormatSpec(strategy, params)
	name, again, err := ParseSpec(out)
	if err != nil {
		t.Fatalf("%q accepted as %q, which ParseSpec rejects: %v", in, out, err)
	}
	if name != strategy || len(again) != len(params) {
		t.Fatalf("%q accepted as %s %v, re-parsed from %q as %s %v", in, strategy, params, out, name, again)
	}
	for k, v := range params {
		if got, ok := again[k]; !ok || got != v {
			t.Fatalf("%q: param %s = %v, re-parsed from %q as %v", in, k, v, out, got)
		}
	}
	if re := FormatSpec(name, again); re != out {
		t.Fatalf("%q: FormatSpec not a fixed point: %q -> %q", in, out, re)
	}
}
