package main

import (
	"reflect"
	"strings"
	"testing"

	"netfence"
)

// TestParseDefenses pins -defense: names are canonicalised the way the
// registry does it (case, whitespace, a trailing "+"), empty entries
// are skipped, and an unknown name reports every registered one.
func TestParseDefenses(t *testing.T) {
	got, err := parseDefenses(" NetFence, TVA+ ,,fq")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"netfence", "tva", "fq"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("parseDefenses = %v, want %v", got, want)
	}
	if got, err := parseDefenses("  "); got != nil || err != nil {
		t.Fatalf("parseDefenses(blank) = %v, %v; want the default lineup (nil)", got, err)
	}
	_, err = parseDefenses("netfence,aitf")
	if err == nil || !strings.Contains(err.Error(), `unknown defense "aitf"`) {
		t.Fatalf("parseDefenses(aitf) error = %v", err)
	}
	for _, name := range netfence.Defenses() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-defense error %q does not list registered %q", err, name)
		}
	}
}

// TestListRegistered runs every -list value: each prints its registry,
// -list topologies prints exactly the four in-tree names, and an
// unknown value is refused with the accepted ones.
func TestListRegistered(t *testing.T) {
	for _, what := range []string{"experiments", "defenses", "topologies", "attacks", "metrics"} {
		var b strings.Builder
		if err := listRegistered(&b, what); err != nil {
			t.Fatalf("-list %s: %v", what, err)
		}
		if b.Len() == 0 {
			t.Errorf("-list %s printed nothing", what)
		}
		if what == "topologies" {
			if want := "dumbbell\nparkinglot\nrandom-as\nstar\n"; b.String() != want {
				t.Errorf("-list topologies = %q, want %q", b.String(), want)
			}
		}
	}
	var b strings.Builder
	err := listRegistered(&b, "figures")
	if err == nil || !strings.Contains(err.Error(), `unknown -list "figures"`) || !strings.Contains(err.Error(), "topologies") {
		t.Fatalf("-list figures error = %v", err)
	}
}
