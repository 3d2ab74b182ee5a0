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
