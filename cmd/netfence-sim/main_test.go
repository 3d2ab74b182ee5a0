package main

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"netfence"
)

// TestParseLists pins the three numeric list parsers behind -seeds,
// -senders and -deploy: whitespace around entries is ignored, an empty
// entry or a bad value is an error, and only -deploy treats an empty
// flag as "axis unused". Range checks belong to the Sweep, not the
// parser: NaN parses here and Sweep.RunContext refuses it.
func TestParseLists(t *testing.T) {
	ints := []struct {
		in   string
		want []int
	}{
		{"20", []int{20}},
		{" 8, 16 ,32 ", []int{8, 16, 32}},
		{"-4", []int{-4}},
		{"", nil},
		{"8,,16", nil},
		{"8,x", nil},
		{"1.5", nil},
	}
	for _, c := range ints {
		got, err := parseInts(c.in)
		if (err != nil) != (c.want == nil) || !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseInts(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}

	uints := []struct {
		in   string
		want []uint64
	}{
		{"1", []uint64{1}},
		{" 1,2, 3", []uint64{1, 2, 3}},
		{"18446744073709551615", []uint64{math.MaxUint64}},
		{"", nil},
		{" ", nil},
		{"-1", nil},
		{"1,two", nil},
		{"18446744073709551616", nil},
	}
	for _, c := range uints {
		got, err := parseUints(c.in)
		if (err != nil) != (c.want == nil) || !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseUints(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}

	floats := []struct {
		in      string
		want    []float64
		wantErr bool
	}{
		{"", nil, false},
		{"  ", nil, false},
		{"0, 0.5 ,1", []float64{0, 0.5, 1}, false},
		{"1e-1", []float64{0.1}, false},
		{"0.5,", nil, true},
		{"half", nil, true},
	}
	for _, c := range floats {
		got, err := parseFloats(c.in)
		if (err != nil) != c.wantErr || !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseFloats(%q) = %v, %v; want %v (error %v)", c.in, got, err, c.want, c.wantErr)
		}
	}
	if got, err := parseFloats("nan"); err != nil || len(got) != 1 || !math.IsNaN(got[0]) {
		t.Errorf("parseFloats(nan) = %v, %v; want [NaN] for the Sweep to refuse", got, err)
	}
}

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

// TestParseAttacks pins -attack: a bare key=val segment continues the
// preceding strategy, and each spec comes back in canonical form.
func TestParseAttacks(t *testing.T) {
	got, err := parseAttacks("onoff-sync:on=2,off=4,flood")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"onoff-sync:on=2,off=4", "flood"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("parseAttacks = %v, want %v", got, want)
	}
	if got, err := parseAttacks(" "); got != nil || err != nil {
		t.Fatalf("parseAttacks(blank) = %v, %v; want the static colluder flood (nil)", got, err)
	}
	if _, err := parseAttacks("off=4,flood"); err == nil {
		t.Fatal("a parameter before any strategy was accepted")
	}
}

// TestCollusionBaseFor builds the scenario -sweep, -search and -trace
// run on every registered topology and the default dumbbell, at small
// and odd populations, with the static flood and the AttackSpec: each
// must Build, keep at least one long-TCP user, and the parking lot
// must round its population down to a multiple of 3, minimum 3.
func TestCollusionBaseFor(t *testing.T) {
	topos := append([]string{""}, netfence.Topologies()...)
	for _, topoName := range topos {
		for _, useAttackSpec := range []bool{false, true} {
			baseFor := collusionBaseFor(topoName, 800_000, 2, 1, useAttackSpec)
			for _, pop := range []int{1, 2, 3, 20} {
				sc := baseFor(pop)
				users := 0
				for _, w := range sc.Workloads {
					if l, ok := w.(netfence.LongTCP); ok {
						users += len(l.Senders)
					}
				}
				if users == 0 {
					t.Errorf("topo %q pop %d attackSpec %v: no long-TCP user", topoName, pop, useAttackSpec)
				}
				if topoName == "parkinglot" {
					rt := sc.Topology.(netfence.RegisteredTopology)
					if want := max(3, pop-pop%3); rt.Population != want {
						t.Errorf("parking lot pop %d: population %d, want %d", pop, rt.Population, want)
					}
				}
				in, err := sc.Build()
				if err != nil {
					t.Errorf("topo %q pop %d attackSpec %v: Build: %v", topoName, pop, useAttackSpec, err)
					continue
				}
				in.Stop()
			}
		}
	}
}
