package server

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzJobSpec holds the shared job-spec entry point to its contract on
// arbitrary bytes: decoded by DecodeSpec, as POST /jobs and
// `netfence-sim -spec` decode, a spec never panics Validate (conversion,
// mutation Validate, SearchSpec.Validate), and whatever it accepts
// converts to the same netfence value a second time. The example spec
// files seed it.
func FuzzJobSpec(f *testing.F) {
	smoke := smokeSpec()
	parkingLot := smoke
	parkingLot.Topology = TopologySpec{Kind: "parkinglot", SendersPerGroup: 4, L1Bps: 1_000_000, L2Bps: 500_000}
	parkingLot.Workloads = []WorkloadSpec{{Kind: "longtcp", Group: 2, Senders: []int{0, 3}}, {Kind: "onoffflood", From: 1, To: 3, OnSec: 1, OffSec: 2}}
	seeds := []JobSpec{
		{Scenario: &smoke, StreamIntervalSec: 1, PauseAtSec: []float64{3, 5}},
		{Scenario: &parkingLot},
		{Sweep: &SweepSpec{
			Base: smoke, Defenses: []string{"netfence", "fq"}, Seeds: []uint64{1, 2},
			Populations: []int{8, 16}, DeployFractions: []float64{0.5, 1}, Shards: []int{1, 2},
			Timelines: []NamedTimelineSpec{{Name: "cut", Timeline: []MutationSpec{{AtSec: 2, Deploy: &DeployMutationSpec{Fraction: 0.5}}}}},
		}},
		{Search: &SearchJobSpec{Base: smoke, Strategies: []string{"flood"}, Budget: 4, Optimizer: "anneal"}},
	}
	for _, tc := range submitCases() {
		seeds = append(seeds, tc.spec)
	}
	for _, spec := range seeds {
		raw, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	// The spec that once made submit allocate 8 TB, as a client sends it.
	f.Add([]byte(`{"scenario":{"topology":{"kind":"dumbbell","senders":4,"bottleneck_bps":1000000},` +
		`"workloads":[{"kind":"longtcp","from":0,"to":1000000000000}]}}`))
	files, err := filepath.Glob("../../examples/specs/*.json")
	if err != nil || len(files) == 0 {
		f.Fatalf("no example specs: %v", err)
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		spec, err := DecodeSpec(bytes.NewReader(raw))
		if err != nil || Validate(spec) != nil {
			return
		}
		first, second := convert(t, spec), convert(t, spec)
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("%s converts to\n%#v\nthen to\n%#v", raw, first, second)
		}
	})
}

// convert converts a validated spec to its netfence value.
func convert(t *testing.T, spec JobSpec) any {
	t.Helper()
	var (
		v   any
		err error
	)
	switch {
	case spec.Scenario != nil:
		v, err = spec.Scenario.Scenario()
	case spec.Sweep != nil:
		v, err = spec.Sweep.Sweep()
	default:
		v, err = spec.Search.Search()
	}
	if err != nil {
		t.Fatalf("a validated spec failed to convert: %v", err)
	}
	return v
}
