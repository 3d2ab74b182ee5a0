package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"netfence"
	"netfence/internal/server"
)

// specDir holds the example job specs.
const specDir = "../../examples/specs"

var specFiles = []string{"sweep.json", "search.json", "trace.json", "ci-trace.json", "ci-search.json"}

// specGolden is one pinned spec-file run: the sha256 of its Result JSON
// and the events it executed.
type specGolden struct {
	Result string `json:"result_sha256"`
	Events uint64 `json:"events"`
}

// loadSpec decodes and validates an example spec through the service's
// entry point, as POST /jobs and -spec do.
func loadSpec(t *testing.T, name string) server.JobSpec {
	t.Helper()
	f, err := os.Open(filepath.Join(specDir, name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spec, err := server.DecodeSpec(f)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := server.Validate(spec); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return spec
}

// runGolden runs a Scenario or Sweep on a fresh meter and condenses it
// into its pinned form.
func runGolden(t *testing.T, v any) specGolden {
	t.Helper()
	meter := &netfence.Meter{}
	var (
		res any
		err error
	)
	switch v := v.(type) {
	case netfence.Scenario:
		v.Meter = meter
		res, err = v.Run()
	case netfence.Sweep:
		v.Base.Meter = meter
		res, err = v.Run()
	}
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return specGolden{Result: hex.EncodeToString(sum[:]), Events: meter.Total()}
}

// TestSpecFilesGolden holds every example spec to the service's entry
// point and the runnable ones to their pinned runs: each decodes,
// validates and converts, and sweep.json, trace.json and ci-trace.json
// run to the Result bytes and event counts in testdata/spec_golden.json.
// Those are the runs of the flags the files replaced (-sweep, and
// -sweep -trace with CI's and with default flags), their cells given the
// four probes every spec-built scenario declares. The searches are
// validated only: search.json runs for minutes, and CI runs
// ci-search.json. Rewrite the fixture with
//
//	NETFENCE_REGEN_GOLDEN=1 go test -run TestSpecFilesGolden ./cmd/netfence-sim
func TestSpecFilesGolden(t *testing.T) {
	got := map[string]specGolden{}
	for _, name := range specFiles {
		spec := loadSpec(t, name)
		switch {
		case spec.Scenario != nil:
			sc, err := spec.Scenario.Scenario()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got[name] = runGolden(t, sc)
		case spec.Sweep != nil:
			sw, err := spec.Sweep.Sweep()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got[name] = runGolden(t, sw)
		}
	}

	const path = "testdata/spec_golden.json"
	if os.Getenv("NETFENCE_REGEN_GOLDEN") != "" {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("regenerated " + path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]specGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("spec runs diverged from the fixture:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestSpecCommand runs ci-trace.json the way CI does, with -trace (json
// and chrome), -metrics-out and -out: the result line prints, -out holds
// the service's batch Result, newline-terminated, and the trace and
// metrics files are written. It also pins the refusals, each naming its
// cause: a spec pausing for a resume nothing can send, -trace on a
// sweep, and a field JobSpec does not declare.
func TestSpecCommand(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(specDir, "ci-trace.json")
	spec := loadSpec(t, "ci-trace.json")
	sc, err := spec.Scenario.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}

	for _, format := range []string{"json", "chrome"} {
		o := specOutputs{
			out:     filepath.Join(dir, format+".out.json"),
			metrics: filepath.Join(dir, format+".prom"),
			trace:   filepath.Join(dir, format+".trace"), traceFormat: format, traceFlows: 4,
		}
		var stdout bytes.Buffer
		if err := runSpec(&stdout, path, o); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if got := stdout.String(); got != res.String()+"\n" {
			t.Errorf("%s: printed %q, want the result line %q", format, got, res.String())
		}
		if out, err := os.ReadFile(o.out); err != nil || !bytes.Equal(out, append(want, '\n')) {
			t.Errorf("%s: -out holds %d bytes (%v), not the batch Result's %d", format, len(out), err, len(want))
		}
		var trace any
		if raw, err := os.ReadFile(o.trace); err != nil || json.Unmarshal(raw, &trace) != nil || len(raw) < 100 {
			t.Errorf("%s: trace %s is not a non-trivial JSON document (%v)", format, o.trace, err)
		}
		if prom, err := os.ReadFile(o.metrics); err != nil || !bytes.Contains(prom, []byte("sim_events_executed_total")) {
			t.Errorf("%s: metrics %q (%v) lack the event total", format, prom, err)
		}
	}

	spec.PauseAtSec = []float64{10}
	paused, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	refusals := []struct {
		name, spec string // spec "" = sweep.json
		trace      bool
		want       string
	}{
		{"pause", string(paused), false, "pause_at_sec needs the service's control endpoint"},
		{"trace-sweep", "", true, "-trace records one scenario"},
		{"unknown-field", `{"scenario": {"topology": {"kind": "dumbbell"}}, "trace_flows": 4}`, false, `unknown field "trace_flows"`},
		{"pipeline-field", `{"scenario": {"topology": {"kind": "dumbbell"}, "pipeline": "off"}}`, false, `unknown field "pipeline"`},
	}
	for _, r := range refusals {
		file := filepath.Join(specDir, "sweep.json")
		if r.spec != "" {
			file = filepath.Join(dir, r.name+".json")
			if err := os.WriteFile(file, []byte(r.spec), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		o := specOutputs{traceFormat: "json"}
		if r.trace {
			o.trace = filepath.Join(dir, "refused.trace")
		}
		if err := runSpec(io.Discard, file, o); err == nil || !strings.Contains(err.Error(), r.want) {
			t.Errorf("%s: error %v, want one naming %q", r.name, err, r.want)
		}
	}
}
