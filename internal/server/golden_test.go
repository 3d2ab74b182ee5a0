package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// goldenJob is the serve-jobs job shape: a 32-sender dumbbell, long TCP
// flows from a quarter of the senders and a 1 Mbps attack from the rest
// to the colluders, 10 s with a 5 s warmup, streamed every second. The
// timeline variant halves the bottleneck at 3 s and stops the attack at
// 6 s.
func goldenJob(timeline bool) JobSpec {
	spec := ScenarioSpec{
		Name: "golden", Seed: 1,
		Topology: TopologySpec{Kind: "dumbbell", Senders: 32, BottleneckBps: 3_200_000, ColluderASes: 2},
		Workloads: []WorkloadSpec{
			{Kind: "longtcp", From: 0, To: 8},
			{Kind: "attack", From: 8, To: 32, RateBps: 1_000_000, ToColluders: true},
		},
		DurationSec:           10,
		WarmupSec:             5,
		TimeseriesIntervalSec: 1,
	}
	if timeline {
		spec.Timeline = []MutationSpec{
			{AtSec: 3, Link: &LinkMutationSpec{RateBps: 1_600_000}},
			{AtSec: 6, Attack: &AttackMutationSpec{Workload: 0, Action: "stop"}},
		}
	}
	return JobSpec{Scenario: &spec, StreamIntervalSec: 1}
}

// getRaw returns the body of a GET, failing on anything but 200.
func getRaw(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// TestServeGoldenStream pins every byte a client reads from a fresh
// server that ran one scenario job and then one timeline job: both
// jobs' full SSE streams (status events, samples with their counter
// deltas, the result), both jobs' /jobs/{id}/metrics and the process
// /metrics. After an intentional change to what the service emits,
// rewrite the fixtures with
//
//	NETFENCE_REGEN_GOLDEN=1 go test -run TestServeGoldenStream ./internal/server
func TestServeGoldenStream(t *testing.T) {
	s := startServer(t)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	base := "http://" + s.Addr()

	got := map[string][]byte{}
	for _, name := range []string{"scenario", "timeline"} {
		code, body := postJSON(t, base+"/jobs", goldenJob(name == "timeline"))
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: %d %s", name, code, body)
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		got[name+".stream"] = getRaw(t, base+"/jobs/"+st.ID+"/stream")
		waitState(t, base, st.ID, string(jobDone))
		got[name+".metrics"] = getRaw(t, base+"/jobs/"+st.ID+"/metrics")
	}
	got["process.metrics"] = getRaw(t, base+"/metrics")

	dir := filepath.Join("testdata", "serve_golden")
	regen := os.Getenv("NETFENCE_REGEN_GOLDEN") != ""
	if regen {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, raw := range got {
		path := filepath.Join(dir, name)
		if regen {
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, want) {
			t.Errorf("%s: %d bytes differ from the %d pinned in %s", name, len(raw), len(want), path)
		}
	}
	if regen {
		t.Log("regenerated " + dir)
	}
}
