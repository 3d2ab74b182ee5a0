package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	netfence "netfence"
)

// smokeSpec is the e2e scenario: a small dumbbell mix whose bottleneck
// is degraded mid-run by a scripted timeline mutation.
func smokeSpec() ScenarioSpec {
	return ScenarioSpec{
		Name: "smoke",
		Seed: 7,
		Topology: TopologySpec{
			Kind: "dumbbell", Senders: 8, BottleneckBps: 1_000_000, ColluderASes: 1,
		},
		Workloads: []WorkloadSpec{
			{Kind: "longtcp", From: 0, To: 4},
			{Kind: "attack", From: 4, To: 8},
		},
		DurationSec:           8,
		WarmupSec:             2,
		TimeseriesIntervalSec: 1,
		Timeline: []MutationSpec{
			{AtSec: 4, Link: &LinkMutationSpec{Bottleneck: 0, RateBps: 500_000}},
		},
	}
}

// batchResult runs a spec through the batch engine — the byte-equality
// baseline every served run is held to.
func batchResult(t *testing.T, spec ScenarioSpec) []byte {
	t.Helper()
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	in, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(in.Run())
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func startServer(t *testing.T) *Server {
	t.Helper()
	s := New(Config{Addr: "127.0.0.1:0", Workers: 1, QueueDepth: 4})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return s
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// waitState polls a job's status endpoint until it reaches want.
func waitState(t *testing.T, base, id, want string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		getJSON(t, base+"/jobs/"+id, &st)
		if st.State == want {
			return st
		}
		if st.State == string(jobFailed) {
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q", id, want)
	return JobStatus{}
}

type sseEvent struct {
	typ  string
	data []byte
}

// readStream consumes a job's SSE stream to the end.
func readStream(t *testing.T, url string) []sseEvent {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type = %q", ct)
	}
	var events []sseEvent
	var typ string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			events = append(events, sseEvent{typ: typ, data: []byte(strings.TrimPrefix(line, "data: "))})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestServeE2ESmoke is the service's end-to-end gate (run in CI with
// -race): submit a dumbbell job with a mid-run link degradation,
// stream its SSE feed to completion, and hold the streamed result
// byte-identical to the batch run of the same spec.
func TestServeE2ESmoke(t *testing.T) {
	s := startServer(t)
	base := "http://" + s.Addr()

	if code := getJSON(t, base+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}

	spec := smokeSpec()
	code, body := postJSON(t, base+"/jobs", JobSpec{Scenario: &spec, StreamIntervalSec: 1})
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	// The stream replays from the start and ends with the result.
	events := readStream(t, base+"/jobs/"+st.ID+"/stream")
	var samples int
	var streamed []byte
	for _, ev := range events {
		switch ev.typ {
		case "sample":
			samples++
		case "result":
			streamed = ev.data
		}
	}
	if samples == 0 {
		t.Fatal("stream carried no timeseries samples")
	}
	if streamed == nil {
		t.Fatal("stream ended without a result event")
	}

	// The result endpoint agrees with the stream, and both match the
	// batch engine byte for byte.
	var res struct {
		Status JobStatus       `json:"status"`
		Result json.RawMessage `json:"result"`
	}
	if code := getJSON(t, base+"/jobs/"+st.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("result = %d", code)
	}
	if res.Status.State != string(jobDone) {
		t.Fatalf("final state = %s (%s)", res.Status.State, res.Status.Error)
	}
	want := batchResult(t, spec)
	if !bytes.Equal(bytes.TrimSpace(res.Result), bytes.TrimSpace(want)) {
		t.Errorf("served result differs from batch run:\nserved: %s\nbatch:  %s", res.Result, want)
	}
	if !bytes.Equal(bytes.TrimSpace(streamed), bytes.TrimSpace(want)) {
		t.Errorf("streamed result differs from batch run")
	}

	// The streamed samples are exactly the result's series.
	var full netfence.Result
	if err := json.Unmarshal(res.Result, &full); err != nil {
		t.Fatal(err)
	}
	if samples != len(full.Series) {
		t.Errorf("streamed %d samples, result has %d", samples, len(full.Series))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestLiveControlMatchesScriptedTimeline is the control plane's
// determinism contract over HTTP: pausing a sharded run at scripted
// instants and POSTing the mutations live produces a result
// byte-identical to the same mutations scripted as a Timeline in a
// batch run.
func TestLiveControlMatchesScriptedTimeline(t *testing.T) {
	scripted := smokeSpec()
	scripted.Name = "live"
	scripted.Shards = 2
	scripted.Timeline = []MutationSpec{
		{AtSec: 3, Link: &LinkMutationSpec{Bottleneck: 0, RateBps: 400_000}},
		{AtSec: 5, Attack: &AttackMutationSpec{Workload: 0, Action: "stop"}},
		{AtSec: 6, Link: &LinkMutationSpec{Bottleneck: 0, Restore: true}},
	}
	want := batchResult(t, scripted)

	live := scripted
	live.Timeline = nil
	s := startServer(t)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	base := "http://" + s.Addr()

	code, body := postJSON(t, base+"/jobs", JobSpec{
		Scenario:          &live,
		StreamIntervalSec: 1,
		PauseAtSec:        []float64{3, 5, 6},
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	// At each pause, deliver the scripted instant's mutations over the
	// control endpoint and resume.
	for i, m := range scripted.Timeline {
		ps := waitState(t, base, st.ID, string(jobPaused))
		// The resume is accepted asynchronously: until the job picks it
		// up, the status still shows the previous pause.
		for i > 0 && ps.NowSec == scripted.Timeline[i-1].AtSec {
			time.Sleep(10 * time.Millisecond)
			ps = waitState(t, base, st.ID, string(jobPaused))
		}
		if ps.NowSec != m.AtSec {
			t.Fatalf("paused at %.3fs, want %.3fs", ps.NowSec, m.AtSec)
		}
		code, body := postJSON(t, base+"/jobs/"+st.ID+"/control", ControlRequest{
			Mutations: []MutationSpec{m},
			Resume:    true,
		})
		if code != http.StatusAccepted {
			t.Fatalf("control at %.0fs = %d: %s", m.AtSec, code, body)
		}
	}

	waitState(t, base, st.ID, string(jobDone))
	var res struct {
		Result json.RawMessage `json:"result"`
	}
	if code := getJSON(t, base+"/jobs/"+st.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("result = %d", code)
	}
	if !bytes.Equal(bytes.TrimSpace(res.Result), bytes.TrimSpace(want)) {
		t.Errorf("live-controlled result differs from scripted batch run:\nlive:     %s\nscripted: %s", res.Result, want)
	}
}

// TestLiveControlOneMessage posts a whole timeline in one control
// message at the first pause: the instance applies the mutation due at
// that instant and schedules the rest, so the run reproduces the
// scripted batch run, and each ack counts its own message's mutations —
// a bare resume after it schedules nothing.
func TestLiveControlOneMessage(t *testing.T) {
	scripted := smokeSpec()
	scripted.Name = "live-one-message"
	scripted.Shards = 2
	scripted.Timeline = []MutationSpec{
		{AtSec: 2, Link: &LinkMutationSpec{Bottleneck: 0, RateBps: 400_000}},
		{AtSec: 5, Attack: &AttackMutationSpec{Workload: 0, Action: "stop"}},
		{AtSec: 6, Link: &LinkMutationSpec{Bottleneck: 0, Restore: true}},
	}
	want := batchResult(t, scripted)

	live := scripted
	live.Timeline = nil
	s := startServer(t)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	base := "http://" + s.Addr()
	code, body := postJSON(t, base+"/jobs", JobSpec{Scenario: &live, StreamIntervalSec: 1, PauseAtSec: []float64{2}})
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	waitState(t, base, st.ID, string(jobPaused))
	for _, req := range []ControlRequest{{Mutations: scripted.Timeline}, {Resume: true}} {
		if code, body := postJSON(t, base+"/jobs/"+st.ID+"/control", req); code != http.StatusAccepted {
			t.Fatalf("control = %d: %s", code, body)
		}
	}
	waitState(t, base, st.ID, string(jobDone))
	var res struct {
		Result json.RawMessage `json:"result"`
	}
	if code := getJSON(t, base+"/jobs/"+st.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("result = %d", code)
	}
	if !bytes.Equal(bytes.TrimSpace(res.Result), bytes.TrimSpace(want)) {
		t.Errorf("one-message result differs from scripted batch run:\nlive:     %s\nscripted: %s", res.Result, want)
	}

	var acks []controlAck
	for _, ev := range readStream(t, base+"/jobs/"+st.ID+"/stream") {
		if ev.typ == "control" {
			var ack controlAck
			if err := json.Unmarshal(ev.data, &ack); err != nil {
				t.Fatal(err)
			}
			acks = append(acks, ack)
		}
	}
	wantAcks := []controlAck{{Applied: 1, Pending: 2}, {Resume: true}}
	if fmt.Sprint(acks) != fmt.Sprint(wantAcks) {
		t.Errorf("acks = %+v, want %+v", acks, wantAcks)
	}
}

// TestShardedFileWebJobMatchesSingle holds a served job of the clients
// that open flows and draw sizes mid-run — file transfers and web
// traffic — to the same result bytes on two shards as on one.
func TestShardedFileWebJobMatchesSingle(t *testing.T) {
	s := startServer(t)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	base := "http://" + s.Addr()

	result := func(shards int) []byte {
		spec := smokeSpec()
		spec.Workloads = []WorkloadSpec{
			{Kind: "filetransfers", From: 0, To: 4},
			{Kind: "webtraffic", From: 4, To: 8},
		}
		spec.Timeline = nil
		spec.Shards = shards
		code, body := postJSON(t, base+"/jobs", JobSpec{Scenario: &spec})
		if code != http.StatusAccepted {
			t.Fatalf("shards %d: submit = %d: %s", shards, code, body)
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		waitState(t, base, st.ID, string(jobDone))
		var res struct {
			Result json.RawMessage `json:"result"`
		}
		if code := getJSON(t, base+"/jobs/"+st.ID+"/result", &res); code != http.StatusOK {
			t.Fatalf("shards %d: result = %d", shards, code)
		}
		return bytes.TrimSpace(res.Result)
	}
	one, two := result(1), result(2)
	var res netfence.Result
	if err := json.Unmarshal(one, &res); err != nil {
		t.Fatal(err)
	}
	if res.FCT.Count == 0 {
		t.Fatalf("the single-engine run completed no transfer: %s", one)
	}
	if !bytes.Equal(one, two) {
		t.Errorf("shards 2 result differs from shards 1:\n1: %s\n2: %s", one, two)
	}
}

// TestSweepJob submits a sweep, watches progress land in the status,
// and reads the per-cell results.
func TestSweepJob(t *testing.T) {
	s := startServer(t)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	base := "http://" + s.Addr()

	spec := smokeSpec()
	spec.Timeline = nil
	code, body := postJSON(t, base+"/jobs", JobSpec{
		Sweep: &SweepSpec{
			Base:  spec,
			Seeds: []uint64{1, 2},
			Timelines: []NamedTimelineSpec{
				{Name: "static"},
				{Name: "degrade", Timeline: []MutationSpec{
					{AtSec: 4, Link: &LinkMutationSpec{Bottleneck: 0, RateBps: 500_000}},
				}},
			},
		},
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, base, st.ID, string(jobDone))
	if fin.Done != 4 || fin.Total != 4 {
		t.Errorf("progress = %d/%d, want 4/4", fin.Done, fin.Total)
	}
	var res struct {
		Results []*netfence.Result `json:"results"`
	}
	getJSON(t, base+"/jobs/"+st.ID+"/result", &res)
	if len(res.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(res.Results))
	}
	for i, r := range res.Results {
		if r == nil {
			t.Errorf("cell %d missing", i)
		}
	}
}

// TestSearchJob submits a small-budget adversarial search, checks the
// per-candidate SSE feed and progress, and reads the worst-found
// report — the serve-mode face of netfence.SearchSpec (run in CI under
// -race).
func TestSearchJob(t *testing.T) {
	s := startServer(t)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	base := "http://" + s.Addr()

	spec := smokeSpec()
	spec.Timeline = nil
	code, body := postJSON(t, base+"/jobs", JobSpec{
		Search: &SearchJobSpec{
			Base:       spec,
			Defenses:   []string{"netfence"},
			Strategies: []string{"flood"},
			Optimizer:  "anneal",
			Budget:     3,
			Seed:       7,
		},
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Kind != "search" {
		t.Fatalf("kind = %q, want search", st.Kind)
	}

	// The stream replays every evaluated candidate and ends with the
	// report as the result event.
	events := readStream(t, base+"/jobs/"+st.ID+"/stream")
	var candidates int
	var sawBest bool
	var streamed []byte
	for _, ev := range events {
		switch ev.typ {
		case "candidate":
			candidates++
			var c struct {
				Cell string `json:"cell"`
				Step struct {
					Attack string `json:"attack"`
					Best   bool   `json:"best"`
				} `json:"step"`
			}
			if err := json.Unmarshal(ev.data, &c); err != nil {
				t.Fatalf("candidate event: %v", err)
			}
			if c.Cell != "netfence/flood" {
				t.Errorf("candidate cell = %q", c.Cell)
			}
			sawBest = sawBest || c.Step.Best
		case "result":
			streamed = ev.data
		}
	}
	if candidates == 0 {
		t.Fatal("stream carried no candidate events")
	}
	if !sawBest {
		t.Error("no candidate was marked best-so-far")
	}
	if streamed == nil {
		t.Fatal("stream ended without a result event")
	}

	fin := waitState(t, base, st.ID, string(jobDone))
	if fin.Done != candidates {
		t.Errorf("progress done = %d, streamed %d candidates", fin.Done, candidates)
	}
	var res struct {
		Report *netfence.SearchReport `json:"report"`
	}
	if code := getJSON(t, base+"/jobs/"+st.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("result = %d", code)
	}
	if res.Report == nil || len(res.Report.Rows) != 1 {
		t.Fatalf("report = %+v, want one row", res.Report)
	}
	row := res.Report.Rows[0]
	if row.Defense != "NetFence" || row.Strategy != "flood" || !row.Worst {
		t.Errorf("row = %+v", row)
	}
	if row.Evals != candidates {
		t.Errorf("row evals = %d, streamed %d candidates", row.Evals, candidates)
	}
}

// submitCase is one spec POST /jobs must answer with the status and a
// fragment of the body: the error of a rejection, the state of a job
// accepted.
type submitCase struct {
	name string
	spec JobSpec
	code int
	want string
}

// submitCases is the synchronous validation surface.
func submitCases() []submitCase {
	good := smokeSpec()
	return []submitCase{
		{"neither", JobSpec{}, http.StatusBadRequest, "exactly one"},
		{"bad-topology", JobSpec{Scenario: &ScenarioSpec{Topology: TopologySpec{Kind: "torus"}}}, http.StatusBadRequest, "unknown kind"},
		{"bad-workload", JobSpec{Scenario: &ScenarioSpec{
			Topology:  good.Topology,
			Workloads: []WorkloadSpec{{Kind: "teleport"}},
		}}, http.StatusBadRequest, "unknown kind"},
		{"bad-mutation", JobSpec{Scenario: &ScenarioSpec{
			Topology:  good.Topology,
			Workloads: good.Workloads,
			Timeline:  []MutationSpec{{AtSec: 1}},
		}}, http.StatusBadRequest, "timeline mutation 0: mutation must set exactly one"},
		// A sweep's or a search's base timeline is checked at submit too,
		// not cell by cell when the job builds them.
		{"sweep-base-bad-mutation", JobSpec{Sweep: &SweepSpec{Base: ScenarioSpec{
			Topology:  good.Topology,
			Workloads: good.Workloads,
			Timeline:  []MutationSpec{{AtSec: 1}},
		}}}, http.StatusBadRequest, "base: timeline mutation 0: mutation must set exactly one"},
		{"search-base-bad-mutation", JobSpec{Search: &SearchJobSpec{Base: ScenarioSpec{
			Topology:  good.Topology,
			Workloads: good.Workloads,
			Timeline:  []MutationSpec{{AtSec: 1}},
		}}}, http.StatusBadRequest, "base: timeline mutation 0: mutation must set exactly one"},
		{"sweep-axis-bad-mutation", JobSpec{Sweep: &SweepSpec{
			Base:      good,
			Timelines: []NamedTimelineSpec{{Name: "cut", Timeline: []MutationSpec{{AtSec: -1, Deploy: &DeployMutationSpec{Fraction: 0.5}}}}},
		}}, http.StatusBadRequest, `timeline \"cut\" mutation 0: deploy mutation: At must be positive`},
		{"two-kinds", JobSpec{
			Sweep:  &SweepSpec{Base: good},
			Search: &SearchJobSpec{Base: good},
		}, http.StatusBadRequest, "exactly one"},
		{"search-bad-optimizer", JobSpec{Search: &SearchJobSpec{
			Base: good, Optimizer: "gradient",
		}}, http.StatusBadRequest, `unknown optimizer \"gradient\"`},
		{"search-no-attack", JobSpec{Search: &SearchJobSpec{
			Base: ScenarioSpec{
				Topology:  good.Topology,
				Workloads: []WorkloadSpec{{Kind: "longtcp", From: 0, To: 4}},
			},
		}}, http.StatusBadRequest, "no AttackSpec workload"},
		{"search-bad-params", JobSpec{Search: &SearchJobSpec{Base: ScenarioSpec{
			Topology: good.Topology,
			Workloads: []WorkloadSpec{
				{Kind: "attack", From: 4, To: 8, Params: map[string]float64{"dty": 1}},
			},
		}}}, http.StatusBadRequest, `unknown param \"dty\"`},
		// Every workload kind runs sharded, as a scenario and on a sweep's
		// shard axis.
		{"sharded-files", JobSpec{Scenario: &ScenarioSpec{
			Topology:    good.Topology,
			Workloads:   []WorkloadSpec{{Kind: "filetransfers", From: 0, To: 4}},
			Shards:      2,
			DurationSec: 2,
		}}, http.StatusAccepted, `"state"`},
		{"sweep-sharded-web", JobSpec{Sweep: &SweepSpec{
			Base: ScenarioSpec{
				Topology:    good.Topology,
				Workloads:   []WorkloadSpec{{Kind: "webtraffic", From: 0, To: 4}},
				DurationSec: 2,
			},
			Shards: []int{1, 2},
		}}, http.StatusAccepted, `"state"`},
		// Sender lists are checked against the topology before a range is
		// built: this one used to allocate 8 TB at submit and kill the
		// process.
		{"range-beyond-topology", JobSpec{Scenario: &ScenarioSpec{
			Topology:  TopologySpec{Kind: "dumbbell", Senders: 4, BottleneckBps: 1_000_000},
			Workloads: []WorkloadSpec{{Kind: "longtcp", From: 0, To: 1_000_000_000_000}},
		}}, http.StatusBadRequest, "workload 0: sender range [0, 1000000000000) outside the topology's 4 senders"},
		{"range-negative", JobSpec{Scenario: &ScenarioSpec{
			Topology:  good.Topology,
			Workloads: []WorkloadSpec{good.Workloads[0], {Kind: "udpflood", From: -1, To: 2}},
		}}, http.StatusBadRequest, "workload 1: sender range [-1, 2)"},
		{"range-reversed", JobSpec{Scenario: &ScenarioSpec{
			Topology:  good.Topology,
			Workloads: []WorkloadSpec{{Kind: "udpflood", From: 5, To: 2}},
		}}, http.StatusBadRequest, "workload 0: sender range [5, 2)"},
		{"sender-beyond-parkinglot-group", JobSpec{Scenario: &ScenarioSpec{
			Topology:  TopologySpec{Kind: "parkinglot", SendersPerGroup: 3, L1Bps: 1_000_000, L2Bps: 1_000_000},
			Workloads: []WorkloadSpec{{Kind: "longtcp", Group: 1, Senders: []int{0, 3}}},
		}}, http.StatusBadRequest, "workload 0: sender index 3 outside the topology's 3 senders"},
		{"topology-too-large", JobSpec{Scenario: &ScenarioSpec{
			Topology:  TopologySpec{Kind: "dumbbell", Senders: 1_000_000_000_000, BottleneckBps: 1_000_000},
			Workloads: []WorkloadSpec{{Kind: "longtcp", From: 0, To: 1_000_000_000_000}},
		}}, http.StatusBadRequest, "exceeds the limit"},
		// Build once sized the timeseries buffers from these two: a 1 ns
		// interval over the default 240 s is 2.4e11 samples, and a
		// negative duration a negative size.
		{"timeseries-too-fine", JobSpec{Scenario: &ScenarioSpec{
			Topology:              good.Topology,
			Workloads:             good.Workloads,
			TimeseriesIntervalSec: 1e-9,
		}}, http.StatusBadRequest, "timeseries: a 1e-09s interval over 240s is 240000000000 samples, over the limit"},
		{"duration-negative", JobSpec{Scenario: &ScenarioSpec{
			Topology:    good.Topology,
			Workloads:   good.Workloads,
			DurationSec: -1,
			WarmupSec:   -2,
		}}, http.StatusBadRequest, "duration_sec (-1) and warmup_sec (-2) must not be negative"},
		{"sweep-population-below-senders", JobSpec{Sweep: &SweepSpec{
			Base: good, Populations: []int{16, 6},
		}}, http.StatusBadRequest, "workload 1: sender range [4, 8) outside the topology's 6 senders"},
	}
}

// TestSubmitValidation exercises the synchronous rejection surface.
func TestSubmitValidation(t *testing.T) {
	s := startServer(t)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	base := "http://" + s.Addr()

	for _, tc := range submitCases() {
		code, body := postJSON(t, base+"/jobs", tc.spec)
		if code != tc.code || !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: code=%d body=%s, want %d containing %q", tc.name, code, body, tc.code, tc.want)
		}
	}
	// A sweep's population cells, not its base topology, hold the senders.
	grown := smokeSpec()
	grown.Topology.Senders = 4
	if _, err := (SweepSpec{Base: grown, Populations: []int{8, 16}}).Sweep(); err != nil {
		t.Errorf("sweep growing a 4-sender base to 8 and 16 senders: %v", err)
	}

	if code := getJSON(t, base+"/jobs/j999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job = %d", code)
	}
}

// TestTopologyKinds holds the job specs' topology kinds to
// netfence.Topologies(): every listed name builds, and an unknown kind
// is refused with every listed name in the error.
func TestTopologyKinds(t *testing.T) {
	names := netfence.Topologies()
	for _, n := range names {
		spec, err := TopologySpec{Kind: n}.build()
		if err != nil {
			t.Errorf("kind %q: %v", n, err)
		} else if spec == nil {
			t.Errorf("kind %q built no spec", n)
		}
	}
	_, err := TopologySpec{Kind: "bogus"}.build()
	if err == nil {
		t.Fatal("kind bogus accepted")
	}
	for _, n := range names {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("unknown-kind error %q does not name %q", err, n)
		}
	}
}

// TestDecodeSpecRefusesParallelism: sweep and search jobs size their
// worker pools from GOMAXPROCS, so a spec carrying a parallelism field
// is refused, naming the field.
func TestDecodeSpecRefusesParallelism(t *testing.T) {
	for _, raw := range []string{
		`{"sweep":{"base":{"name":"s"},"seeds":[1,2],"parallelism":2}}`,
		`{"search":{"base":{"name":"s"},"budget":4,"parallelism":2}}`,
	} {
		if _, err := DecodeSpec(strings.NewReader(raw)); err == nil || !strings.Contains(err.Error(), `"parallelism"`) {
			t.Errorf("%s: err = %v, want the parallelism field named", raw, err)
		}
	}
}

// TestShutdownDrain covers the graceful path (an in-flight job runs to
// completion under Shutdown) and the deadline path (a long job is
// aborted at a segment boundary with its partial state kept).
func TestShutdownDrain(t *testing.T) {
	// Deadline path: a long-running job is aborted.
	s := startServer(t)
	base := "http://" + s.Addr()
	long := smokeSpec()
	long.Name = "long"
	long.DurationSec = 3600
	long.Timeline = nil
	_, body := postJSON(t, base+"/jobs", JobSpec{Scenario: &long})
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	waitState(t, base, st.ID, string(jobRunning))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := s.Shutdown(ctx)
	if err == nil || !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("deadline shutdown err = %v", err)
	}
	if got := s.job(st.ID).status(); got.State != string(jobCancelled) {
		t.Errorf("long job state = %s, want cancelled", got.State)
	}

	// A fresh server refuses submissions once draining.
	s2 := startServer(t)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := s2.Shutdown(ctx2); err != nil {
		t.Fatalf("idle shutdown: %v", err)
	}
	if _, err := s2.submit(JobSpec{Scenario: &long}); err == nil {
		t.Error("submit after shutdown succeeded")
	}
}

// scrape fetches a Prometheus-text endpoint and parses it into a
// key → value map (keys keep their literal label suffixes).
func scrape(t *testing.T, url string) map[string]uint64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type = %q", ct)
	}
	out := map[string]uint64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		var v uint64
		if _, err := fmt.Sscanf(line[i+1:], "%d", &v); err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// soloBaseline runs a spec through the batch engine with its own meter
// attached, returning the executed-event total and the deterministic
// counter snapshot — what a served job must reproduce exactly.
func soloBaseline(t *testing.T, spec ScenarioSpec) (uint64, map[string]uint64) {
	t.Helper()
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	m := &netfence.Meter{}
	sc.Meter = m
	in, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := in.Run()
	return m.Total(), res.Counters
}

// TestConcurrentJobMetersIsolated is the regression gate for the old
// process-global event counter: two scenario jobs running concurrently
// must each report exactly the executed-event total and counter
// snapshot of a solo batch run — no cross-job bleed in either
// direction. It also checks the GET /jobs listing and smokes the
// process /metrics endpoint.
func TestConcurrentJobMetersIsolated(t *testing.T) {
	specA := smokeSpec()
	specA.Name = "meter-a"
	specB := smokeSpec()
	specB.Name = "meter-b"
	specB.Seed = 8
	wantA, countersA := soloBaseline(t, specA)
	wantB, countersB := soloBaseline(t, specB)
	if wantA == 0 || wantB == 0 {
		t.Fatalf("solo baselines executed no events (a=%d b=%d)", wantA, wantB)
	}
	if wantA == wantB {
		t.Fatalf("baselines coincide at %d events; pick seeds that diverge", wantA)
	}

	s := New(Config{Addr: "127.0.0.1:0", Workers: 2, QueueDepth: 4})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	base := "http://" + s.Addr()

	ids := make([]string, 2)
	for i, spec := range []ScenarioSpec{specA, specB} {
		spec := spec
		_, body := postJSON(t, base+"/jobs", JobSpec{Scenario: &spec, StreamIntervalSec: 1})
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	for _, id := range ids {
		waitState(t, base, id, string(jobDone))
	}

	// GET /jobs lists both jobs in submission order, each as its own
	// GET /jobs/{id} reports it.
	var list []JobStatus
	if code := getJSON(t, base+"/jobs", &list); code != http.StatusOK || len(list) != len(ids) {
		t.Fatalf("GET /jobs = %d with %d entries, want 200 with %d", code, len(list), len(ids))
	}
	for i, st := range list {
		var one JobStatus
		getJSON(t, base+"/jobs/"+ids[i], &one)
		if st.ID != ids[i] || st.Kind != "scenario" || st.State != one.State {
			t.Errorf("GET /jobs entry %d = %s/%s/%s, want %s/scenario/%s", i, st.ID, st.Kind, st.State, ids[i], one.State)
		}
	}

	for i, want := range []uint64{wantA, wantB} {
		got := scrape(t, base+"/jobs/"+ids[i]+"/metrics")
		if got["sim_events_executed_total"] != want {
			t.Errorf("job %s executed %d events, solo run executed %d",
				ids[i], got["sim_events_executed_total"], want)
		}
		counters := countersA
		if i == 1 {
			counters = countersB
		}
		for k, v := range counters {
			if got[k] != v {
				t.Errorf("job %s metric %s = %d, solo run has %d", ids[i], k, got[k], v)
			}
		}
	}

	// The process endpoint aggregates both jobs and always carries the
	// service gauges.
	proc := scrape(t, base+"/metrics")
	if proc["server_up"] != 1 {
		t.Error("process /metrics is missing server_up 1")
	}
	if proc[`server_jobs{state="done"}`] != 2 {
		t.Errorf(`server_jobs{state="done"} = %d, want 2`, proc[`server_jobs{state="done"}`])
	}
	if proc["sim_events_executed_total"] != wantA+wantB {
		t.Errorf("process events total = %d, want %d", proc["sim_events_executed_total"], wantA+wantB)
	}
}

// TestSampleEventCounters asserts the SSE sample stream carries
// deterministic counter deltas that sum to the final snapshot.
func TestSampleEventCounters(t *testing.T) {
	s := startServer(t)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	base := "http://" + s.Addr()

	spec := smokeSpec()
	spec.Name = "deltas"
	_, body := postJSON(t, base+"/jobs", JobSpec{Scenario: &spec, StreamIntervalSec: 1})
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	events := readStream(t, base+"/jobs/"+st.ID+"/stream")

	summed := map[string]uint64{}
	withCounters := 0
	var finalRes netfence.Result
	for _, ev := range events {
		switch ev.typ {
		case "sample":
			var sample struct {
				Counters map[string]uint64 `json:"counters"`
			}
			if err := json.Unmarshal(ev.data, &sample); err != nil {
				t.Fatal(err)
			}
			if len(sample.Counters) > 0 {
				withCounters++
			}
			for k, v := range sample.Counters {
				summed[k] += v
			}
		case "result":
			if err := json.Unmarshal(ev.data, &finalRes); err != nil {
				t.Fatal(err)
			}
		}
	}
	if withCounters == 0 {
		t.Fatal("no sample event carried counter deltas")
	}
	for k, v := range finalRes.Counters {
		if summed[k] > v {
			t.Errorf("streamed deltas for %s sum to %d, past the final %d", k, summed[k], v)
		}
	}
	for _, k := range []string{"netsim_delivered_total", "netsim_tx_packets_total"} {
		if summed[k] != finalRes.Counters[k] {
			t.Errorf("streamed deltas for %s sum to %d, final snapshot has %d", k, summed[k], finalRes.Counters[k])
		}
	}
}

// TestRequestBodyLimit: both decoding endpoints read at most
// maxBodyBytes. A body padded up to the limit is decoded as ever; one
// byte more is answered 413 with the limit in the error, before any of
// it reaches the spec layer.
func TestRequestBodyLimit(t *testing.T) {
	s := startServer(t)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	base := "http://" + s.Addr()
	spec, err := json.Marshal(JobSpec{Scenario: &ScenarioSpec{
		Topology:    smokeSpec().Topology,
		Workloads:   smokeSpec().Workloads,
		DurationSec: 2, WarmupSec: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	padded := func(body []byte, size int) string { return strings.Repeat(" ", size-len(body)) + string(body) }
	limit := fmt.Sprint(maxBodyBytes)
	cases := []struct {
		name, path, body string
		code             int
		want             string
	}{
		{"submit-at-limit", "/jobs", padded(spec, maxBodyBytes), http.StatusAccepted, `"id":"j1"`},
		{"submit-over-limit", "/jobs", padded(spec, maxBodyBytes+1), http.StatusRequestEntityTooLarge, limit},
		{"submit-one-long-string", "/jobs", `{"scenario":{"name":"` + strings.Repeat("a", 4*maxBodyBytes), http.StatusRequestEntityTooLarge, limit},
		{"control-unknown-field", "/jobs/j1/control", `{"bogus":1}`, http.StatusBadRequest, "bogus"},
		{"control-over-limit", "/jobs/j1/control", padded([]byte(`{"resume":true}`), maxBodyBytes+1), http.StatusRequestEntityTooLarge, limit},
	}
	for _, tc := range cases {
		resp, err := http.Post(base+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var body bytes.Buffer
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code || !strings.Contains(body.String(), tc.want) {
			t.Errorf("%s: code=%d body=%s, want %d containing %q", tc.name, resp.StatusCode, body.String(), tc.code, tc.want)
		}
	}
}

// registerPanicky guards the registry against go test -count.
var registerPanicky sync.Once

// TestJobPanicIsolated: a panic while a job runs — here in a builder the
// spec names, a test-only registered defense — fails that job with the
// panic value in its last status event, ends its stream, and leaves the
// worker to run the next job to done. (The spec vocabulary names only
// the four in-tree topologies, so a registered defense is the builder a
// POST can reach.)
func TestJobPanicIsolated(t *testing.T) {
	registerPanicky.Do(func() {
		netfence.RegisterDefense("panics-on-build", func(*netfence.Network, netfence.DefenseBuildOptions) (netfence.DefenseSystem, error) {
			panic("builder blew up")
		})
	})
	s := startServer(t)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	base := "http://" + s.Addr()
	submit := func(spec ScenarioSpec) string {
		t.Helper()
		code, body := postJSON(t, base+"/jobs", JobSpec{Scenario: &spec})
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil || code != http.StatusAccepted {
			t.Fatalf("submit = %d: %s", code, body)
		}
		return st.ID
	}
	bad := smokeSpec()
	bad.Defense = "panics-on-build"
	badID, goodID := submit(bad), submit(smokeSpec())

	events := readStream(t, base+"/jobs/"+badID+"/stream") // returns: the hub closed
	var last JobStatus
	for _, ev := range events {
		if ev.typ == "result" {
			t.Errorf("a panicked job streamed a result: %s", ev.data)
		}
		if ev.typ == "status" {
			if err := json.Unmarshal(ev.data, &last); err != nil {
				t.Fatal(err)
			}
		}
	}
	if last.State != string(jobFailed) || !strings.Contains(last.Error, "builder blew up") {
		t.Fatalf("last status of the panicked job: %+v, want failed with the panic value", last)
	}
	select {
	case <-s.job(badID).finished:
	case <-time.After(10 * time.Second):
		t.Fatal("the panicked job's finished channel never closed")
	}
	if st := waitState(t, base, goodID, string(jobDone)); st.Error != "" {
		t.Fatalf("the next job on the same worker: %+v", st)
	}
}
