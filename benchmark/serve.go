package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	netfence "netfence"
	"netfence/internal/server"
)

// Job kinds of the serve-jobs mix.
const (
	kindScenario = "scenario"
	kindTimeline = "timeline"
	kindSweep    = "sweep"
)

// serveClients is the closed loop's client count: each client submits
// its next job only after the previous one delivered its result.
const serveClients = 2

// serveJob is one job of the round: the body the client posts and the
// bytes and event count the batch engine produced for the same spec.
type serveJob struct {
	kind       string
	body       []byte
	wantResult []byte
	events     uint64
}

// jobTiming is the client-side timeline of one job, in seconds.
type jobTiming struct {
	Kind        string
	Submit      float64 // POST /jobs to the 202
	Queued      float64 // 202 to the "running" status on the stream
	FirstSample float64 // POST to the first streamed sample
	Total       float64 // POST to the "result" event
	Fetch       float64 // GET /jobs/{id}/result (detail rounds only)
}

// serveWorkload drives an in-process server.Server over loopback HTTP:
// a closed loop of serveClients clients, each POSTing a job and reading
// its SSE stream to the result event.
type serveWorkload struct {
	sc   scale
	seed uint64
	jobs []serveJob
	// detail additionally fetches GET /jobs/{id}/result after each job,
	// for the server.result_fetch_ms row. Off in measured rounds.
	detail bool

	wantSHA string
}

func newServeWorkload(sc scale, seed uint64) *serveWorkload {
	return &serveWorkload{sc: sc, seed: seed}
}

// jobSpec builds the i-th job of the seeded mix.
func (w *serveWorkload) jobSpec(kind string, jobSeed uint64) server.JobSpec {
	n := w.sc.jobSenders
	users := n / 4
	base := server.ScenarioSpec{
		Name: "job", Seed: jobSeed,
		Topology: server.TopologySpec{
			Kind: "dumbbell", Senders: n, BottleneckBps: int64(n) * 100_000, ColluderASes: 2,
		},
		Workloads: []server.WorkloadSpec{
			{Kind: "longtcp", From: 0, To: users},
			{Kind: "attack", From: users, To: n, RateBps: 1_000_000, ToColluders: true},
		},
		DurationSec:           w.sc.jobDurSec,
		WarmupSec:             w.sc.jobDurSec / 2,
		TimeseriesIntervalSec: 1,
	}
	switch kind {
	case kindTimeline:
		base.Timeline = []server.MutationSpec{
			{AtSec: 0.3 * w.sc.jobDurSec, Link: &server.LinkMutationSpec{RateBps: int64(n) * 50_000}},
			{AtSec: 0.6 * w.sc.jobDurSec, Attack: &server.AttackMutationSpec{Workload: 0, Action: "stop"}},
		}
	case kindSweep:
		return server.JobSpec{Sweep: &server.SweepSpec{
			Base:     base,
			Defenses: []string{"netfence", "fq"},
			Seeds:    []uint64{jobSeed, jobSeed + 1},
		}}
	}
	return server.JobSpec{Scenario: &base, StreamIntervalSec: 1}
}

// prepare draws the seeded job mix — 70% scenario, 20% scenario with a
// scripted timeline, 10% a 2x2 sweep, in seeded order, every job with
// its own seed — and runs each spec through the batch engine to get the
// bytes the served job must reproduce.
func (w *serveWorkload) prepare() error {
	n := w.sc.roundJobs
	kinds := make([]string, n)
	for i := range kinds {
		switch {
		case i*10 < n*7:
			kinds[i] = kindScenario
		case i*10 < n*9:
			kinds[i] = kindTimeline
		default:
			kinds[i] = kindSweep
		}
	}
	rng := rand.New(rand.NewPCG(w.seed, 0x6a6f6273))
	rng.Shuffle(n, func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })

	w.jobs = make([]serveJob, n)
	specs := make([]server.JobSpec, n)
	for i := range w.jobs {
		specs[i] = w.jobSpec(kinds[i], rng.Uint64()>>1)
		body, err := json.Marshal(specs[i])
		if err != nil {
			return err
		}
		w.jobs[i] = serveJob{kind: kinds[i], body: body}
	}
	// Batch references, computed on as many goroutines as the service
	// has workers so the warm-up costs about one round.
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				w.jobs[i].wantResult, w.jobs[i].events, errs[i] = batchRun(specs[i])
			}
		}()
	}
	wg.Wait()
	hash := sha256.New()
	for i := range w.jobs {
		if errs[i] != nil {
			return fmt.Errorf("serve-jobs: batch reference of job %d: %w", i, errs[i])
		}
		hash.Write(w.jobs[i].wantResult)
	}
	w.wantSHA = hex.EncodeToString(hash.Sum(nil))
	return nil
}

// batchRun is Scenario.Run (or Sweep.Run) of a job spec: the result
// JSON the service streams for the same spec, and the events it takes.
func batchRun(spec server.JobSpec) ([]byte, uint64, error) {
	m := &netfence.Meter{}
	var out any
	if spec.Sweep != nil {
		sw, err := spec.Sweep.Sweep()
		if err != nil {
			return nil, 0, err
		}
		sw.Base.Meter = m
		results, err := sw.Run()
		if err != nil {
			return nil, 0, err
		}
		out = results
	} else {
		sc, err := spec.Scenario.Scenario()
		if err != nil {
			return nil, 0, err
		}
		sc.Meter = m
		res, err := sc.Run()
		if err != nil {
			return nil, 0, err
		}
		out = res
	}
	raw, err := json.Marshal(out)
	return raw, m.Total(), err
}

// startServer is the serve-jobs set-up step: New, Start and the first
// 200 from /metrics.
func startServer(client *http.Client) (*server.Server, string, float64, error) {
	t0 := time.Now()
	srv := server.New(server.Config{Addr: "127.0.0.1:0", Workers: serveClients})
	if err := srv.Start(); err != nil {
		return nil, "", 0, err
	}
	base := "http://" + srv.Addr()
	if _, err := scrapeEvents(client, base); err != nil {
		stopServer(srv)
		return nil, "", 0, err
	}
	return srv, base, time.Since(t0).Seconds(), nil
}

func stopServer(srv *server.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logf("serve-jobs: shutdown: %v", err)
	}
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serveClients,
		MaxIdleConnsPerHost: serveClients,
		DisableCompression:  true,
	}}
}

// scrapeEvents GETs /metrics and returns sim_events_executed_total.
func scrapeEvents(client *http.Client, base string) (uint64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode/100 != 2 {
		return 0, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, "sim_events_executed_total "); ok {
			return strconv.ParseUint(v, 10, 64)
		}
	}
	return 0, nil
}

func (w *serveWorkload) setupOnly() float64 {
	client := newClient()
	defer client.CloseIdleConnections()
	srv, _, dt, err := startServer(client)
	if err != nil {
		logf("serve-jobs: set-up: %v", err)
		return 0
	}
	stopServer(srv)
	return dt
}

// rep is one round: a fresh server, every job of the mix through the
// closed loop, one /metrics scrape, shutdown. A fresh server per round
// keeps the rounds identical — the service retains every finished job,
// so a long-lived one would grow its heap and its /metrics cost from
// round to round.
func (w *serveWorkload) rep(tr *tracer, op int) repSample {
	s := repSample{Ops: len(w.jobs)}
	round := tr.begin("round", 0, op)
	defer tr.end(round)
	client := newClient()
	defer client.CloseIdleConnections()

	heap0 := liveHeap()
	id := tr.begin("start", round, op)
	srv, base, setup, err := startServer(client)
	tr.end(id)
	if err != nil {
		logf("serve-jobs: set-up: %v", err)
		s.Failed = s.Ops
		return s
	}
	defer stopServer(srv)
	s.SetupS = setup

	timings := make([]jobTiming, len(w.jobs))
	failed := make([]bool, len(w.jobs))
	var rejected atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	m0, c0, t0 := mallocs(), cpuSeconds(), time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(w.jobs) {
					return
				}
				var err error
				timings[i], err = w.runJob(client, base, &w.jobs[i], tr, round, op)
				if err != nil {
					logf("serve-jobs: job %d (%s): %v", i, w.jobs[i].kind, err)
					failed[i] = true
					if _, ok := err.(statusError); ok {
						rejected.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	s.RunS = time.Since(t0).Seconds()
	s.CPUS = cpuSeconds() - c0
	s.Mallocs = mallocs() - m0

	id = tr.begin("scrape", round, op)
	t0 = time.Now()
	events, err := scrapeEvents(client, base)
	s.ScrapeS = time.Since(t0).Seconds()
	tr.end(id)
	s.Rejected = int(rejected.Load())
	var want uint64
	for i := range w.jobs {
		want += w.jobs[i].events
		if failed[i] {
			s.Failed++
		}
	}
	if err != nil || events != want {
		logf("serve-jobs: /metrics reports %d events (err %v), the batch runs of the same specs took %d", events, err, want)
		s.Failed = max(s.Failed, 1)
	}
	s.Events = events
	s.Jobs = timings
	s.SHA = w.wantSHA // every job's bytes were compared to its reference
	s.LiveHeapMB = (liveHeap() - heap0) / 1e6
	return s
}

// statusError is a non-2xx HTTP answer.
type statusError struct {
	what string
	code int
}

func (e statusError) Error() string { return fmt.Sprintf("%s: status %d", e.what, e.code) }

// runJob submits one job and follows its stream to the end.
func (w *serveWorkload) runJob(client *http.Client, base string, j *serveJob, tr *tracer, parent, op int) (jobTiming, error) {
	tm := jobTiming{Kind: j.kind}
	jobSpan := tr.begin("job", parent, op)
	defer tr.end(jobSpan)

	id := tr.begin("submit", jobSpan, op)
	t0 := time.Now()
	resp, err := client.Post(base+"/jobs", "application/json", bytes.NewReader(j.body))
	if err != nil {
		tr.end(id)
		return tm, err
	}
	var st server.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	tm.Submit = time.Since(t0).Seconds()
	tr.end(id)
	if resp.StatusCode/100 != 2 {
		return tm, statusError{"POST /jobs", resp.StatusCode}
	}
	if err != nil {
		return tm, fmt.Errorf("POST /jobs: %w", err)
	}

	resp, err = client.Get(base + "/jobs/" + st.ID + "/stream")
	if err != nil {
		return tm, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return tm, statusError{"GET stream", resp.StatusCode}
	}
	phase := tr.begin("queued", jobSpan, op)
	var (
		typ, lastState string
		result         []byte
		rd             = bufio.NewReaderSize(resp.Body, 64<<10)
	)
	for {
		line, err := rd.ReadBytes('\n')
		if len(line) > 0 {
			line = bytes.TrimRight(line, "\n")
			if v, ok := bytes.CutPrefix(line, []byte("event: ")); ok {
				typ = string(v)
			} else if v, ok := bytes.CutPrefix(line, []byte("data: ")); ok {
				switch typ {
				case "status":
					var js server.JobStatus
					if json.Unmarshal(v, &js) == nil {
						lastState = js.State
						if js.State == "running" && tm.Queued == 0 {
							tm.Queued = time.Since(t0).Seconds() - tm.Submit
							tr.end(phase)
							phase = tr.begin("stream", jobSpan, op)
						}
					}
				case "sample":
					if tm.FirstSample == 0 {
						tm.FirstSample = time.Since(t0).Seconds()
					}
				case "result":
					tm.Total = time.Since(t0).Seconds()
					result = append([]byte(nil), v...)
				}
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			tr.end(phase)
			return tm, err
		}
	}
	tr.end(phase)

	id = tr.begin("result", jobSpan, op)
	defer tr.end(id)
	if lastState != "done" {
		return tm, fmt.Errorf("job %s ended in state %q", st.ID, lastState)
	}
	if !bytes.Equal(result, j.wantResult) {
		return tm, fmt.Errorf("job %s: streamed result differs from the batch run of the same spec", st.ID)
	}
	if w.detail {
		t1 := time.Now()
		resp, err := client.Get(base + "/jobs/" + st.ID + "/result")
		if err != nil {
			return tm, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		tm.Fetch = time.Since(t1).Seconds()
		if resp.StatusCode/100 != 2 {
			return tm, statusError{"GET result", resp.StatusCode}
		}
	}
	return tm, nil
}
