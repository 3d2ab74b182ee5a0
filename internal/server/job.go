package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"

	netfence "netfence"
	"netfence/internal/obs"
)

// jobState is the lifecycle of a job: queued → running (⇄ paused for
// scenario jobs) → done | failed | cancelled.
type jobState string

const (
	jobQueued    jobState = "queued"
	jobRunning   jobState = "running"
	jobPaused    jobState = "paused"
	jobDone      jobState = "done"
	jobFailed    jobState = "failed"
	jobCancelled jobState = "cancelled"
)

// controlMsg carries a POST /jobs/{id}/control body to the runner.
type controlMsg struct {
	mutations []netfence.Mutation
	resume    bool
}

// JobStatus is the JSON status of a job (GET /jobs and /jobs/{id}).
type JobStatus struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
	// NowSec is the scenario job's simulated clock at the last segment
	// boundary.
	NowSec float64 `json:"now_sec,omitempty"`
	// Done, Total and Cell report sweep progress.
	Done  int    `json:"done,omitempty"`
	Total int    `json:"total,omitempty"`
	Cell  string `json:"cell,omitempty"`
}

// controlAck is streamed on the job's SSE channel when a control
// message is applied (or rejected by the instance): how many of its
// mutations applied at once and how many are scheduled ahead.
type controlAck struct {
	Applied int    `json:"applied"`
	Pending int    `json:"pending"`
	Error   string `json:"error,omitempty"`
	Resume  bool   `json:"resume,omitempty"`
}

// job is one queued or running submission.
type job struct {
	id   string
	spec JobSpec

	mu      sync.Mutex
	state   jobState
	errMsg  string
	nowSec  float64
	done    int
	total   int
	cell    string
	result  *netfence.Result
	results []*netfence.Result
	report  *netfence.SearchReport
	// cells and executed are the job's latest counter snapshot: both
	// planes merged across shards, and each shard engine's executed
	// events. Scenario jobs replace them at every segment boundary, sweep
	// jobs set cells when the matrix completes; a stored snapshot is
	// never written again, so readers may keep it past the lock.
	cells    obs.Cells
	executed []uint64

	// meter accumulates executed-event counts across every engine the
	// job creates — per-job, so concurrent jobs never share a counter.
	meter *netfence.Meter

	hub      *hub
	ctl      chan controlMsg
	cancel   context.CancelFunc
	finished chan struct{}
}

func newJob(id string, spec JobSpec) *job {
	return &job{
		id:       id,
		spec:     spec,
		state:    jobQueued,
		meter:    &netfence.Meter{},
		hub:      newHub(),
		ctl:      make(chan controlMsg, 16),
		finished: make(chan struct{}),
	}
}

func (j *job) kind() string {
	switch {
	case j.spec.Scenario != nil:
		return "scenario"
	case j.spec.Sweep != nil:
		return "sweep"
	default:
		return "search"
	}
}

// countersSnapshot renders the job's latest counter snapshot, overlaying
// the live executed-event total from the job's meter (safe to read at
// any time — the meter is atomic and engines flush it at every segment
// boundary, so a running job's event count stays fresh even before its
// first counter snapshot lands).
func (j *job) countersSnapshot() map[string]uint64 {
	j.mu.Lock()
	cells, executed := j.cells, j.executed
	j.mu.Unlock()
	out := obs.Map(cells, executed)
	out["sim_events_executed_total"] = j.meter.Total()
	return out
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID: j.id, Kind: j.kind(), State: string(j.state), Error: j.errMsg,
		NowSec: j.nowSec, Done: j.done, Total: j.total, Cell: j.cell,
	}
}

func (j *job) setState(s jobState) {
	j.mu.Lock()
	j.state = s
	j.mu.Unlock()
	j.hub.publish("status", j.status())
}

// control hands a control message to the runner. It blocks until the
// runner's next boundary when the control buffer is full, and fails
// once the job has finished.
func (j *job) control(ms []netfence.Mutation, resume bool) error {
	// Check finished first: once the job is done both select cases
	// below could be ready and Go would pick randomly, sometimes
	// accepting a control message into a buffer nobody will drain.
	select {
	case <-j.finished:
		return errors.New("job is no longer running")
	default:
	}
	select {
	case j.ctl <- controlMsg{mutations: ms, resume: resume}:
		return nil
	case <-j.finished:
		return errors.New("job is no longer running")
	}
}

// run executes the job to completion and settles its terminal state.
// Called on a worker goroutine; ctx is the job's own cancellable
// context (cancelled by DELETE or server shutdown deadline).
func (j *job) run(ctx context.Context) {
	defer close(j.finished)
	defer j.hub.close()
	j.setState(jobRunning)
	err := j.execute(ctx)

	j.mu.Lock()
	switch {
	case ctx.Err() != nil:
		j.state = jobCancelled
		if err != nil && !errors.Is(err, context.Canceled) {
			j.errMsg = err.Error()
		}
	case err != nil:
		j.state = jobFailed
		j.errMsg = err.Error()
	default:
		j.state = jobDone
	}
	result, results, report := j.result, j.results, j.report
	j.mu.Unlock()

	if result != nil {
		j.hub.publish("result", result)
	} else if results != nil {
		j.hub.publish("result", results)
	} else if report != nil {
		j.hub.publish("result", report)
	}
	j.hub.publish("status", j.status())
}

// execute runs the job by kind. A panic on this goroutine — in a
// builder a spec names, in the segment loop — becomes the job's error,
// so one POST cannot take the worker, and the server with it, down. A
// panic on a goroutine the run itself starts (a shard's coordinator
// worker, a sweep cell) is out of reach of this recover and still ends
// the process.
func (j *job) execute(ctx context.Context) (err error) {
	defer func() {
		if r := recover(); r != nil {
			log.Printf("server: job %s panicked: %v", j.id, r)
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	switch {
	case j.spec.Scenario != nil:
		return j.runScenario(ctx)
	case j.spec.Sweep != nil:
		return j.runSweep(ctx)
	default:
		return j.runSearch(ctx)
	}
}

// sampleEvent is one streamed timeseries point. The last sample of a
// flush batch additionally carries the deterministic counter increments
// accumulated since the previous batch.
type sampleEvent struct {
	netfence.Sample
	Counters counterCells `json:"counters,omitempty"`
}

// counterCells are the deterministic counter increments of a segment,
// as obs.Grown returns them: nil when no counter grew. They marshal as
// the object of their non-zero series, keys sorted.
type counterCells obs.Cells

func (c counterCells) MarshalJSON() ([]byte, error) {
	return obs.AppendDeterministicJSON(nil, obs.Cells(c)), nil
}

// runScenario drives a scenario job in segments. Each segment advances
// to the earliest of now+step, the next pause instant, and the duration
// (Advance applies the timeline, scripted and live, on the way); at the
// boundary it flushes new timeseries samples to the stream and polls the
// control queue. Pauses block on the control queue until a resume
// arrives, so mutations posted while paused apply at exactly the held
// instant — which is what makes a live-steered run reproducible against
// a scripted timeline.
func (j *job) runScenario(ctx context.Context) error {
	sc, err := j.spec.Scenario.Scenario()
	if err != nil {
		return err
	}
	sc.Meter = j.meter
	in, err := sc.Build()
	if err != nil {
		return err
	}
	defer in.Stop()

	step := secs(j.spec.StreamIntervalSec)
	if step <= 0 {
		step = netfence.Second
	}
	pauses := make([]netfence.Time, 0, len(j.spec.PauseAtSec))
	for _, p := range j.spec.PauseAtSec {
		if t := secs(p); t > 0 && t <= sc.Duration {
			pauses = append(pauses, t)
		}
	}
	sort.Slice(pauses, func(a, b int) bool { return pauses[a] < pauses[b] })

	emitted := 0 // samples already streamed
	pi := 0
	now := netfence.Time(0)

	var shipped obs.Cells // the snapshot the last streamed delta ran to
	flush := func() {
		series := in.Series()
		cells, executed := in.CounterCells()
		if emitted < len(series) {
			// The last sample of the batch carries the deterministic
			// counter increments since the previous published delta, so
			// stream consumers see the counter plane advance segment by
			// segment without re-polling the metrics endpoint. shipped
			// only moves when a delta ships: a boundary with no new
			// samples (e.g. inside the warmup) folds into the next batch
			// instead of silently dropping its increments.
			delta := counterCells(obs.Grown(shipped, cells))
			shipped = cells
			for ; emitted < len(series); emitted++ {
				ev := sampleEvent{Sample: series[emitted]}
				if emitted == len(series)-1 {
					ev.Counters = delta
				}
				j.hub.publish("sample", ev)
			}
		}
		j.mu.Lock()
		j.nowSec = float64(now) / float64(netfence.Second)
		j.cells, j.executed = cells, executed
		j.mu.Unlock()
	}
	// absorb delivers a control message to the instance, which applies
	// mutations at or before the current instant here and now and
	// schedules later ones.
	absorb := func(msg controlMsg) {
		ack := controlAck{Resume: msg.resume}
		if err := in.Apply(msg.mutations...); err != nil {
			ack.Error = err.Error()
		} else {
			for _, m := range msg.mutations {
				if m.At > now {
					ack.Pending++
				} else {
					ack.Applied++
				}
			}
		}
		j.hub.publish("control", ack)
	}

	for now < sc.Duration {
		t := now + step
		if t > sc.Duration {
			t = sc.Duration
		}
		if pi < len(pauses) && pauses[pi] < t {
			t = pauses[pi]
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		in.Advance(t)
		now = t
		flush()

		if pi < len(pauses) && pauses[pi] == now {
			pi++
			j.setState(jobPaused)
			for resumed := false; !resumed; {
				select {
				case msg := <-j.ctl:
					absorb(msg)
					resumed = msg.resume
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			j.setState(jobRunning)
		} else {
			for drained := false; !drained; {
				select {
				case msg := <-j.ctl:
					absorb(msg)
				default:
					drained = true
				}
			}
		}
	}

	res := in.Finish()
	flush()
	j.mu.Lock()
	j.result = res
	j.mu.Unlock()
	return nil
}

// runSweep drives a sweep job through the batch engine, mirroring
// per-cell progress onto the job status and the stream. A cancelled
// sweep keeps its completed cells (nil marks unfinished ones).
func (j *job) runSweep(ctx context.Context) error {
	sw, err := j.spec.Sweep.Sweep()
	if err != nil {
		return err
	}
	sw.Base.Meter = j.meter
	sw.Progress = func(done, total int, cell string) {
		j.mu.Lock()
		j.done, j.total, j.cell = done, total, cell
		j.mu.Unlock()
		j.hub.publish("status", j.status())
	}
	results, err := sw.RunContext(ctx)
	cells := make([]obs.Cells, 0, len(results))
	for _, r := range results {
		if r != nil {
			cells = append(cells, obs.DeterministicCells(r.Counters))
		}
	}
	agg := obs.Merge(cells)
	j.mu.Lock()
	j.results = results
	j.cells = agg
	j.mu.Unlock()
	return err
}

// candidateEvent is one evaluated search candidate on the job's SSE
// stream ("candidate" events): the cell it belongs to and the trace
// step, best-so-far marked — the live worst-found feed.
type candidateEvent struct {
	Cell string              `json:"cell"`
	Step netfence.SearchStep `json:"step"`
}

// runSearch drives an adversarial-search job, mirroring per-candidate
// progress onto the job status and streaming each candidate. A search
// has no partial report: cancellation discards the cells in flight.
func (j *job) runSearch(ctx context.Context) error {
	sp, err := j.spec.Search.Search()
	if err != nil {
		return err
	}
	sp.Base.Meter = j.meter
	sp.Progress = func(done, total int, cell string) {
		j.mu.Lock()
		j.done, j.total, j.cell = done, total, cell
		j.mu.Unlock()
		j.hub.publish("status", j.status())
	}
	sp.OnCandidate = func(cell string, step netfence.SearchStep) {
		j.hub.publish("candidate", candidateEvent{Cell: cell, Step: step})
	}
	report, err := sp.RunContext(ctx)
	j.mu.Lock()
	j.report = report
	j.mu.Unlock()
	return err
}
