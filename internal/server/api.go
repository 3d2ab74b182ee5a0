package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"netfence/internal/obs"
)

// ControlRequest is the body of POST /jobs/{id}/control.
type ControlRequest struct {
	// Mutations apply to the running scenario: instants at or before
	// the job's simulated clock apply at the next segment boundary (or
	// immediately at a paused instant); future instants are scheduled
	// and apply exactly when the clock reaches them.
	Mutations []MutationSpec `json:"mutations,omitempty"`
	// Resume releases a job paused at a pause_at_sec instant.
	Resume bool `json:"resume,omitempty"`
}

// routes wires the HTTP API.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.statuses())
	})
	mux.HandleFunc("GET /jobs/{id}", s.withJob(func(w http.ResponseWriter, r *http.Request, j *job) {
		writeJSON(w, http.StatusOK, j.status())
	}))
	mux.HandleFunc("DELETE /jobs/{id}", s.withJob(func(w http.ResponseWriter, r *http.Request, j *job) {
		s.cancelJob(j)
		writeJSON(w, http.StatusOK, j.status())
	}))
	mux.HandleFunc("GET /jobs/{id}/result", s.withJob(s.handleResult))
	mux.HandleFunc("GET /jobs/{id}/metrics", s.withJob(s.handleJobMetrics))
	mux.HandleFunc("POST /jobs/{id}/control", s.withJob(s.handleControl))
	mux.HandleFunc("GET /jobs/{id}/stream", s.withJob(func(w http.ResponseWriter, r *http.Request, j *job) {
		serveStream(w, r, j.hub)
	}))
	return mux
}

// handleMetrics serves the process-level Prometheus text exposition:
// service gauges (server_up, per-state job counts) plus every job's
// counter snapshot merged by obs.Merge — counters sum, gauges take the
// max — and rendered once.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()

	states := map[jobState]uint64{}
	cells := make([]obs.Cells, 0, len(jobs))
	var executed []uint64 // per shard index, summed over jobs
	var events uint64
	for _, j := range jobs {
		j.mu.Lock()
		states[j.state]++
		cells = append(cells, j.cells)
		for len(executed) < len(j.executed) {
			executed = append(executed, 0)
		}
		for i, n := range j.executed {
			executed[i] += n
		}
		j.mu.Unlock()
		events += j.meter.Total()
	}
	agg := obs.Map(obs.Merge(cells), executed)
	if len(jobs) > 0 {
		// Every job's snapshot carries its meter's live total.
		agg["sim_events_executed_total"] = events
	}
	agg["server_up"] = 1
	for st, n := range states {
		agg[`server_jobs{state="`+string(st)+`"}`] = n
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.RenderPrometheus(w, agg)
}

// handleJobMetrics serves one job's counters as Prometheus text: the
// deterministic plane (byte-identical across shard counts), the runtime
// plane (per-shard events, handoff traffic, mailbox depth), and the
// live executed-event total from the job's meter.
func (s *Server) handleJobMetrics(w http.ResponseWriter, r *http.Request, j *job) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.RenderPrometheus(w, j.countersSnapshot())
}

// maxBodyBytes bounds a request body: specs and control requests are a
// few kilobytes, and one POST must not be able to make the decoder
// buffer without limit.
const maxBodyBytes = 1 << 20

// decodeStrict decodes one JSON value, refusing unknown fields.
func decodeStrict[T any](r io.Reader) (T, error) {
	var v T
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&v)
	return v, err
}

// DecodeSpec decodes a job spec strictly: a field JobSpec does not
// declare is an error, not ignored. POST /jobs and `netfence-sim -spec`
// both decode through it; Validate is the check that follows.
func DecodeSpec(r io.Reader) (JobSpec, error) { return decodeStrict[JobSpec](r) }

// decodeBody decodes the request body with decode, under maxBodyBytes.
// It answers a body over the limit with 413 naming the limit, anything
// else malformed with 400, and reports whether the value is usable.
func decodeBody[T any](w http.ResponseWriter, r *http.Request, decode func(io.Reader) (T, error)) (T, bool) {
	v, err := decode(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return v, true
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds the limit of %d bytes", tooLarge.Limit))
	default:
		writeError(w, http.StatusBadRequest, err)
	}
	return v, false
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, ok := decodeBody(w, r, DecodeSpec)
	if !ok {
		return
	}
	j, err := s.submit(spec)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, errQueueFull) || errors.Is(err, errServerDraining) {
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request, j *job) {
	st := j.status()
	j.mu.Lock()
	result, results, report := j.result, j.results, j.report
	j.mu.Unlock()
	switch jobState(st.State) {
	case jobQueued, jobRunning, jobPaused:
		writeError(w, http.StatusConflict, errors.New("job has not finished; poll status or stream"))
	case jobFailed:
		writeJSON(w, http.StatusOK, map[string]any{"status": st, "error": st.Error})
	default: // done, or cancelled with partial results
		body := map[string]any{"status": st}
		if result != nil {
			body["result"] = result
		}
		if results != nil {
			body["results"] = results
		}
		if report != nil {
			body["report"] = report
		}
		writeJSON(w, http.StatusOK, body)
	}
}

func (s *Server) handleControl(w http.ResponseWriter, r *http.Request, j *job) {
	if j.kind() != "scenario" {
		writeError(w, http.StatusBadRequest, errors.New("control applies to scenario jobs only"))
		return
	}
	req, ok := decodeBody(w, r, decodeStrict[ControlRequest])
	if !ok {
		return
	}
	// Structural validation is synchronous (a malformed mutation fails
	// the POST); referential validation against the built topology
	// happens on the runner and is acknowledged on the stream.
	ms, err := mutations(req.Mutations)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := j.control(ms, req.Resume); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"accepted": len(ms), "resume": req.Resume})
}

// withJob resolves the {id} path value or answers 404.
func (s *Server) withJob(h func(http.ResponseWriter, *http.Request, *job)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j := s.job(r.PathValue("id"))
		if j == nil {
			writeError(w, http.StatusNotFound, errors.New("no such job"))
			return
		}
		h(w, r, j)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
