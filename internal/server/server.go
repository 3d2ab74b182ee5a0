package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Config sizes the simulation service.
type Config struct {
	// Addr is the listen address ("" = "127.0.0.1:8080"; use ":0" for
	// an ephemeral port, readable from Addr() after Start).
	Addr string
	// Workers is the number of jobs run concurrently (0 = 2). Sweep
	// jobs additionally parallelize internally under the sweep engine's
	// own CPU budget.
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs
	// (0 = 16); past it, POST /jobs answers 503.
	QueueDepth int
}

// Server is the simulation service: a bounded job queue over the
// scenario and sweep engines with an HTTP control surface.
type Server struct {
	cfg   Config
	queue chan *job
	http  *http.Server
	ln    net.Listener

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	nextID   int
	draining bool

	workers sync.WaitGroup
	runCtx  context.Context
	runStop context.CancelFunc
}

// New builds a server from cfg. Start launches it.
func New(cfg Config) *Server {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:8080"
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		queue:   make(chan *job, cfg.QueueDepth),
		jobs:    map[string]*job{},
		runCtx:  ctx,
		runStop: stop,
	}
	// A client that opens a connection and never finishes its request
	// headers must not hold it for ever.
	s.http = &http.Server{Handler: s.routes(), ReadHeaderTimeout: 10 * time.Second}
	return s
}

// Start binds the listener and launches the workers and the HTTP
// serve loop. It returns once the server is accepting requests.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	for i := 0; i < s.cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	go func() {
		if err := s.http.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("netfence-sim serve: %v", err)
		}
	}()
	return nil
}

// Addr returns the bound listen address (resolves ":0").
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// worker drains the job queue until Shutdown closes it. A job
// cancelled while still queued is skipped — cancelJob already settled
// its state.
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		jctx, cancel := context.WithCancel(s.runCtx)
		j.mu.Lock()
		skip := j.state != jobQueued
		if !skip {
			j.cancel = cancel
		}
		j.mu.Unlock()
		if skip {
			cancel()
			continue
		}
		j.run(jctx)
		cancel()
	}
}

var (
	errQueueFull      = errors.New("job queue is full")
	errServerDraining = errors.New("server is shutting down")
)

// submit validates, registers and enqueues a job spec.
func (s *Server) submit(spec JobSpec) (*job, error) {
	if err := Validate(spec); err != nil {
		return nil, err
	}

	// Registration and the queue reservation happen in one critical
	// section: the non-blocking send cannot race Shutdown's close (it
	// sets draining under s.mu first), and a full queue is detected
	// before the job is visible, so there is no rollback to get wrong.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, errServerDraining
	}
	j := newJob("j"+strconv.Itoa(s.nextID+1), spec)
	select {
	case s.queue <- j:
	default:
		return nil, errQueueFull
	}
	s.nextID++
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	return j, nil
}

// Validate is submit's structural validation, done up front so a bad
// spec fails the POST, not the job: exactly one job kind, and the spec
// converts to its netfence value (conversion checks every mutation's
// shape, and a search its SearchSpec). Referential checks against the
// built topology happen when the job runs. `netfence-sim -spec` runs the
// same check.
func Validate(spec JobSpec) error {
	given := 0
	for _, set := range []bool{spec.Scenario != nil, spec.Sweep != nil, spec.Search != nil} {
		if set {
			given++
		}
	}
	if given != 1 {
		return errors.New("submit exactly one of scenario, sweep or search")
	}
	switch {
	case spec.Scenario != nil:
		_, err := spec.Scenario.Scenario()
		return err
	case spec.Sweep != nil:
		_, err := spec.Sweep.Sweep()
		return err
	default:
		srch, err := spec.Search.Search()
		if err != nil {
			return err
		}
		return srch.Validate()
	}
}

func (s *Server) job(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// statuses lists every job in submission order.
func (s *Server) statuses() []JobStatus {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status())
	}
	return out
}

// cancelJob aborts a job: a still-queued job is settled here (the
// worker skips it later); a running job's context is cancelled and its
// runner settles the state at the next segment boundary, keeping
// partial results.
func (s *Server) cancelJob(j *job) {
	j.mu.Lock()
	queued := j.state == jobQueued
	if queued {
		j.state = jobCancelled
	}
	cancel := j.cancel
	j.mu.Unlock()
	if queued {
		j.hub.publish("status", j.status())
		j.hub.close()
		close(j.finished)
		return
	}
	if cancel != nil {
		cancel()
	}
}

// Shutdown drains the service: new submissions are refused, queued
// jobs are cancelled, and running jobs are given until ctx expires to
// finish (after that they are aborted at their next segment boundary;
// partial state stays readable either way). The HTTP listener stops
// last so clients can still read final statuses during the drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("already shutting down")
	}
	s.draining = true
	s.mu.Unlock()

	// Empty the queue before closing it so waiting workers exit instead
	// of starting fresh jobs mid-drain.
drain:
	for {
		select {
		case j := <-s.queue:
			s.cancelJob(j)
		default:
			break drain
		}
	}
	close(s.queue)

	drained := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		s.runStop()
		<-drained
		err = fmt.Errorf("shutdown deadline passed; running jobs aborted: %w", ctx.Err())
	}
	s.runStop()

	hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer hcancel()
	if herr := s.http.Shutdown(hctx); herr != nil && err == nil {
		err = herr
	}
	return err
}
