package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	netfence "netfence"
)

// Workload names. Every later issue refers to these.
const (
	wlTiny   = "tiny-suite"
	wlLarge  = "large-flood"
	wlShards = "large-passport-shards"
	wlServe  = "serve-jobs"
)

var workloadNames = []string{wlTiny, wlLarge, wlShards, wlServe}

// scale sizes every workload and probe. fullScale is what the ledger
// records; smokeScale runs the same code at roughly 1/50 of the work so
// the harness tests can check every metric name in seconds.
type scale struct {
	tinySenders      int
	fig8Dur, fig9Dur netfence.Time
	largeSenders     int
	largeSrcASes     int
	largeDur         netfence.Time
	roundJobs        int
	jobSenders       int
	jobDurSec        float64
	minReps          int // timed repetitions at least, whatever --seconds says
	probeDiv         int // divides every micro-probe's loop count
}

// fullScale: one repetition is about 1-2 s on the design box, so a
// --seconds 20 invocation holds 10-18 of them (see README, "sizing").
var fullScale = scale{
	tinySenders: 128, fig8Dur: 10 * netfence.Second, fig9Dur: 80 * netfence.Second,
	largeSenders: 10_240, largeSrcASes: 32, largeDur: 2 * netfence.Second,
	roundJobs: 100, jobSenders: 32, jobDurSec: 10,
	minReps: 4, probeDiv: 1,
}

var smokeScale = scale{
	tinySenders: 16, fig8Dur: 2 * netfence.Second, fig9Dur: 8 * netfence.Second,
	largeSenders: 256, largeSrcASes: 8, largeDur: netfence.Second / 2,
	roundJobs: 10, jobSenders: 8, jobDurSec: 2,
	minReps: 1, probeDiv: 50,
}

// repSample is what one repetition (or one serve-jobs round) measured.
type repSample struct {
	SetupS     float64 // Scenario.Build (sum over cells), or server New+Start+first scrape
	RunS       float64 // Instance.Run (sum over cells), or the wall of one round
	CPUS       float64 // user+sys CPU over the run
	Events     uint64  // executed events (Scenario.Meter)
	Mallocs    uint64  // heap objects allocated over the run
	LiveHeapMB float64 // reachable heap after the run minus before set-up
	SHA        string  // sha256 of the Result JSON of the repetition
	Ops        int
	Failed     int

	// Per-layer extras, read by the traced run.
	CellRunS []float64         // tiny-suite: the fig8 and fig9 cells
	Shard    *shardStats       // sharded run only
	Runtime  map[string]uint64 // Instance.RuntimeCounters of the last cell
	Jobs     []jobTiming       // serve-jobs only
	ScrapeS  float64           // serve-jobs only: the round's /metrics scrape
	Rejected int               // serve-jobs only: non-2xx answers
}

// shardStats is the part of netfence.Sharding the shard.* rows read.
type shardStats struct {
	Shards, CutLinks int
	Pipeline         bool
	Windows          uint64
	SerializedNanos  []int64
}

// workload is one named set of inputs the benchmark runs.
type workload interface {
	// prepare makes the seeded inputs and whatever reference outputs the
	// correctness check compares against.
	prepare() error
	// rep runs one repetition. Spans go to tr (nil = untraced) under
	// operation id op.
	rep(tr *tracer, op int) repSample
	// setupOnly performs just the set-up step and returns its seconds,
	// for the extra set-up samples a short build needs.
	setupOnly() float64
}

// cellSpec makes one scenario of a simulation workload. The meter is
// per run: an Instance runs once.
type cellSpec struct {
	name string
	make func(m *netfence.Meter) netfence.Scenario
	// needBound marks a NetFence collusion cell, whose Theorem-1 check
	// must hold for the repetition to count as correct.
	needBound bool
}

// simWorkload is a workload whose repetition is Build + Run of each of
// its cells through the public Scenario API.
type simWorkload struct {
	name  string
	cells []cellSpec
	// reference, when set, makes the scenarios whose Result the first
	// repetition must reproduce byte for byte (the single-engine run of
	// a sharded workload). It is run once, by prepare.
	reference []cellSpec

	wantSHA    string
	wantEvents uint64
	// refRunS is the reference run's wall, for shard.parallel_efficiency.
	refRunS float64
}

func fig8Cell(sc scale, seed uint64) cellSpec {
	n := sc.tinySenders
	users := n / 8
	return cellSpec{name: "fig8", make: func(m *netfence.Meter) netfence.Scenario {
		return netfence.Scenario{
			Name: "fig8-reqflood", Seed: seed,
			Topology: netfence.DumbbellSpec{Senders: n, BottleneckBps: int64(n) * 100_000},
			Defense:  netfence.Defense("netfence"),
			Workloads: []netfence.Workload{
				netfence.FileTransfers{Senders: netfence.Range(0, users)},
				netfence.RequestFlood{Senders: netfence.Range(users, n), Strategic: true},
			},
			DenyAttackers: true,
			Duration:      sc.fig8Dur, Warmup: sc.fig8Dur / 2,
			Meter: m,
		}
	}}
}

func fig9Cell(sc scale, seed uint64) cellSpec {
	n := sc.tinySenders
	users := n / 4
	return cellSpec{name: "fig9", needBound: true, make: func(m *netfence.Meter) netfence.Scenario {
		return netfence.Scenario{
			Name: "fig9-collusion", Seed: seed,
			Topology: netfence.DumbbellSpec{Senders: n, BottleneckBps: int64(n) * 100_000, ColluderASes: 9},
			Defense:  netfence.Defense("netfence"),
			Workloads: []netfence.Workload{
				netfence.LongTCP{Senders: netfence.Range(0, users)},
				netfence.ColluderPairs{Senders: netfence.Range(users, n), RateBps: 1_000_000},
			},
			Probes: []netfence.Probe{
				netfence.GoodputProbe{}, netfence.FairnessProbe{}, netfence.FCTProbe{}, netfence.BoundProbe{},
			},
			Duration: sc.fig9Dur, Warmup: sc.fig9Dur / 2,
			Meter: m,
		}
	}}
}

// largeCell is the CLI's largeScenario (cmd/netfence-sim) with the
// duration cut to fit a repetition. The graph seed stays at the CLI's 1
// on purpose: the random wiring decides whether the sharded run ties
// same-instant chains past the pedigree depth, and graph seeds 3 and 4
// do (the sharded Result then differs from the single engine by one
// packet on ~2% of the attackers). The scenario seed varies freely.
func largeCell(sc scale, seed uint64, passport bool, shards int) cellSpec {
	pop := sc.largeSenders
	users := pop / 4
	return cellSpec{name: "large", make: func(m *netfence.Meter) netfence.Scenario {
		s := netfence.Scenario{
			Name: "random-as-large", Seed: seed,
			Topology: netfence.RandomASSpec{
				Senders: pop, BottleneckBps: int64(pop) * 100_000,
				SrcASes: sc.largeSrcASes, ColluderASes: 9, GraphSeed: 1,
			},
			Defense: netfence.Defense("netfence"),
			Workloads: []netfence.Workload{
				netfence.LongTCP{Senders: netfence.Range(0, users)},
				netfence.AttackSpec{Senders: netfence.Range(users, pop), RateBps: 200_000, ToColluders: true},
			},
			Duration: sc.largeDur, Warmup: sc.largeDur / 2,
			Shards: shards, Pipeline: netfence.PipelineAuto,
			Meter: m,
		}
		if passport {
			cfg := netfence.DefaultConfig()
			cfg.Passport = true
			s.Defense = netfence.DefenseSpec{Name: "netfence", Config: cfg}
		}
		return s
	}}
}

// newWorkload makes the named workload's inputs from the seed.
func newWorkload(name string, sc scale, seed uint64) (workload, error) {
	switch name {
	case wlTiny:
		return &simWorkload{name: name, cells: []cellSpec{fig8Cell(sc, seed), fig9Cell(sc, seed)}}, nil
	case wlLarge:
		return &simWorkload{name: name, cells: []cellSpec{largeCell(sc, seed, false, 1)}}, nil
	case wlShards:
		return &simWorkload{
			name:      name,
			cells:     []cellSpec{largeCell(sc, seed, true, 2)},
			reference: []cellSpec{largeCell(sc, seed, true, 1)},
		}, nil
	case wlServe:
		return newServeWorkload(sc, seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (one of %v)", name, workloadNames)
}

func (w *simWorkload) prepare() error {
	if w.reference == nil {
		return nil
	}
	ref := w.runCells(w.reference, nil, 0)
	if ref.Failed > 0 {
		return fmt.Errorf("%s: the single-engine reference run failed", w.name)
	}
	w.wantSHA, w.refRunS = ref.SHA, ref.RunS
	return nil
}

func (w *simWorkload) rep(tr *tracer, op int) repSample {
	s := w.runCells(w.cells, tr, op)
	// The first repetition fixes the expected bytes and event count
	// (already fixed by the reference run when there is one); every
	// later repetition must reproduce both exactly.
	if w.wantSHA == "" {
		w.wantSHA = s.SHA
	}
	if w.wantEvents == 0 {
		w.wantEvents = s.Events
	}
	if s.Failed == 0 && (s.SHA != w.wantSHA || s.Events != w.wantEvents) {
		logf("%s: repetition %d diverged: sha %s want %s, events %d want %d",
			w.name, op, s.SHA[:12], w.wantSHA[:12], s.Events, w.wantEvents)
		s.Failed = 1
	}
	return s
}

func (w *simWorkload) setupOnly() float64 {
	var total float64
	for _, c := range w.cells {
		runtime.GC()
		t0 := time.Now()
		in, err := c.make(nil).Build()
		total += time.Since(t0).Seconds()
		if err == nil {
			in.Stop() // a sharded build owns worker goroutines
		}
	}
	return total
}

// runCells is one repetition: for each cell, Build, Run and marshal the
// Result, timing each call into a layer and recording a span around it.
func (w *simWorkload) runCells(cells []cellSpec, tr *tracer, op int) repSample {
	s := repSample{Ops: 1}
	root := tr.begin("rep", 0, op)
	defer tr.end(root)
	heap0 := liveHeap()
	hash := sha256.New()
	instances := make([]*netfence.Instance, 0, len(cells))
	for _, c := range cells {
		meter := &netfence.Meter{}
		scn := c.make(meter)

		id := tr.begin("build", root, op)
		t0 := time.Now()
		in, err := scn.Build()
		build := time.Since(t0).Seconds()
		tr.end(id)
		if err != nil {
			logf("%s/%s: build: %v", w.name, c.name, err)
			s.Failed = 1
			return s
		}
		instances = append(instances, in)

		runtime.GC()
		id = tr.begin("run", root, op)
		m0, c0, t0 := mallocs(), cpuSeconds(), time.Now()
		res := in.Run()
		run := time.Since(t0).Seconds()
		c1, m1 := cpuSeconds(), mallocs()
		tr.end(id)

		id = tr.begin("collect", root, op)
		raw, err := json.Marshal(res)
		hash.Write(raw)
		tr.end(id)
		if err != nil {
			logf("%s/%s: marshal: %v", w.name, c.name, err)
			s.Failed = 1
		}
		if c.needBound && !res.BoundHolds {
			logf("%s/%s: Theorem-1 bound does not hold (user %.0f bps < floor %.0f bps)", w.name, c.name, res.UserBps, res.BoundBps)
			s.Failed = 1
		}

		s.SetupS += build
		s.RunS += run
		s.CPUS += c1 - c0
		s.Mallocs += m1 - m0
		s.Events += meter.Total()
		s.CellRunS = append(s.CellRunS, run)
		if sh := in.Sharding; sh != nil {
			// Copy the numbers out: the Sharding itself keeps the whole
			// run reachable through its coordinator.
			s.Shard = &shardStats{
				Shards: sh.Shards, CutLinks: sh.CutLinks, Pipeline: sh.Pipeline,
				Windows: sh.Windows(), SerializedNanos: sh.SerializedNanos(),
			}
		}
		s.Runtime = in.RuntimeCounters()
	}
	s.LiveHeapMB = (liveHeap() - heap0) / 1e6
	runtime.KeepAlive(instances)
	s.SHA = hex.EncodeToString(hash.Sum(nil))
	return s
}
