package netfence

import (
	"errors"
	"fmt"
	"runtime"

	"netfence/internal/core"
	"netfence/internal/defense"
	"netfence/internal/netsim"
	"netfence/internal/obs"
	"netfence/internal/packet"
	"netfence/internal/sim"
	"netfence/internal/topo"
)

// AutoShards, assigned to Scenario.Shards, requests one shard per
// available CPU (runtime.GOMAXPROCS), clamped to the topology's
// partitionable AS count. Unlike an explicit shard count — which fails
// fast when it exceeds the AS count — the auto request is a capacity
// hint and clamps by design.
const AutoShards = -1

// PipelineMode controls the sharded validation pipeline: the stage that
// precomputes MAC verdicts for cut-link handoff batches on a worker
// pool during the drain phase, so the serialized execute phase consumes
// cached verdicts instead of running CMAC inline (see
// core.Pipeline). Results are byte-identical in every mode at every
// shard count — the mode trades wall-clock speed, never outcomes.
type PipelineMode int

const (
	// PipelineAuto (the zero value) enables the pipeline exactly when it
	// can pay: a sharded run of the NetFence system with Passport trailer
	// verification active at core links. Everything else runs without it.
	PipelineAuto PipelineMode = iota
	// PipelineOn forces the pipeline on every sharded NetFence run.
	PipelineOn
	// PipelineOff disables the pipeline unconditionally.
	PipelineOff
)

// ParsePipelineMode parses "auto", "on" or "off" (the job spec's
// "pipeline" spellings).
func ParsePipelineMode(s string) (PipelineMode, error) {
	switch s {
	case "", "auto":
		return PipelineAuto, nil
	case "on":
		return PipelineOn, nil
	case "off":
		return PipelineOff, nil
	}
	return PipelineAuto, fmt.Errorf("netfence: unknown pipeline mode %q (auto|on|off)", s)
}

// String returns the job-spec spelling of the mode.
func (m PipelineMode) String() string {
	switch m {
	case PipelineOn:
		return "on"
	case PipelineOff:
		return "off"
	}
	return "auto"
}

// Partitioning errors, re-exported so callers can errors.Is against
// them without importing internal packages.
var (
	// ErrTooManyShards: an explicit Scenario.Shards exceeded the
	// topology's AS count (ASes are atomic partition units).
	ErrTooManyShards = topo.ErrTooManyShards
	// ErrSplitIntraAS: a partition would cut an intra-AS link.
	ErrSplitIntraAS = topo.ErrSplitIntraAS
	// ErrNoLookahead: a cut link has non-positive delay, so no
	// conservative synchronization window exists.
	ErrNoLookahead = topo.ErrNoLookahead
)

// errShardedFilterRequest is why Build refuses StopIt with a deny policy
// on more than one shard.
var errShardedFilterRequest = errors.New("a victim's filter request cannot reach the source's access router, which only the shard owning the source's AS deploys")

// Sharding describes a partitioned run, for introspection and tooling.
type Sharding struct {
	// Shards is the resolved shard count.
	Shards int
	// CutLinks is the number of inter-shard links.
	CutLinks int
	// Lookahead is the synchronization window (minimum cut-link delay).
	Lookahead Time
	// ASesPerShard lists each shard's AS count.
	ASesPerShard []int
	// Pipeline reports whether the sharded validation pipeline is active
	// on this run (Scenario.Pipeline resolved against the built system).
	Pipeline bool

	coord *sim.Coordinator
}

// Windows returns the number of synchronization rounds executed so far.
func (sh *Sharding) Windows() uint64 { return sh.coord.Windows() }

// SerializedNanos returns each shard's accumulated execute-round
// wall-clock nanoseconds — the serialized portion of the parallel run.
// Call it at a control point or after the run; with the validation
// pipeline active, the bottleneck shard's slot shrinks by the CMAC work
// moved into the drain phase.
func (sh *Sharding) SerializedNanos() []int64 { return sh.coord.SerializedNanos() }

// shardState is the executor state of one scenario run: one replica of
// the network per shard, each on its own engine. One shard is one dense
// replica on a plain engine. With more, every replica is sparse and
// holds the same routers and router links; a host, its stack, its two
// links and its defense shim exist only on the replica of the shard
// owning its AS — which attaches the live traffic — and are a reserved
// node ID and pair of link indices everywhere else, so IDs, indices and
// with them every scheduling origin agree across replicas. The control
// plane is deployed where it is owned: an access router polices, with
// its keyring and rotation timer, only on the replica owning its AS, and
// a bottleneck is protected, with its queue discipline and detection
// ticker, only on the replica owning its transmitting router. Every
// entity that draws randomness owns its stream (sim.Engine.KeyStream of
// its origin ID), so the owner draws what the single engine would.
type shardState struct {
	// shardOfNode and shardOfAS map a node ID and an AS to its shard (nil
	// on one shard); lookahead is the synchronization window (0 on one).
	shardOfNode []int32
	shardOfAS   map[packet.ASID]int
	lookahead   Time
	engines     []*sim.Engine
	replicas    []*builtTopo
	systems     []defense.System
	coord       *sim.Coordinator
	inboxes     [][]*netsim.Mailbox
	// pipelines holds each shard's validation pipeline (nil slice when
	// the run resolved to PipelineOff or no shard can use one).
	pipelines []*core.Pipeline
	info      *Sharding
}

// pipeline returns shard sh's validation pipeline, nil when inactive.
func (st *shardState) pipeline(sh int) *core.Pipeline {
	if st.pipelines == nil {
		return nil
	}
	return st.pipelines[sh]
}

// stopPipelines tears down every shard's validation workers. Safe to
// call repeatedly and with no pipelines built.
func (st *shardState) stopPipelines() {
	for _, pl := range st.pipelines {
		if pl != nil {
			pl.Stop()
		}
	}
}

// shardOf returns the shard owning a node.
func (st *shardState) shardOf(id packet.NodeID) int {
	if st.shardOfNode == nil {
		return 0
	}
	return int(st.shardOfNode[id])
}

// stitch returns the role view the workloads attach to: every host
// slot filled with the owning replica's node, so a transport lands on
// the right engine without the workload code knowing about shards. The
// other replicas have nil there, or — built dense by a third-party
// topology — a copy nothing is attached to. A lone replica is its own
// view.
func (st *shardState) stitch() *builtTopo {
	r0 := st.replicas[0]
	if len(st.replicas) == 1 {
		return r0
	}
	view := &builtTopo{
		name:       r0.name,
		net:        r0.net,
		graph:      r0.graph,
		dumbbell:   r0.dumbbell,
		parkingLot: r0.parkingLot,
		groups:     make([]roleGroup, len(r0.groups)),
	}
	for _, l := range r0.bottlenecks {
		owner := st.shardOf(l.From.ID)
		view.bottlenecks = append(view.bottlenecks, st.replicas[owner].net.Links[l.Index])
	}
	for gi := range view.groups {
		view.groups[gi].senders = make([]*netsim.Node, len(r0.groups[gi].senders))
		view.groups[gi].colluders = make([]*netsim.Node, len(r0.groups[gi].colluders))
	}
	for r, bt := range st.replicas {
		mine := func(n *netsim.Node) bool { return n != nil && st.shardOf(n.ID) == r }
		for gi := range bt.groups {
			grp, rg := &bt.groups[gi], &view.groups[gi]
			for i, n := range grp.senders {
				if mine(n) {
					rg.senders[i] = n
				}
			}
			if mine(grp.victim) {
				rg.victim = grp.victim
			}
			for i, c := range grp.colluders {
				if mine(c) {
					rg.colluders[i] = c
				}
			}
		}
	}
	return view
}

// resolveAutoShards clamps the AutoShards request to
// min(GOMAXPROCS, partitionable ASes) for a built graph. Explicit
// counts never pass through here — Build validates them and Partition
// fails fast on excess.
func resolveAutoShards(g *Graph) int {
	n := runtime.GOMAXPROCS(0)
	if m := g.MaxShards(); n > m {
		n = m
	}
	if n < 1 {
		n = 1
	}
	return n
}

// applyFleetWeights tells bt's graph the aggregate-mode FleetSpec
// weights of its senders, for the partition's load balance. Only specs
// that will actually aggregate count: exact fan-out (explicit or forced
// by deployment mutations) keeps weight 1. Malformed specs are skipped
// here — attachment reports their errors with full context.
func (s *Scenario) applyFleetWeights(bt *builtTopo) {
	fanout := false
	for i := range s.Timeline {
		if s.Timeline[i].Deploy != nil {
			fanout = true
			break
		}
	}
	for _, w := range s.Workloads {
		fs, ok := w.(FleetSpec)
		if !ok || fs.Exact || fanout {
			continue
		}
		if fs.Count <= 0 || len(fs.Senders) == 0 || fs.Count%len(fs.Senders) != 0 {
			continue
		}
		if fs.Group < 0 || fs.Group >= len(bt.groups) {
			continue
		}
		weight := fs.Count / len(fs.Senders)
		for _, idx := range fs.Senders {
			if idx >= 0 && idx < len(bt.groups[fs.Group].senders) {
				bt.graph.WeighSender(fs.Group, idx, int32(weight))
			}
		}
	}
}

// replicate builds the run's engines and network replicas. More than
// one shard — explicit, or AutoShards resolved from the topology —
// partitions a host-free skeleton by AS and builds one sparse replica
// per shard on its own engine. Otherwise it builds the dense topology on
// one engine, and part is nil.
func (s Scenario) replicate(shards int) (*shardState, *topo.Partition, error) {
	build := func(owns func(packet.ASID) bool) (*sim.Engine, *builtTopo, error) {
		eng := sim.New(s.Seed)
		bt, err := s.Topology.buildTopo(eng, owns)
		if err != nil {
			return nil, nil, fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		return eng, bt, nil
	}
	// The skeleton holds no host at all: routers, their links, roles and
	// every node's AS are what the partition reads. Nothing keeps a
	// pointer into it — cut links and bottlenecks are looked up in the
	// replicas by index — so it is garbage once the replicas exist.
	var skel *builtTopo
	if shards == AutoShards || shards > 1 {
		var err error
		if _, skel, err = build(func(packet.ASID) bool { return false }); err != nil {
			return nil, nil, err
		}
		if shards == AutoShards {
			shards = resolveAutoShards(skel.graph)
		}
	}
	if shards <= 1 {
		eng, bt, err := build(nil)
		if err != nil {
			return nil, nil, err
		}
		return &shardState{
			engines:  []*sim.Engine{eng},
			replicas: []*builtTopo{bt},
			systems:  make([]defense.System, 1),
		}, nil, nil
	}

	// StopIt's victim installs a filter by writing into the source's
	// access router, which only the shard owning the source's AS holds.
	if s.DenyAttackers && defense.Canonical(s.Defense.Name) == "stopit" {
		return nil, nil, fmt.Errorf("scenario %q: StopIt with DenyAttackers on %d shards: %w", s.Name, shards, errShardedFilterRequest)
	}
	// Weigh aggregate fleets before partitioning: the load balance must
	// count a fleet attachment point as the modeled senders it stands
	// for, not as one host. Workload attachment stamps the owning
	// replica's nodes later; this pass only informs the split.
	s.applyFleetWeights(skel)
	part, err := skel.graph.Partition(shards)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario %q: Shards=%d: %w", s.Name, shards, err)
	}
	st := &shardState{
		shardOfNode: part.ShardOfNode,
		shardOfAS:   part.ShardOfAS,
		lookahead:   part.Lookahead,
		engines:     make([]*sim.Engine, shards),
		replicas:    make([]*builtTopo, shards),
		systems:     make([]defense.System, shards),
		inboxes:     make([][]*netsim.Mailbox, shards),
	}
	for i := range st.replicas {
		owns := func(as packet.ASID) bool { return st.shardOfAS[as] == i }
		if st.engines[i], st.replicas[i], err = build(owns); err != nil {
			return nil, nil, err
		}
	}
	return st, part, nil
}

// build constructs the scenario on its shards' replicas, then assembles
// everything else once: defense deployment, workloads, tracing, meter,
// probes and the warm-up mark. On one engine the scheduling order —
// topology, defense, workloads, recorder, meter, probes, warm-up — is
// what fixes every event's key. The scenario s must already be
// validated and defaulted by Build.
func (s Scenario) build(shards int) (*Instance, error) {
	st, part, err := s.replicate(shards)
	if err != nil {
		return nil, err
	}
	eng0, bt0 := st.engines[0], st.replicas[0]

	plan, deployed, err := s.Deployment.plan(bt0.graph.SourceASes())
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	env := &scenarioEnv{
		sc:          &s,
		sh:          st,
		byShard:     make([]shardMeters, len(st.engines)),
		fcts:        make([]fctRecord, len(st.engines)),
		denySet:     map[packet.NodeID]bool{},
		deployed:    deployed,
		listeners:   map[int]bool{},
		srcCounters: map[int]map[packet.NodeID]*int64{},
		duration:    s.Duration,
		warmup:      s.Warmup,
	}
	// The deny policy closes over the deny set, which the attack
	// workloads populate during attachment below.
	if s.DenyAttackers {
		env.deny.Deny = func(src packet.NodeID) bool { return env.denySet[src] }
	}
	// Each replica deploys the part of the defense its shard owns (see
	// Graph.Deploy); every replica has its own System, whose Passport
	// registry makes a pair's CMAC only when the shard uses the pair.
	for i, bt := range st.replicas {
		sys, err := defense.Build(s.Defense.Name, bt.net, defense.BuildOptions{Config: s.Defense.Config})
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		st.systems[i] = sys
		bt.graph.Deploy(sys, env.deny, plan)
	}

	env.builtTopo = st.stitch()
	if len(env.bottlenecks) > 0 {
		bn := env.bottlenecks[0]
		if cs, ok := st.systems[st.shardOf(bn.From.ID)].(*core.System); ok {
			env.nfBottleneck = cs.Bottleneck(bn)
		}
	}
	if part == nil {
		st.coord = sim.NewCoordinator(st.engines, 0, nil)
	} else {
		st.wire(part, bt0.graph, s.Pipeline)
	}

	for _, w := range s.Workloads {
		if err := w.attach(env); err != nil {
			return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	if s.TraceFlows > 0 {
		// One shared sample set (read-only) drawn from the attach-time
		// flows; each replica records into its own buffer and the merge
		// sorts by content, so the trace is shard-count-invariant.
		sampled := obs.SampleFlows(s.Seed, env.flows, s.TraceFlows)
		for _, bt := range st.replicas {
			bt.net.Rec = obs.NewRecorder(sampled)
		}
	}
	if s.Meter != nil {
		for _, e := range st.engines {
			e.AttachMeter(s.Meter)
		}
	}

	probes := s.Probes
	if probes == nil {
		probes = []Probe{GoodputProbe{}, FairnessProbe{}, FCTProbe{}}
	}
	for _, p := range probes {
		if err := p.install(env); err != nil {
			return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	// Warmup marks are taken shard-locally: each engine snapshots the
	// meters and bottleneck counters its shard owns, at the same
	// simulated instant.
	env.txWarmMarks = make([]uint64, len(env.bottlenecks))
	for i, e := range st.engines {
		shard := i
		e.At(s.Warmup, func() { env.snapshotWarmShard(shard) })
	}

	return &Instance{
		Scenario:   s,
		Eng:        eng0,
		Engines:    st.engines,
		Net:        bt0.net,
		System:     st.systems[0],
		Graph:      bt0.graph,
		Dumbbell:   bt0.dumbbell,
		ParkingLot: bt0.parkingLot,
		Sharding:   st.info,
		env:        env,
		probes:     probes,
	}, nil
}

// wire connects a partitioned run's shards: mailbox-backed cut links,
// the coordinator with its lookahead, and the validation pipeline.
func (st *shardState) wire(part *topo.Partition, g *Graph, mode PipelineMode) {
	shards := len(st.engines)
	// The source replica's link hands off into the destination replica's
	// copy.
	for _, l := range part.CutLinks {
		src := st.shardOf(l.From.ID)
		dst := st.shardOf(l.To.ID)
		mb := netsim.NewMailbox(st.replicas[dst].net.Links[l.Index])
		st.replicas[src].net.Links[l.Index].SetMailbox(mb)
		st.inboxes[dst] = append(st.inboxes[dst], mb)
	}

	names := shardNames(part, g)
	st.coord = sim.NewCoordinator(st.engines, part.Lookahead, names)

	// Resolve the validation-pipeline mode and build the per-shard worker
	// pools. Auto enables the stage exactly where it pays: handoffs into
	// shards whose NetFence replica verifies Passport trailers at core
	// links — the CMAC work that otherwise serializes on the bottleneck
	// shard's execute phase.
	usePipe := mode == PipelineOn
	if mode == PipelineAuto {
		if cs, ok := st.systems[0].(*core.System); ok {
			usePipe = cs.Cfg.Passport && cs.Registry != nil
		}
	}
	pipeActive := false
	if usePipe {
		workers := runtime.GOMAXPROCS(0)
		if workers > 4 {
			workers = 4
		}
		st.pipelines = make([]*core.Pipeline, shards)
		for i := range st.inboxes {
			cs, ok := st.systems[i].(*core.System)
			if !ok || len(st.inboxes[i]) == 0 {
				continue
			}
			st.pipelines[i] = core.NewPipeline(cs, st.replicas[i].net, names[i], workers)
			pipeActive = true
		}
		if !pipeActive {
			st.pipelines = nil
		}
	}

	st.coord.SetDrain(func(shard int, deadline sim.Time) bool {
		// Precompute every pending handoff's MAC verdicts on the worker
		// pool before injecting: all shards are parked in the drain round,
		// so the replica state the verdicts read is frozen, and Wait's
		// completion happens-before the injection below.
		if pl := st.pipeline(shard); pl != nil {
			pl.Submit(st.inboxes[shard])
			pl.Wait()
		}
		hit := false
		for _, mb := range st.inboxes[shard] {
			if mb.Drain(deadline) {
				hit = true
			}
		}
		return hit
	})
	st.info = &Sharding{
		Shards:       shards,
		CutLinks:     len(part.CutLinks),
		Lookahead:    part.Lookahead,
		ASesPerShard: make([]int, shards),
		Pipeline:     pipeActive,
		coord:        st.coord,
	}
	for _, sh := range part.ShardOfAS {
		st.info.ASesPerShard[sh]++
	}
}

// shardNames labels each shard with its AS span for pprof attribution.
func shardNames(part *topo.Partition, g *Graph) []string {
	firsts := make([]packet.ASID, part.Shards)
	lasts := make([]packet.ASID, part.Shards)
	seen := make([]bool, part.Shards)
	for _, as := range g.AllASes() {
		sh := part.ShardOfAS[as]
		if !seen[sh] {
			seen[sh] = true
			firsts[sh] = as
		}
		lasts[sh] = as
	}
	names := make([]string, part.Shards)
	for i := range names {
		if firsts[i] == lasts[i] {
			names[i] = fmt.Sprintf("as%d", firsts[i])
		} else {
			names[i] = fmt.Sprintf("as%d-as%d", firsts[i], lasts[i])
		}
	}
	return names
}
