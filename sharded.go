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

// PipelineMode once selected the sharded validation pipeline, which
// is deleted: sharded Passport runs verify inline on the destination
// shard, as the single engine does.
//
// Deprecated: ignored; removed with the benchmark change that stops
// naming it.
type PipelineMode int

// PipelineAuto is PipelineMode's zero value.
//
// Deprecated: ignored; removed with the benchmark change that stops
// naming it.
const PipelineAuto PipelineMode = 0

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
	// Pipeline is always false.
	//
	// Deprecated: ignored; removed with the benchmark change that stops
	// naming it.
	Pipeline bool

	coord *sim.Coordinator
}

// Windows returns the number of synchronization rounds executed so far.
func (sh *Sharding) Windows() uint64 { return sh.coord.Windows() }

// SerializedNanos returns each shard's accumulated execute-round
// wall-clock nanoseconds — the serialized portion of the parallel run.
// Call it at a control point or after the run.
func (sh *Sharding) SerializedNanos() []int64 { return sh.coord.SerializedNanos() }

// shardState is the executor state of one scenario run: one graph,
// built once, bound to one network per shard, each on its own engine
// (netsim.Network.Bind). One shard is the graph's own network on a plain
// engine. With more, every node and link carries the network of the
// shard owning its AS (a link, its From node's), which alone writes its
// mutable state, and the shards' networks share the graph's nodes,
// links, node → AS table and routing arrays. The control plane is
// deployed where it is owned: an access router polices, with its keyring
// and rotation timer, only on the shard owning its AS, and a bottleneck
// is protected, with its queue discipline and detection ticker, only on
// the shard owning its transmitting router. Every entity that draws
// randomness owns its stream (sim.Engine.KeyStream of its origin ID), so
// the owner draws what the single engine would.
type shardState struct {
	// shardOfNode maps a node ID to its shard (nil on one shard);
	// lookahead is the synchronization window (0 on one).
	shardOfNode []int32
	lookahead   Time
	engines     []*sim.Engine
	nets        []*netsim.Network
	systems     []defense.System
	coord       *sim.Coordinator
	inboxes     [][]*netsim.Mailbox
	info        *Sharding
}

// system returns the defense System of the shard owning node n.
func (st *shardState) system(n *netsim.Node) defense.System { return st.systems[st.shardOf(n.ID)] }

// shardOf returns the shard owning a node.
func (st *shardState) shardOf(id packet.NodeID) int {
	if st.shardOfNode == nil {
		return 0
	}
	return int(st.shardOfNode[id])
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

// applyFleetWeights gives g's aggregate-mode FleetSpec attachment
// points their weight before partitioning: the load balance must count
// one as the modeled senders it stands for, not as one host. Attachment
// sets the same weight. Only specs that will actually aggregate count:
// exact fan-out (explicit or forced by deployment mutations) keeps
// weight 1. Malformed specs are skipped here — attachment reports their
// errors with full context.
func (s *Scenario) applyFleetWeights(g *topo.Graph) {
	if s.deploysMidRun() {
		return
	}
	for _, w := range s.Workloads {
		fs, ok := w.(FleetSpec)
		if !ok || fs.Exact {
			continue
		}
		if fs.Count <= 0 || len(fs.Senders) == 0 || fs.Count%len(fs.Senders) != 0 {
			continue
		}
		if fs.Group < 0 || fs.Group >= len(g.Groups()) {
			continue
		}
		weight, senders := int32(fs.Count/len(fs.Senders)), g.Groups()[fs.Group].Senders
		for _, idx := range fs.Senders {
			if idx >= 0 && idx < len(senders) {
				senders[idx].Weight = weight
			}
		}
	}
}

// bindShards builds the run's topology once, on shard 0's engine, and
// binds it to its shards. More than one shard — explicit, or AutoShards
// resolved from the topology — partitions the graph by AS and binds each
// node and link to the network of the shard owning it, each shard on its
// own engine. Otherwise the graph runs on its own network, and part is
// nil.
func (s Scenario) bindShards(shards int) (*shardState, *topo.Graph, *topo.Partition, error) {
	eng := sim.New(s.Seed)
	g, err := s.Topology.buildTopo(eng)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if shards == AutoShards {
		shards = resolveAutoShards(g)
	}
	st := &shardState{
		engines: []*sim.Engine{eng},
		nets:    []*netsim.Network{g.Net},
		systems: make([]defense.System, max(shards, 1)),
	}
	if shards <= 1 {
		return st, g, nil, nil
	}

	// StopIt's victim installs a filter by writing into the source's
	// access router, which only the shard owning the source's AS holds.
	if s.DenyAttackers && defense.Canonical(s.Defense.Name) == "stopit" {
		return nil, nil, nil, fmt.Errorf("scenario %q: StopIt with DenyAttackers on %d shards: %w", s.Name, shards, errShardedFilterRequest)
	}
	s.applyFleetWeights(g)
	part, err := g.Partition(shards)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("scenario %q: Shards=%d: %w", s.Name, shards, err)
	}
	for len(st.engines) < shards {
		st.engines = append(st.engines, sim.New(s.Seed))
	}
	st.shardOfNode, st.lookahead = part.ShardOfNode, part.Lookahead
	st.nets = g.Net.Bind(part.ShardOfNode, st.engines)
	st.inboxes = make([][]*netsim.Mailbox, shards)
	return st, g, part, nil
}

// build constructs the scenario's topology on its shards, then
// assembles everything else once: defense deployment, workloads,
// tracing, meter, probes and the warm-up mark. On one engine the
// scheduling order — topology, defense, workloads, recorder, meter,
// probes, warm-up — is what fixes every event's key. The scenario s must
// already be validated and defaulted by Build.
func (s Scenario) build(shards int) (*Instance, error) {
	st, g, part, err := s.bindShards(shards)
	if err != nil {
		return nil, err
	}

	plan, deployed, err := s.Deployment.plan(g.SourceASes())
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	env := &scenarioEnv{
		sc:           &s,
		graph:        g,
		topoName:     s.Topology.name(),
		sh:           st,
		byShard:      make([]shardMeters, len(st.engines)),
		fcts:         make([]fctRecord, len(st.engines)),
		denySet:      map[packet.NodeID]bool{},
		plan:         plan,
		deployed:     deployed,
		savedIngress: map[*netsim.Node]func(*packet.Packet, *netsim.Link) bool{},
		savedShims:   map[*netsim.Node]netsim.Shim{},
		listeners:    map[int]bool{},
		srcCounters:  map[int]map[packet.NodeID]*int64{},
		duration:     s.Duration,
		warmup:       s.Warmup,
	}
	for _, l := range g.Bottlenecks() {
		env.links = append(env.links, linkParams{delay: l.Delay, rates: []rateStep{{rate: l.Rate}}})
	}
	// The deny policy closes over the deny set, which the attack
	// workloads populate during attachment below.
	if s.DenyAttackers {
		env.deny.Deny = func(src packet.NodeID) bool { return env.denySet[src] }
	}
	// Each shard has a System of its own, whose Passport registry makes a
	// pair's CMAC only when the shard uses the pair, and each bottleneck,
	// access router and host is deployed by its owning shard's System —
	// through the installer deploy mutations arm with.
	for i, net := range st.nets {
		sys, err := defense.Build(s.Defense.Name, net, defense.BuildOptions{Config: s.Defense.Config})
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		st.systems[i] = sys
	}
	for _, l := range g.Bottlenecks() {
		st.system(l.From).ProtectLink(l)
	}
	env.arm(plan.Participates)

	if len(g.Bottlenecks()) > 0 {
		bn := g.Bottlenecks()[0]
		if cs, ok := st.system(bn.From).(*core.System); ok {
			env.nfBottleneck = cs.Bottleneck(bn)
		}
	}
	if part == nil {
		st.coord = sim.NewCoordinator(st.engines, 0, nil)
	} else {
		st.wire(part, g)
	}

	for _, w := range s.Workloads {
		if err := w.attach(env); err != nil {
			return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	if s.TraceFlows > 0 {
		// One shared sample set (read-only) drawn from the attach-time
		// flows; each shard records into its own buffer and the merge
		// sorts by content, so the trace is shard-count-invariant.
		sampled := obs.SampleFlows(s.Seed, env.flows, s.TraceFlows)
		for _, net := range st.nets {
			net.Rec = obs.NewRecorder(sampled)
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
	env.txWarmMarks = make([]uint64, len(g.Bottlenecks()))
	for i, e := range st.engines {
		shard := i
		e.At(s.Warmup, func() { env.snapshotWarmShard(shard) })
	}

	return &Instance{
		Scenario: s,
		Eng:      st.engines[0],
		Engines:  st.engines,
		Net:      g.Net,
		System:   st.systems[0],
		Graph:    g,
		Sharding: st.info,
		env:      env,
		probes:   probes,
	}, nil
}

// wire connects a partitioned run's shards: mailbox-backed cut links
// and the coordinator with its lookahead.
func (st *shardState) wire(part *topo.Partition, g *Graph) {
	shards := len(st.engines)
	// A cut link hands off from its From node's shard into its To node's.
	for _, l := range part.CutLinks {
		mb := netsim.NewMailbox(l)
		l.SetMailbox(mb)
		dst := st.shardOf(l.To.ID)
		st.inboxes[dst] = append(st.inboxes[dst], mb)
	}

	st.coord = sim.NewCoordinator(st.engines, part.Lookahead, shardNames(part, g))
	st.coord.SetDrain(func(shard int, deadline sim.Time) bool {
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
