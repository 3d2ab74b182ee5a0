package netfence

import (
	"context"
	"fmt"
	"slices"
	"strings"

	// The baselines self-register in the defense registry; scenarios
	// resolve them by name, so link them in explicitly.
	"netfence/internal/attack"
	_ "netfence/internal/baseline"
	"netfence/internal/core"
	"netfence/internal/defense"
	"netfence/internal/netsim"
	"netfence/internal/obs"
	"netfence/internal/packet"
	"netfence/internal/slab"
	"netfence/internal/topo"
	"netfence/internal/transport"
)

// Scenario is the declarative description of one simulation: a typed
// topology spec, a defense system resolved by name from the pluggable
// defense registry, a deployment plan saying which ASes actually run
// it, a set of workloads and attacks, and the probes that measure the
// outcome. Zero manual wiring — Run builds the engine and network,
// deploys the defense, attaches every transport, drives the simulation
// and samples the probes:
//
//	sc := netfence.Scenario{
//		Seed:     42,
//		Topology: netfence.DumbbellSpec{Senders: 2, BottleneckBps: 400_000, ColluderASes: 1},
//		Defense:  netfence.Defense("netfence"),
//		Workloads: []netfence.Workload{
//			netfence.LongTCP{Senders: []int{0}},
//			netfence.ColluderPairs{Senders: []int{1}},
//		},
//		Duration: 180 * netfence.Second,
//	}
//	res, err := sc.Run()
type Scenario struct {
	// Name labels the scenario in results (optional).
	Name string
	// Seed seeds every random stream of the run; each entity that draws
	// owns its stream (sim.Engine.KeyStream).
	Seed uint64
	// Topology declares the network: DumbbellSpec, ParkingLotSpec,
	// StarSpec or RandomASSpec.
	Topology TopologySpec
	// Defense names the deployed system; the zero value means "netfence".
	Defense DefenseSpec
	// Deployment selects which source ASes run the defense; the zero
	// value deploys everywhere. See DeployFraction and DeployMap.
	Deployment Deployment
	// Workloads attach traffic; see Workload.
	Workloads []Workload
	// Probes measure the run; nil selects GoodputProbe, FairnessProbe
	// and FCTProbe.
	Probes []Probe
	// Duration is the simulated run length (0 = 240 s); measurements
	// start at Warmup (0 = Duration/2), leaving AIMD time to converge.
	Duration, Warmup Time
	// DenyAttackers gives every victim the paper's receiver policy: deny
	// traffic from senders carrying attack workloads aimed at it
	// (victim-bound UDPFlood, OnOffFlood and AttackSpec, RequestFlood,
	// and FleetSpec with Attacker set). Colluder-bound floods are never
	// denied — their receivers cooperate with the attacker.
	DenyAttackers bool
	// Shards partitions the topology into per-AS shards, each simulated
	// by its own engine on its own goroutine with deterministic
	// lookahead synchronization — results are byte-identical to the
	// single-engine run for every workload kind (see the README's
	// parallel-execution contract); Build refuses StopIt with
	// DenyAttackers, whose filter requests cross shards. 0 and 1 are the
	// one-shard case of the same build: one engine over the dense
	// topology.
	// AutoShards picks one shard per CPU, clamped to the topology's AS
	// count; an explicit count exceeding the AS count fails fast instead
	// of clamping.
	Shards int
	// Pipeline selected the deleted sharded validation pipeline.
	//
	// Deprecated: ignored; removed with the benchmark change that stops
	// naming it.
	Pipeline PipelineMode
	// Timeline declares scheduled mid-run control-plane changes — link
	// degradations and restorations, attack toggles and
	// re-parameterizations, deployment-plan changes — applied at their
	// instants between event batches, deterministically on every shard
	// count. See Mutation. An empty Timeline is the classic static run.
	Timeline []Mutation
	// TraceFlows enables the packet flight recorder: a deterministic
	// sample of up to TraceFlows attachment-time flows (selected by
	// seeded hash, identically on every shard count) is traced hop by
	// hop — shim stamp, access-router policing verdict, monitor
	// feedback, queue admit/drop with reason, demotion, delivery. Read
	// the merged trace with Instance.Trace. 0 disables tracing; untraced
	// runs pay only a nil check per hop.
	TraceFlows int
	// Meter, when set, accumulates executed-event counts from every
	// shard engine of this run. Each run gets its own meter, so
	// concurrent runs in one process never cross-contaminate.
	Meter *Meter
}

// DefenseSpec selects a defense system from the registry.
type DefenseSpec struct {
	// Name is the registry name: "netfence", "tva", "stopit", "fq",
	// "none", or any third-party registration. Empty means "netfence".
	Name string
	// Config optionally configures the system (core.Config for
	// "netfence"); nil selects the system's defaults.
	Config any
}

// Defense names a registered defense system with default configuration.
func Defense(name string) DefenseSpec { return DefenseSpec{Name: name} }

// RegisterDefense makes a third-party defense system resolvable by name
// in scenarios and sweeps. In-tree systems are pre-registered.
func RegisterDefense(name string, b DefenseBuilder) { defense.Register(name, b) }

// Defenses returns the sorted names of every registered defense system.
func Defenses() []string { return defense.Names() }

// DefenseBuilder constructs a defense system over a network.
type DefenseBuilder = defense.Builder

// DefenseBuildOptions carries optional construction parameters.
type DefenseBuildOptions = defense.BuildOptions

// scenarioEnv is the mutable state shared by workload attachment, the
// probes and the executor for one scenario run.
type scenarioEnv struct {
	sc *Scenario
	// graph is the run's role-tagged topology, whole at every shard
	// count; topoName is its canonical name, Result.Topology.
	graph    *topo.Graph
	topoName string

	// sh holds the run's engines, networks and defense systems, one per
	// shard.
	sh *shardState

	// meters lists every goodput meter in attachment order, the global
	// order the probes sum in; byShard holds each shard's share of them.
	meters  []*goodputMeter
	byShard []shardMeters
	// meterSlab and sinks carve the meters and the UDP sinks the
	// workloads attach: both live as long as the run.
	meterSlab slab.Slab[goodputMeter]
	sinks     slab.Slab[transport.UDPSink]
	// fcts holds one transfer record per shard: transfer results are
	// recorded by the sender's shard and merged at finish.
	fcts     []fctRecord
	denySet  map[packet.NodeID]bool
	stoppers []interface{ Stop() }
	// flows lists the attach-time flows of a traced run, the flight
	// recorder's sampling universe.
	flows []uint64

	// attacks lists the canonical strategy names of the scenario's
	// AttackSpec workloads, in attachment order, for Result.Attack.
	attacks []string

	// attackCtrls holds each AttackSpec workload's controllers in
	// workload declaration order — one controller per shard owning attack
	// senders. The control plane's attack mutations drive them.
	attackCtrls [][]*attack.Controller

	// Control-plane state for timeline and live mutations: the
	// bottlenecks' build-time delays and rate histories, the active
	// deployment plan, the ingress hooks and host shims saved while their
	// AS is disarmed (a re-arm restores them), the victim deny policy, and
	// whether a FleetSpec attached in aggregate (which refuses deploy
	// mutations).
	links          []linkParams
	plan           topo.Plan
	savedIngress   map[*netsim.Node]func(*packet.Packet, *netsim.Link) bool
	savedShims     map[*netsim.Node]netsim.Shim
	deny           defense.Policy
	fleetAggregate bool

	// deployed is the effective deployed fraction of source ASes.
	deployed float64

	// listeners and srcCounters implement the per-group victim TCP
	// listener with per-source goodput attribution (web and file
	// workloads open fresh flows per transfer).
	listeners   map[int]bool
	srcCounters map[int]map[packet.NodeID]*int64

	// nfBottleneck is the NetFence state of the first protected
	// bottleneck, for monitoring-cycle samples; nil otherwise.
	nfBottleneck *core.Bottleneck

	duration, warmup Time
	txWarmMarks      []uint64

	// TimeseriesProbe state beside the shards' rows: the unmerged ticks'
	// instants (shard 0) and monitoring flags (the NetFence bottleneck's
	// shard), and the samples merged so far.
	tickTimes []float64
	monFlags  []bool
	series    []Sample
}

func (env *scenarioEnv) group(g int, kind string) (*topo.GraphGroup, error) {
	groups := env.graph.Groups()
	if g < 0 || g >= len(groups) {
		return nil, fmt.Errorf("%s: group %d out of range (topology has %d)", kind, g, len(groups))
	}
	return &groups[g], nil
}

// deploysMidRun reports whether the timeline changes the deployment
// plan, which forces every FleetSpec to exact fan-out: a deploy mutation
// re-partitions which senders sit behind a deployed access router, and
// the closed-form aggregation of per-sender limiter state cannot follow.
// Link and attack mutations are aggregation-safe — they change what the
// fleet experiences, not who polices it.
func (s *Scenario) deploysMidRun() bool {
	return slices.ContainsFunc(s.Timeline, func(m Mutation) bool { return m.Deploy != nil })
}

// flowFrom mints an attach-time flow on its sender node and, on a traced
// run, lists it among the flows the flight recorder samples from.
func (env *scenarioEnv) flowFrom(n *netsim.Node) packet.FlowID {
	f := n.NewFlow()
	if env.sc.TraceFlows > 0 {
		env.flows = append(env.flows, uint64(f))
	}
	return f
}

// srcCounter returns the delivered-bytes counter for a source host at a
// group's victim, creating it on first use.
func (env *scenarioEnv) srcCounter(group int, src NodeID) *int64 {
	m := env.srcCounters[group]
	if m == nil {
		m = map[packet.NodeID]*int64{}
		env.srcCounters[group] = m
	}
	ctr := m[src]
	if ctr == nil {
		ctr = new(int64)
		m[src] = ctr
	}
	return ctr
}

// ensureListener installs a TCP listener on a group's victim that
// accepts fresh flows and attributes delivered bytes to their source.
func (env *scenarioEnv) ensureListener(group int) {
	if env.listeners[group] {
		return
	}
	env.listeners[group] = true
	v := env.graph.Groups()[group].Victim
	v.Host.OnUnknownFlow = func(p *Packet) Agent {
		if p.Proto != packet.ProtoTCP {
			return nil
		}
		r := transport.NewTCPReceiver(v.Host, p.Flow)
		if ctr := env.srcCounters[group][p.Src]; ctr != nil {
			r.OnDeliver = func(b int) { *ctr += int64(b) }
		}
		return r
	}
}

// bottleneckBps is the (first) bottleneck capacity, for strategic attack
// computations.
func (env *scenarioEnv) bottleneckBps() int64 { return env.graph.Bottlenecks()[0].Rate }

// recordAttack notes an attached attack strategy once for Result.Attack.
func (env *scenarioEnv) recordAttack(name string) {
	for _, a := range env.attacks {
		if a == name {
			return
		}
	}
	env.attacks = append(env.attacks, name)
}

// Instance is a built, not-yet-run scenario: the escape hatch for code
// that needs the underlying engine, topology or defense system alongside
// the declarative layer.
type Instance struct {
	Scenario Scenario
	// Eng is shard 0's engine (the only one on one shard).
	Eng *Engine
	// Engines lists every shard engine in shard order.
	Engines []*Engine
	// Net is the whole graph's network: every node and link. Its own
	// context — engine, packet pool, counters — is shard 0's; on a
	// sharded run a node's or link's Network() is its owner's.
	Net *Network
	// System is the deployed defense: on a sharded run, shard 0's part
	// only (another shard's access routers and bottlenecks are nil).
	System DefenseSystem
	// Graph is the constructed role-tagged topology, whole at every
	// shard count: read its roles through Groups and Bottlenecks.
	Graph *Graph
	// Sharding describes the partition of a sharded run; nil otherwise.
	Sharding *Sharding

	env    *scenarioEnv
	probes []Probe
	// timeline is what Advance has yet to apply: the scripted Timeline
	// and live mutations dated ahead, validated, in instant order.
	timeline []Mutation
	// finished flags a completed (or stopped) run: the coordinator's
	// workers are torn down and the instance can only be collected.
	finished bool
	// final holds the merged cells harvested once when the run finished
	// (nil before, and after Stop): nothing moves them any more, so the
	// counter accessors read it instead of harvesting again.
	final obs.Cells
}

// Build validates the scenario and constructs everything — engine,
// topology, defense deployment, workloads, probes — without running it.
// Most callers want Run; Build is for introspection mid-run.
func (s Scenario) Build() (*Instance, error) {
	if s.Topology == nil {
		return nil, fmt.Errorf("scenario %q: Topology is required", s.Name)
	}
	if s.Duration < 0 || s.Warmup < 0 {
		return nil, fmt.Errorf("scenario %q: Duration (%v) and Warmup (%v) must not be negative", s.Name, s.Duration, s.Warmup)
	}
	if s.Duration == 0 {
		s.Duration = 240 * Second
	}
	if s.Warmup == 0 {
		s.Warmup = s.Duration / 2
	}
	if s.Warmup >= s.Duration {
		return nil, fmt.Errorf("scenario %q: Warmup (%v) must precede Duration (%v)", s.Name, s.Warmup, s.Duration)
	}
	if s.Defense.Name == "" {
		s.Defense.Name = "netfence"
	}
	if s.Shards < 0 && s.Shards != AutoShards {
		return nil, fmt.Errorf("scenario %q: Shards must be positive or AutoShards, got %d", s.Name, s.Shards)
	}
	in, err := s.build(s.Shards)
	if err != nil {
		return nil, err
	}
	if err := in.Apply(s.Timeline...); err != nil {
		return nil, fmt.Errorf("scenario %q: Timeline %w", s.Name, err)
	}
	return in, nil
}

// Run drives the built scenario to its Duration — applying the
// scenario Timeline's mutations at their instants, between event
// batches — stops the workloads, and collects every probe into the
// Result. Calling Run again returns a freshly collected Result without
// re-driving the simulation, on the sharded path as on the single
// engine.
func (in *Instance) Run() *Result { return in.Finish() }

// collect assembles the Result from the probes' current state.
func (in *Instance) collect() *Result {
	res := &Result{
		Scenario:    in.Scenario.Name,
		Defense:     in.System.Name(),
		Topology:    in.env.topoName,
		Attack:      strings.Join(in.env.attacks, "+"),
		Seed:        in.Scenario.Seed,
		Senders:     senderCount(in.env.graph),
		Deployed:    in.env.deployed,
		DurationSec: in.Scenario.Duration.Seconds(),
		WarmupSec:   in.Scenario.Warmup.Seconds(),
	}
	for _, p := range in.probes {
		p.finish(in.env, res)
	}
	res.Counters = in.Counters()
	return res
}

// Run builds and drives the scenario in one call.
func (s Scenario) Run() (*Result, error) {
	in, err := s.Build()
	if err != nil {
		return nil, err
	}
	return in.Run(), nil
}

// RunAll executes scenarios concurrently (one engine per scenario,
// GOMAXPROCS workers) and returns their results in argument order. A
// failing scenario leaves a nil slot; the error joins every failure.
func RunAll(scs ...Scenario) ([]*Result, error) {
	return runParallel(context.Background(), scs, nil)
}
