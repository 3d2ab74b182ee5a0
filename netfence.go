// Package netfence is a from-scratch reproduction of "NetFence:
// Preventing Internet Denial of Service from Inside Out" (Liu, Yang, Xia
// — SIGCOMM 2010): the secure congestion policing feedback primitive, the
// closed-loop access/bottleneck router architecture built on it, the
// paper's comparison baselines (TVA+, StopIt, per-sender fair queuing),
// and a packet-level discrete-event simulator to run them on.
//
// This root package is the public facade, and the declarative Scenario
// is its one way to build a run: name a topology, a defense from the
// pluggable registry, workloads and probes, and Run it — or fan a whole
// defenses × populations × seeds matrix across cores with Sweep:
//
//	res, err := netfence.Scenario{
//		Seed:     42,
//		Topology: netfence.DumbbellSpec{Senders: 2, BottleneckBps: 400_000, ColluderASes: 1},
//		Defense:  netfence.Defense("netfence"),
//		Workloads: []netfence.Workload{
//			netfence.LongTCP{Senders: []int{0}},
//			netfence.ColluderPairs{Senders: []int{1}},
//		},
//		Duration: 180 * netfence.Second,
//	}.Run()
//
// The types below are what the Scenario API, a built Instance and the
// defense, attack and topology registries expose; every example under
// examples/ and every table and figure cmd/netfence-sim regenerates is
// built from Scenarios.
package netfence

import (
	"netfence/internal/attack"
	"netfence/internal/core"
	"netfence/internal/defense"
	"netfence/internal/netsim"
	"netfence/internal/packet"
	"netfence/internal/sim"
)

// Simulation engine and time.
type (
	// Engine is the deterministic discrete-event scheduler.
	Engine = sim.Engine
	// Time is simulated time in nanoseconds.
	Time = sim.Time
)

// Time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
	Hour        = sim.Hour
)

// Network substrate: what a built Instance holds and what defense
// systems and attack strategies operate on.
type (
	// Network is a simulated internetwork.
	Network = netsim.Network
	// Node is a router or host.
	Node = netsim.Node
	// Agent is a transport endpoint attached to a host.
	Agent = netsim.Agent
	// Link is a unidirectional link.
	Link = netsim.Link
	// Packet is the simulated packet.
	Packet = packet.Packet
	// Feedback is one congestion policing feedback element — what
	// attack strategies observe and may craft.
	Feedback = packet.Feedback
	// NodeID addresses a node.
	NodeID = packet.NodeID
)

// Packet channels, for strategies crafting their own headers.
const (
	KindLegacy  = packet.KindLegacy
	KindRequest = packet.KindRequest
	KindRegular = packet.KindRegular
)

// NetFence proper.
type (
	// Config holds every NetFence parameter (Figure 3 defaults).
	Config = core.Config
	// System is a NetFence deployment.
	System = core.System
	// Policy is a host's receiver-side classification of unwanted
	// traffic.
	Policy = defense.Policy
	// DefenseSystem is the interface NetFence and all baselines satisfy.
	DefenseSystem = defense.System
)

// DefaultConfig returns the paper's Figure 3 parameters.
func DefaultConfig() Config { return core.DefaultConfig() }

// Attack strategies. The adaptive-adversary subsystem (internal/attack)
// mirrors the defense and topology registries: strategies resolve by
// name in AttackSpec workloads and the Sweep.Attacks axis, and third
// parties register their own through RegisterAttack.
type (
	// AttackStrategy decides, per control tick, how each attack sender
	// transmits; see the interface's hooks for feedback observation and
	// packet crafting.
	AttackStrategy = attack.Strategy
	// AttackBuilder constructs a strategy from build options.
	AttackBuilder = attack.Builder
	// AttackBuildOptions carries rate, environment and strategy
	// parameters to a builder.
	AttackBuildOptions = attack.BuildOptions
	// AttackEnv is the scenario view adaptive strategies key off.
	AttackEnv = attack.Env
	// AttackDecision is a strategy's per-tick transmission plan.
	AttackDecision = attack.Decision
	// AttackSender is one controller-driven attack sender.
	AttackSender = attack.Sender
	// AttackParamSpec declares one tunable strategy parameter — the
	// dimension surface the adversarial search optimizes over.
	AttackParamSpec = attack.ParamSpec
)

// RegisterAttack makes a third-party attack strategy resolvable by name
// in scenarios and sweeps. In-tree strategies ("flood", "onoff-sync",
// "request-prio", "replay", "legacy-flood") are pre-registered. The
// optional params declare the strategy's tunable surface (validated on
// build, searched by SearchSpec).
func RegisterAttack(name string, b AttackBuilder, params ...AttackParamSpec) {
	attack.Register(name, b, params...)
}

// Attacks returns the sorted names of every registered attack strategy.
func Attacks() []string { return attack.Names() }

// AttackParams returns a strategy's declared tunable parameters in
// declaration order.
func AttackParams(name string) ([]AttackParamSpec, error) { return attack.Params(name) }

// ParseAttackSpec parses an attack option string — "name" or
// "name:key=val,key=val" — into the canonical strategy name and its
// validated parameter overrides.
func ParseAttackSpec(s string) (name string, params map[string]float64, err error) {
	return attack.ParseSpec(s)
}

// FormatAttackSpec renders a (strategy, params) pair canonically; it
// round-trips with ParseAttackSpec.
func FormatAttackSpec(name string, params map[string]float64) string {
	return attack.FormatSpec(name, params)
}

// TheoremBound returns the Theorem-1 (§3.4, Appendix A) lower bound
// ρ·C/(G+B) on a sufficient-demand sender's rate limit — the fair-share
// floor no attack strategy can push a legitimate sender below.
func TheoremBound(cfg Config, bottleneckBps int64, senders int) float64 {
	return attack.TheoremBound(cfg, bottleneckBps, senders)
}
