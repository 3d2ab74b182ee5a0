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
// defense registry and attack strategies expose; every example under
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
	// Config holds what a NetFence deployment may vary: the §4.5, App. B,
	// Passport and §7 switches, the ablation knobs and the timers tests
	// shorten. Figure 3's fixed parameters are constants of internal/core
	// (core.Ilim, core.RequestCapFrac), internal/ratelimit and
	// internal/aqm.
	Config = core.Config
	// System is a NetFence deployment.
	System = core.System
	// Policy is a host's receiver-side classification of unwanted
	// traffic.
	Policy = defense.Policy
	// DefenseSystem is the interface NetFence and all baselines satisfy.
	DefenseSystem = defense.System
)

// DefaultConfig returns the paper's settings with every extension off.
func DefaultConfig() Config { return core.DefaultConfig() }

// AttackParamSpec declares one tunable parameter of an attack strategy
// — a dimension of the surface the adversarial search optimizes over.
// The five in-tree strategies (internal/attack: "flood", "onoff-sync",
// "request-prio", "replay", "legacy-flood") resolve by name in
// AttackSpec workloads, the Sweep.Attacks axis and SearchSpec.
type AttackParamSpec = attack.ParamSpec

// Attacks returns the sorted names of the in-tree attack strategies.
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
func TheoremBound(bottleneckBps int64, senders int) float64 {
	return attack.TheoremBound(bottleneckBps, senders)
}
