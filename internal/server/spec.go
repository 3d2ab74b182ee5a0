// Package server is the simulation service behind `netfence-sim
// -serve`: scenario and sweep jobs submitted as JSON over HTTP, a
// bounded job queue over the scenario and sweep engines, live
// timeseries streaming over SSE, and a mid-run control endpoint that
// feeds mutations into the exact code path scripted timelines use —
// so a live-steered run at the same simulated instants is
// byte-identical to the scripted batch run.
package server

import (
	"fmt"

	netfence "netfence"
)

// JobSpec is the top-level submission body of POST /jobs: exactly one
// of Scenario, Sweep or Search.
type JobSpec struct {
	// Scenario submits one scenario run, streamed and controllable.
	Scenario *ScenarioSpec `json:"scenario,omitempty"`
	// Sweep submits a scenario matrix; progress streams, control does
	// not apply (cells are batch runs).
	Sweep *SweepSpec `json:"sweep,omitempty"`
	// Search submits an adversarial search: per-candidate progress
	// streams as "candidate" events, control does not apply.
	Search *SearchJobSpec `json:"search,omitempty"`

	// StreamIntervalSec is the scenario job's segment step: the run
	// advances in steps of at most this many simulated seconds, flushing
	// timeseries samples and polling the control queue at each boundary
	// (0 = 1 s). Segmentation granularity never changes the result —
	// only how often the stream and control plane get a word in.
	StreamIntervalSec float64 `json:"stream_interval_sec,omitempty"`
	// PauseAtSec lists simulated instants where the scenario job pauses
	// and waits for a control message with resume=true. Mutations posted
	// while paused apply at exactly the paused instant — the mechanism
	// that makes live control reproducible against a scripted timeline.
	PauseAtSec []float64 `json:"pause_at_sec,omitempty"`
}

// ScenarioSpec is the JSON form of a netfence.Scenario.
type ScenarioSpec struct {
	Name string `json:"name,omitempty"`
	Seed uint64 `json:"seed,omitempty"`
	// Topology declares the network.
	Topology TopologySpec `json:"topology"`
	// Defense is the defense-registry name ("" = "netfence").
	Defense string `json:"defense,omitempty"`
	// DeployFraction deploys the defense on this fraction of source ASes
	// (nil = full deployment).
	DeployFraction *float64 `json:"deploy_fraction,omitempty"`
	// Workloads attach traffic.
	Workloads []WorkloadSpec `json:"workloads"`
	// DurationSec and WarmupSec are the run length and measurement-start
	// instants in simulated seconds (0 = the scenario defaults: 240 s,
	// duration/2).
	DurationSec float64 `json:"duration_sec,omitempty"`
	WarmupSec   float64 `json:"warmup_sec,omitempty"`
	// DenyAttackers gives victims the paper's receiver deny policy.
	DenyAttackers bool `json:"deny_attackers,omitempty"`
	// Shards partitions the run (0/1 = single engine, -1 = auto).
	Shards int `json:"shards,omitempty"`
	// TimeseriesIntervalSec is the sampling period of the timeseries
	// probe every serve-mode scenario carries (0 = 5 s).
	TimeseriesIntervalSec float64 `json:"timeseries_interval_sec,omitempty"`
	// Timeline schedules scripted mutations.
	Timeline []MutationSpec `json:"timeline,omitempty"`
}

// SweepSpec is the JSON form of a netfence.Sweep (the axes the service
// exposes).
type SweepSpec struct {
	Base            ScenarioSpec        `json:"base"`
	Defenses        []string            `json:"defenses,omitempty"`
	Populations     []int               `json:"populations,omitempty"`
	DeployFractions []float64           `json:"deploy_fractions,omitempty"`
	Attacks         []string            `json:"attacks,omitempty"`
	Timelines       []NamedTimelineSpec `json:"timelines,omitempty"`
	Seeds           []uint64            `json:"seeds,omitempty"`
	Shards          []int               `json:"shards,omitempty"`
}

// SearchJobSpec is the JSON form of a netfence.SearchSpec: the
// adversarial search over attack-parameter spaces, one optimizer run
// per (defense × strategy) cell.
type SearchJobSpec struct {
	// Base is the scenario every candidate derives from; it must carry
	// an "attack" workload.
	Base ScenarioSpec `json:"base"`
	// Defenses and Strategies pick the searched cells (empty = Base's
	// defense × every registered strategy).
	Defenses   []string `json:"defenses,omitempty"`
	Strategies []string `json:"strategies,omitempty"`
	// Optimizer is "grid" (default) or "anneal".
	Optimizer string `json:"optimizer,omitempty"`
	// Budget caps evaluated candidates per cell (0 = 24).
	Budget int `json:"budget,omitempty"`
	// Seed seeds the optimizer's candidate stream.
	Seed uint64 `json:"seed,omitempty"`
	// Nu is the Theorem-1 gate's assumed transport efficiency (0 = 0.5).
	Nu float64 `json:"nu,omitempty"`
}

// NamedTimelineSpec is one entry of the sweep's timeline axis.
type NamedTimelineSpec struct {
	Name     string         `json:"name"`
	Timeline []MutationSpec `json:"timeline,omitempty"`
}

// TopologySpec is the JSON form of the in-tree topology specs,
// selected by Kind.
type TopologySpec struct {
	// Kind is "dumbbell", "star", "parkinglot" or "random-as".
	Kind string `json:"kind"`
	// Senders is the sender population (dumbbell, star, random-as).
	Senders int `json:"senders,omitempty"`
	// BottleneckBps is the bottleneck capacity (dumbbell, star,
	// random-as).
	BottleneckBps int64 `json:"bottleneck_bps,omitempty"`
	// ColluderASes adds colluder-host ASes.
	ColluderASes int `json:"colluder_ases,omitempty"`
	// SrcASes overrides the source-AS count (dumbbell, random-as).
	SrcASes int `json:"src_ases,omitempty"`
	// SendersPerGroup, L1Bps, L2Bps configure the parking lot.
	SendersPerGroup int   `json:"senders_per_group,omitempty"`
	L1Bps           int64 `json:"l1_bps,omitempty"`
	L2Bps           int64 `json:"l2_bps,omitempty"`
	// TransitASes, ExtraLinks, GraphSeed configure random-as.
	TransitASes int    `json:"transit_ases,omitempty"`
	ExtraLinks  int    `json:"extra_links,omitempty"`
	GraphSeed   uint64 `json:"graph_seed,omitempty"`
}

// WorkloadSpec is the JSON form of the in-tree workloads, selected by
// Kind. Senders selects explicit indices; From/To selects the range
// [From, To) when Senders is absent.
type WorkloadSpec struct {
	// Kind is "longtcp", "filetransfers", "webtraffic", "udpflood",
	// "onoffflood", "colluderpairs", "requestflood" or "attack".
	Kind    string `json:"kind"`
	Group   int    `json:"group,omitempty"`
	Senders []int  `json:"senders,omitempty"`
	From    int    `json:"from,omitempty"`
	To      int    `json:"to,omitempty"`
	// RateBps is the per-sender rate of the flood and attack kinds.
	RateBps int64 `json:"rate_bps,omitempty"`
	// ToColluders aims flood/attack kinds at the colluder hosts.
	ToColluders bool `json:"to_colluders,omitempty"`
	// OnSec and OffSec are the onoffflood phase lengths.
	OnSec  float64 `json:"on_sec,omitempty"`
	OffSec float64 `json:"off_sec,omitempty"`
	// FileBytes is the filetransfers transfer size (0 = 20 KB).
	FileBytes int64 `json:"file_bytes,omitempty"`
	// Strategy is the attack kind's registry name ("" = "flood").
	Strategy string `json:"strategy,omitempty"`
	// Params sets the attack strategy's tunable parameters by name
	// (unknown keys or out-of-range values fail the submit).
	Params map[string]float64 `json:"params,omitempty"`
	// Level and Strategic configure requestflood.
	Level     uint8 `json:"level,omitempty"`
	Strategic bool  `json:"strategic,omitempty"`
}

// MutationSpec is the JSON form of a netfence.Mutation, in seconds.
type MutationSpec struct {
	AtSec  float64             `json:"at_sec"`
	Link   *LinkMutationSpec   `json:"link,omitempty"`
	Attack *AttackMutationSpec `json:"attack,omitempty"`
	Deploy *DeployMutationSpec `json:"deploy,omitempty"`
}

// LinkMutationSpec degrades or restores a bottleneck link.
type LinkMutationSpec struct {
	Bottleneck int     `json:"bottleneck,omitempty"`
	RateBps    int64   `json:"rate_bps,omitempty"`
	DelayMs    float64 `json:"delay_ms,omitempty"`
	Restore    bool    `json:"restore,omitempty"`
}

// AttackMutationSpec toggles or re-parameterizes an attack workload.
type AttackMutationSpec struct {
	Workload int    `json:"workload,omitempty"`
	Action   string `json:"action"`
	RateBps  int64  `json:"rate_bps,omitempty"`
}

// DeployMutationSpec switches the deployment plan to the given
// fraction of source ASes (1 = full deployment).
type DeployMutationSpec struct {
	Fraction float64 `json:"fraction"`
}

func secs(s float64) netfence.Time {
	return netfence.Time(s * float64(netfence.Second))
}

// Mutation converts the spec to a netfence.Mutation (Mutation.Validate
// checks its shape).
func (m MutationSpec) Mutation() netfence.Mutation {
	out := netfence.Mutation{At: secs(m.AtSec)}
	if m.Link != nil {
		out.Link = &netfence.LinkMutation{
			Bottleneck: m.Link.Bottleneck,
			RateBps:    m.Link.RateBps,
			Delay:      secs(m.Link.DelayMs / 1000),
			Restore:    m.Link.Restore,
		}
	}
	if m.Attack != nil {
		out.Attack = &netfence.AttackMutation{
			Workload: m.Attack.Workload,
			Action:   netfence.AttackAction(m.Attack.Action),
			RateBps:  m.Attack.RateBps,
		}
	}
	if m.Deploy != nil {
		out.Deploy = &netfence.DeployMutation{
			Deployment: netfence.DeployFraction(m.Deploy.Fraction),
		}
	}
	return out
}

// mutations converts a mutation list, checking each mutation's shape
// (exactly one kind, a positive instant, sane values) so a malformed one
// is refused at submit. Checks against the built topology happen when
// the mutation applies.
func mutations(specs []MutationSpec) ([]netfence.Mutation, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	out := make([]netfence.Mutation, len(specs))
	for i, m := range specs {
		out[i] = m.Mutation()
		if err := out[i].Validate(); err != nil {
			return nil, fmt.Errorf("mutation %d: %w", i, err)
		}
	}
	return out, nil
}

func (t TopologySpec) build() (netfence.TopologySpec, error) {
	switch t.Kind {
	case "dumbbell":
		return netfence.DumbbellSpec{
			Senders:       t.Senders,
			BottleneckBps: t.BottleneckBps,
			ColluderASes:  t.ColluderASes,
			SrcASes:       t.SrcASes,
		}, nil
	case "star":
		return netfence.StarSpec{
			Senders:       t.Senders,
			BottleneckBps: t.BottleneckBps,
			ColluderASes:  t.ColluderASes,
		}, nil
	case "parkinglot":
		return netfence.ParkingLotSpec{
			SendersPerGroup: t.SendersPerGroup,
			L1Bps:           t.L1Bps,
			L2Bps:           t.L2Bps,
		}, nil
	case "random-as":
		return netfence.RandomASSpec{
			Senders:       t.Senders,
			BottleneckBps: t.BottleneckBps,
			SrcASes:       t.SrcASes,
			TransitASes:   t.TransitASes,
			ExtraLinks:    t.ExtraLinks,
			ColluderASes:  t.ColluderASes,
			GraphSeed:     t.GraphSeed,
		}, nil
	case "":
		return nil, fmt.Errorf("topology: kind is required (dumbbell|star|parkinglot|random-as)")
	default:
		return nil, fmt.Errorf("topology: unknown kind %q (dumbbell|star|parkinglot|random-as)", t.Kind)
	}
}

// maxSenders bounds the per-group sender population a spec may declare.
// Hosts are materialised one by one, so the service refuses at submit a
// population it could not hold instead of dying while building it.
const maxSenders = 1 << 20

// maxTicks bounds the timeseries samples a spec may ask for over its
// run: the probe keeps every sample until the run ends, so the service
// refuses at submit an interval too fine for the duration.
const maxTicks = 1 << 20

// senderCap is the per-group sender count the topology builds at
// population n (0 = the spec's own): the bound on workload indices.
func (t TopologySpec) senderCap(n int) int {
	switch {
	case t.Kind == "parkinglot" && n > 0:
		return n / 3
	case t.Kind == "parkinglot":
		return t.SendersPerGroup
	case n > 0:
		return n
	}
	return t.Senders
}

// senders returns the workload's sender indices after checking them
// against the topology's capacity, so an absurd range is refused before
// it is allocated.
func (w WorkloadSpec) senders(capacity int) ([]int, error) {
	if len(w.Senders) > 0 {
		for _, i := range w.Senders {
			if i < 0 || i >= capacity {
				return nil, fmt.Errorf("sender index %d outside the topology's %d senders", i, capacity)
			}
		}
		return w.Senders, nil
	}
	if w.From < 0 || w.To < w.From || w.To > capacity {
		return nil, fmt.Errorf("sender range [%d, %d) outside the topology's %d senders", w.From, w.To, capacity)
	}
	return netfence.Range(w.From, w.To), nil
}

func (w WorkloadSpec) build(capacity int) (netfence.Workload, error) {
	s, err := w.senders(capacity)
	if err != nil {
		return nil, err
	}
	switch w.Kind {
	case "longtcp":
		return netfence.LongTCP{Senders: s, Group: w.Group}, nil
	case "filetransfers":
		return netfence.FileTransfers{Senders: s, Group: w.Group, FileBytes: w.FileBytes}, nil
	case "webtraffic":
		return netfence.WebTraffic{Senders: s, Group: w.Group}, nil
	case "udpflood":
		return netfence.UDPFlood{Senders: s, Group: w.Group, RateBps: w.RateBps, ToColluders: w.ToColluders}, nil
	case "onoffflood":
		return netfence.OnOffFlood{
			Senders: s, Group: w.Group, RateBps: w.RateBps,
			On: secs(w.OnSec), Off: secs(w.OffSec), ToColluders: w.ToColluders,
		}, nil
	case "colluderpairs":
		return netfence.ColluderPairs{Senders: s, Group: w.Group, RateBps: w.RateBps}, nil
	case "requestflood":
		return netfence.RequestFlood{Senders: s, Group: w.Group, RateBps: w.RateBps, Level: w.Level, Strategic: w.Strategic}, nil
	case "attack":
		// Fail the submit, not the job, on a bad strategy name or
		// parameter map — the same checks the scenario build would run.
		name := w.Strategy
		if name == "" {
			name = "flood"
		}
		if _, _, err := netfence.ParseAttackSpec(netfence.FormatAttackSpec(name, w.Params)); err != nil {
			return nil, err
		}
		return netfence.AttackSpec{
			Strategy: w.Strategy, Senders: s, Group: w.Group,
			RateBps: w.RateBps, ToColluders: w.ToColluders,
			Params: w.Params,
		}, nil
	case "":
		return nil, fmt.Errorf("workload: kind is required")
	default:
		return nil, fmt.Errorf("workload: unknown kind %q", w.Kind)
	}
}

// Scenario converts the spec to a runnable netfence.Scenario. The
// serve mode always attaches a TimeseriesProbe alongside the default
// probe set — the streaming source — so an equivalent batch run must
// declare the same probes to compare byte-identically (use this
// function for that).
func (s ScenarioSpec) Scenario() (netfence.Scenario, error) {
	return s.scenario(s.Topology.senderCap(0))
}

// scenario is Scenario with workload sender indices bounded by
// capacity per group.
func (s ScenarioSpec) scenario(capacity int) (netfence.Scenario, error) {
	if capacity > maxSenders {
		return netfence.Scenario{}, fmt.Errorf("topology: %d senders per group exceeds the limit of %d", capacity, maxSenders)
	}
	if s.DurationSec < 0 || s.WarmupSec < 0 {
		return netfence.Scenario{}, fmt.Errorf("duration_sec (%g) and warmup_sec (%g) must not be negative", s.DurationSec, s.WarmupSec)
	}
	topoSpec, err := s.Topology.build()
	if err != nil {
		return netfence.Scenario{}, err
	}
	timeline, err := mutations(s.Timeline)
	if err != nil {
		return netfence.Scenario{}, fmt.Errorf("timeline %w", err)
	}
	sc := netfence.Scenario{
		Name:          s.Name,
		Seed:          s.Seed,
		Topology:      topoSpec,
		Defense:       netfence.Defense(s.Defense),
		Duration:      secs(s.DurationSec),
		Warmup:        secs(s.WarmupSec),
		DenyAttackers: s.DenyAttackers,
		Shards:        s.Shards,
		Timeline:      timeline,
	}
	if s.DeployFraction != nil {
		sc.Deployment = netfence.DeployFraction(*s.DeployFraction)
	}
	for i, w := range s.Workloads {
		wl, err := w.build(capacity)
		if err != nil {
			return netfence.Scenario{}, fmt.Errorf("workload %d: %w", i, err)
		}
		sc.Workloads = append(sc.Workloads, wl)
	}
	interval := secs(s.TimeseriesIntervalSec)
	if interval <= 0 {
		interval = 5 * netfence.Second
	}
	dur := s.DurationSec
	if dur == 0 {
		dur = 240 // Build's default
	}
	if ticks := dur / interval.Seconds(); ticks > maxTicks {
		return netfence.Scenario{}, fmt.Errorf("timeseries: a %gs interval over %gs is %.0f samples, over the limit of %d", interval.Seconds(), dur, ticks, maxTicks)
	}
	sc.Probes = []netfence.Probe{
		netfence.GoodputProbe{},
		netfence.FairnessProbe{},
		netfence.FCTProbe{},
		netfence.TimeseriesProbe{Interval: interval},
	}
	return sc, nil
}

// Sweep converts the spec to a runnable netfence.Sweep.
func (s SweepSpec) Sweep() (netfence.Sweep, error) {
	// A population cell resizes the base topology, and every cell must
	// hold the base workloads' senders.
	capacity := s.Base.Topology.senderCap(0)
	for i, n := range s.Populations {
		c := s.Base.Topology.senderCap(n)
		if c > maxSenders {
			return netfence.Sweep{}, fmt.Errorf("population %d: %d senders per group exceeds the limit of %d", n, c, maxSenders)
		}
		if i == 0 || c < capacity {
			capacity = c
		}
	}
	base, err := s.Base.scenario(capacity)
	if err != nil {
		return netfence.Sweep{}, fmt.Errorf("base: %w", err)
	}
	sw := netfence.Sweep{
		Base:            base,
		Defenses:        s.Defenses,
		Populations:     s.Populations,
		DeployFractions: s.DeployFractions,
		Attacks:         s.Attacks,
		Seeds:           s.Seeds,
		Shards:          s.Shards,
	}
	for _, tl := range s.Timelines {
		timeline, err := mutations(tl.Timeline)
		if err != nil {
			return netfence.Sweep{}, fmt.Errorf("timeline %q %w", tl.Name, err)
		}
		sw.Timelines = append(sw.Timelines, netfence.NamedTimeline{Name: tl.Name, Timeline: timeline})
	}
	return sw, nil
}

// Search converts the spec to a runnable netfence.SearchSpec (the
// Progress and OnCandidate hooks are the job runner's to wire).
func (s SearchJobSpec) Search() (netfence.SearchSpec, error) {
	base, err := s.Base.Scenario()
	if err != nil {
		return netfence.SearchSpec{}, fmt.Errorf("base: %w", err)
	}
	return netfence.SearchSpec{
		Base:       base,
		Defenses:   s.Defenses,
		Strategies: s.Strategies,
		Optimizer:  s.Optimizer,
		Budget:     s.Budget,
		Seed:       s.Seed,
		Nu:         s.Nu,
	}, nil
}
