package netfence

import (
	"fmt"

	"netfence/internal/netsim"
	"netfence/internal/packet"
	"netfence/internal/sim"
	"netfence/internal/topo"
)

// TopologySpec declares a scenario's network. The in-tree specs are
// DumbbellSpec, ParkingLotSpec, StarSpec and RandomASSpec; Topology
// resolves any topology registered by name (see RegisterTopology).
type TopologySpec interface {
	// buildTopo constructs the topology on eng.
	buildTopo(eng *sim.Engine) (*topo.Graph, error)
	// name is the topology's canonical registry name, Result.Topology.
	name() string
	// withPopulation returns a copy at a different sender population —
	// the Sweep runner's population axis.
	withPopulation(n int) TopologySpec
	population() int
	// groupSizes reports the per-group sender capacity the spec will
	// build, for fail-fast workload validation; nil means unknown until
	// build time (registry-resolved specs).
	groupSizes() []int
}

// fairShareBps is the per-sender bottleneck share the registered
// in-tree topologies keep at any population — the paper's scaling of
// the bottleneck with the sender count (§6.3.1).
const fairShareBps = 200_000

// The in-tree topologies register as their typed specs at the paper's
// fair share, with colluder ASes so the collusion workloads run
// unchanged. A population of 0 or less selects 20 senders (60 on the
// parking lot, 20 per group).
func init() {
	share := func(n int) int64 { return int64(n) * fairShareBps }
	registerSpec("dumbbell", 20, func(n int) TopologySpec {
		return DumbbellSpec{Senders: n, BottleneckBps: share(n), ColluderASes: 9}
	})
	registerSpec("parkinglot", 60, func(n int) TopologySpec {
		g := n / 3
		return ParkingLotSpec{SendersPerGroup: g, L1Bps: share(g), L2Bps: share(g) * 3 / 2, declaredPopulation: n}
	})
	registerSpec("star", 20, func(n int) TopologySpec {
		return StarSpec{Senders: n, BottleneckBps: share(n), ColluderASes: 3}
	})
	registerSpec("random-as", 20, func(n int) TopologySpec {
		return RandomASSpec{Senders: n, BottleneckBps: share(n), ColluderASes: 3}
	})
}

// registerSpec registers name as the typed spec spec(n) at population n
// (defaultN when the requested population is not positive).
func registerSpec(name string, defaultN int, spec func(n int) TopologySpec) {
	topo.Register(name, func(eng *sim.Engine, opts topo.BuildOptions) (*topo.Graph, error) {
		n := opts.Population
		if n <= 0 {
			n = defaultN
		}
		return spec(n).buildTopo(eng)
	})
}

// RegisterTopology makes a third-party topology resolvable by name in
// scenarios and sweeps. The builder returns a role-tagged *Graph; the
// in-tree topologies ("dumbbell", "parkinglot", "star", "random-as")
// are pre-registered.
func RegisterTopology(name string, b TopologyBuilder) { topo.Register(name, b) }

// Topologies returns the sorted names of every registered topology.
func Topologies() []string { return topo.Names() }

// TopologyBuilder constructs a role-tagged topology graph.
type TopologyBuilder = topo.Builder

// TopologyBuildOptions carries optional construction parameters to a
// TopologyBuilder.
type TopologyBuildOptions = topo.BuildOptions

// Graph is the open topology builder and a built Instance's topology
// view: declare nodes and links with Router, AccessRouter, Sender,
// Victim, Colluder, Link and BottleneckLink, and the scenario and
// deployment machinery runs on the roles they tag without knowing the
// wiring. Groups and Bottlenecks read the roles back.
type Graph = topo.Graph

// GraphGroup is one sender group of a Graph.
type GraphGroup = topo.GraphGroup

// NewGraph returns an empty topology graph driven by eng.
func NewGraph(eng *Engine) *Graph { return topo.NewGraph(eng) }

// Topology resolves a registered topology by name at its default
// population. Set Population (or sweep over Populations) to resize it;
// use the typed spec (DumbbellSpec, ...) for full control:
//
//	sc.Topology = netfence.Topology("random-as")
//	sc.Topology = netfence.RegisteredTopology{Name: "star", Population: 50}
func Topology(name string) TopologySpec { return RegisteredTopology{Name: name} }

// RegisteredTopology is the TopologySpec resolving a registered
// topology by name at build time.
type RegisteredTopology struct {
	// Name is the registry name ("dumbbell", "parkinglot", "star",
	// "random-as", or any third-party registration).
	Name string
	// Population overrides the builder's default sender population.
	Population int
}

func (s RegisteredTopology) population() int { return s.Population }

func (s RegisteredTopology) withPopulation(n int) TopologySpec {
	s.Population = n
	return s
}

func (s RegisteredTopology) groupSizes() []int { return nil }

func (s RegisteredTopology) name() string { return topo.Canonical(s.Name) }

func (s RegisteredTopology) buildTopo(eng *sim.Engine) (*topo.Graph, error) {
	return topo.Build(s.Name, eng, topo.BuildOptions{Population: s.Population})
}

// DumbbellSpec declares the §6.3.1 dumbbell: sender ASes through one
// bottleneck to a victim AS, plus optional colluder ASes.
type DumbbellSpec struct {
	// Senders is the total sender-host population.
	Senders int
	// BottleneckBps is the bottleneck capacity.
	BottleneckBps int64
	// ColluderASes adds right-side ASes with one colluder host each.
	ColluderASes int
	// SrcASes overrides the source-AS count (0 = min(10, Senders)).
	SrcASes int
	// EdgeBps overrides the non-bottleneck capacity (0 = 10 Gbps).
	EdgeBps int64
}

func (s DumbbellSpec) population() int { return s.Senders }

func (s DumbbellSpec) withPopulation(n int) TopologySpec {
	s.Senders = n
	return s
}

func (s DumbbellSpec) groupSizes() []int { return []int{s.Senders} }

func (s DumbbellSpec) name() string { return "dumbbell" }

func (s DumbbellSpec) buildTopo(eng *sim.Engine) (*topo.Graph, error) {
	if s.Senders <= 0 {
		return nil, fmt.Errorf("DumbbellSpec: Senders must be positive")
	}
	if s.BottleneckBps <= 0 {
		return nil, fmt.Errorf("DumbbellSpec: BottleneckBps must be positive")
	}
	cfg := topo.DefaultDumbbell(s.Senders, s.BottleneckBps)
	cfg.ColluderASes = s.ColluderASes
	if s.SrcASes > 0 {
		if s.Senders%s.SrcASes != 0 {
			return nil, fmt.Errorf("DumbbellSpec: %d senders do not split evenly over %d ASes", s.Senders, s.SrcASes)
		}
		cfg.SrcASes = s.SrcASes
		cfg.HostsPerAS = s.Senders / s.SrcASes
	} else if cfg.SrcASes*cfg.HostsPerAS != s.Senders {
		// DefaultDumbbell truncates to a multiple of its AS count; the
		// declared population is a contract here, so fall back to the
		// largest AS count that divides it exactly.
		cfg.SrcASes, cfg.HostsPerAS = topo.SplitEvenly(s.Senders, cfg.SrcASes)
	}
	if s.EdgeBps > 0 {
		cfg.EdgeBps = s.EdgeBps
	}
	return topo.NewDumbbell(eng, cfg), nil
}

// ParkingLotSpec declares the §6.3.2 multi-bottleneck parking lot: a
// chain of two bottlenecks with three sender groups. Group 0 crosses
// both, group 1 only the second, group 2 only the first; each group has
// its own victim and colluders.
type ParkingLotSpec struct {
	// SendersPerGroup is the host population of each group.
	SendersPerGroup int
	// L1Bps and L2Bps are the two bottleneck capacities.
	L1Bps, L2Bps int64

	// declaredPopulation records a Sweep population-axis request; the
	// declared population is a contract, so buildTopo rejects values
	// that do not split into three equal groups.
	declaredPopulation int
}

func (s ParkingLotSpec) population() int {
	if s.declaredPopulation > 0 {
		return s.declaredPopulation
	}
	return 3 * s.SendersPerGroup
}

func (s ParkingLotSpec) withPopulation(n int) TopologySpec {
	s.SendersPerGroup = n / 3
	s.declaredPopulation = n
	return s
}

func (s ParkingLotSpec) groupSizes() []int {
	return []int{s.SendersPerGroup, s.SendersPerGroup, s.SendersPerGroup}
}

func (s ParkingLotSpec) name() string { return "parkinglot" }

func (s ParkingLotSpec) buildTopo(eng *sim.Engine) (*topo.Graph, error) {
	if s.declaredPopulation > 0 && s.declaredPopulation != 3*s.SendersPerGroup {
		return nil, fmt.Errorf("ParkingLotSpec: population %d does not split into 3 equal groups", s.declaredPopulation)
	}
	if s.SendersPerGroup <= 0 {
		return nil, fmt.Errorf("ParkingLotSpec: SendersPerGroup must be positive")
	}
	if s.L1Bps <= 0 || s.L2Bps <= 0 {
		return nil, fmt.Errorf("ParkingLotSpec: L1Bps and L2Bps must be positive")
	}
	cfg := topo.DefaultParkingLot(s.SendersPerGroup, s.L1Bps, s.L2Bps)
	// The declared group population is a contract: pick the largest AS
	// count that divides it exactly.
	cfg.ASesPerGroup, _ = topo.SplitEvenly(s.SendersPerGroup, cfg.ASesPerGroup)
	return topo.NewParkingLot(eng, cfg), nil
}

// StarSpec declares the single-AS hotspot: every sender shares one
// source AS behind one access router, whose uplink to the victim is the
// bottleneck — the stress case for a single access router policing the
// whole population.
type StarSpec struct {
	// Senders is the sender-host population (all in one AS).
	Senders int
	// BottleneckBps is the access-uplink capacity.
	BottleneckBps int64
	// ColluderASes adds destination-side ASes with one colluder host
	// each.
	ColluderASes int
}

func (s StarSpec) population() int { return s.Senders }

func (s StarSpec) withPopulation(n int) TopologySpec {
	s.Senders = n
	return s
}

func (s StarSpec) groupSizes() []int { return []int{s.Senders} }

func (s StarSpec) name() string { return "star" }

func (s StarSpec) buildTopo(eng *sim.Engine) (*topo.Graph, error) {
	if s.Senders <= 0 {
		return nil, fmt.Errorf("StarSpec: Senders must be positive")
	}
	if s.BottleneckBps <= 0 {
		return nil, fmt.Errorf("StarSpec: BottleneckBps must be positive")
	}
	cfg := topo.DefaultStar(s.Senders, s.BottleneckBps)
	cfg.ColluderASes = s.ColluderASes
	return topo.NewStar(eng, cfg), nil
}

// RandomASSpec declares a seeded random AS-level graph: a random
// connected transit core (one AS per router), source ASes attached to
// random core routers, and a dumbbell-style bottleneck exit toward the
// victim and colluder ASes. The wiring is drawn from GraphSeed alone,
// so a scenario Seed sweep varies traffic over a fixed random graph.
type RandomASSpec struct {
	// Senders is the total sender population, split over SrcASes.
	Senders int
	// BottleneckBps is the exit-link capacity.
	BottleneckBps int64
	// SrcASes is the source-AS count (0 = min(10, Senders)).
	SrcASes int
	// TransitASes is the random-core size (0 = 4).
	TransitASes int
	// ExtraLinks adds random extra core links beyond the spanning tree.
	ExtraLinks int
	// ColluderASes adds destination-side ASes with one colluder host
	// each.
	ColluderASes int
	// GraphSeed seeds the structure RNG (0 = 1).
	GraphSeed uint64
}

func (s RandomASSpec) population() int { return s.Senders }

func (s RandomASSpec) withPopulation(n int) TopologySpec {
	s.Senders = n
	return s
}

func (s RandomASSpec) groupSizes() []int { return []int{s.Senders} }

func (s RandomASSpec) name() string { return "random-as" }

func (s RandomASSpec) buildTopo(eng *sim.Engine) (*topo.Graph, error) {
	if s.BottleneckBps <= 0 {
		return nil, fmt.Errorf("RandomASSpec: BottleneckBps must be positive")
	}
	cfg := topo.DefaultRandomAS(s.Senders, s.BottleneckBps)
	cfg.SrcASes = s.SrcASes
	cfg.TransitASes = s.TransitASes
	cfg.ExtraLinks = s.ExtraLinks
	cfg.ColluderASes = s.ColluderASes
	if s.GraphSeed != 0 {
		cfg.GraphSeed = s.GraphSeed
	}
	r, err := topo.NewRandomAS(eng, cfg)
	if err != nil {
		return nil, fmt.Errorf("RandomASSpec: %w", err)
	}
	return r.G, nil
}

// Deployment plans which source ASes run a scenario's defense — the
// paper's partial/incremental-deployment axis. The zero value is full
// deployment. Source ASes are the ASes containing sender hosts;
// destination-side ASes (victim, colluders) always deploy. A legacy
// (non-participating) AS keeps forwarding traffic, but its access
// router does not police and its hosts run no shim, so its packets
// carry no congestion policing feedback and NetFence bottlenecks demote
// them to the best-effort legacy channel.
type Deployment struct {
	fraction     float64
	hasFraction  bool
	participants map[int]bool
}

// FullDeployment is the zero value: every AS deploys.
func FullDeployment() Deployment { return Deployment{} }

// DeployFraction deploys the defense on round(f·n) of the n source
// ASes, chosen at evenly spaced AS indices (deterministic, no RNG).
// f = 1 is full deployment, f = 0 leaves every source AS legacy.
func DeployFraction(f float64) Deployment {
	return Deployment{fraction: f, hasFraction: true}
}

// DeployMap gives explicit per-AS participation: source-AS index (in
// topology declaration order) to participation. ASes absent from the
// map are legacy.
func DeployMap(participants map[int]bool) Deployment {
	m := make(map[int]bool, len(participants))
	for k, v := range participants {
		m[k] = v
	}
	return Deployment{participants: m}
}

// plan compiles the deployment onto a built topology's source ASes,
// returning the per-AS plan and the effective deployed fraction.
func (d Deployment) plan(srcASes []packet.ASID) (topo.Plan, float64, error) {
	switch {
	case d.participants != nil:
		legacy := map[packet.ASID]bool{}
		for idx := range d.participants {
			if idx < 0 || idx >= len(srcASes) {
				return topo.Plan{}, 0, fmt.Errorf("Deployment: source-AS index %d out of range (topology has %d source ASes)", idx, len(srcASes))
			}
		}
		for i, as := range srcASes {
			if !d.participants[i] {
				legacy[as] = true
			}
		}
		p := topo.Plan{Legacy: legacy}
		return p, p.Fraction(srcASes), nil
	case d.hasFraction:
		if !(d.fraction >= 0 && d.fraction <= 1) { // NaN fails too
			return topo.Plan{}, 0, fmt.Errorf("Deployment: fraction %v outside [0, 1]", d.fraction)
		}
		p := topo.PlanFraction(srcASes, d.fraction)
		return p, p.Fraction(srcASes), nil
	default:
		return topo.Plan{}, 1, nil
	}
}

// senderCount is g's actual total sender population, counting each
// fleet attachment point as the modeled senders it stands for
// (SenderWeight; 1 for ordinary hosts).
func senderCount(g *topo.Graph) int {
	n := 0
	for _, grp := range g.Groups() {
		for _, s := range grp.Senders {
			n += s.SenderWeight()
		}
	}
	return n
}

// groupSender returns sender idx of grp, or a build-time error naming
// the workload kind.
func groupSender(grp *topo.GraphGroup, idx int, kind string) (*netsim.Node, error) {
	if idx < 0 || idx >= len(grp.Senders) {
		return nil, fmt.Errorf("%s: sender index %d out of range (topology has %d)", kind, idx, len(grp.Senders))
	}
	return grp.Senders[idx], nil
}

// groupVictim returns grp's victim, or a build-time error for custom
// graphs that declared none.
func groupVictim(grp *topo.GraphGroup, kind string) (*netsim.Node, error) {
	if grp.Victim == nil {
		return nil, fmt.Errorf("%s: topology group has no victim host (declare one with Graph.Victim)", kind)
	}
	return grp.Victim, nil
}
