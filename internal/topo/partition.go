package topo

import (
	"errors"
	"fmt"

	"netfence/internal/netsim"
	"netfence/internal/packet"
	"netfence/internal/sim"
)

// Partitioning errors, named so callers can fail fast with context
// instead of silently clamping (see Graph.Partition).
var (
	// ErrTooManyShards: the requested shard count exceeds the number of
	// ASes — ASes are atomic (an intra-AS link must never be cut).
	ErrTooManyShards = errors.New("topo: shard count exceeds AS count")
	// ErrSplitIntraAS: a partition assignment placed the two ends of an
	// intra-AS link in different shards.
	ErrSplitIntraAS = errors.New("topo: partition splits an intra-AS link")
	// ErrNoLookahead: a cut link has non-positive propagation delay, so
	// no conservative synchronization window exists.
	ErrNoLookahead = errors.New("topo: cut link with non-positive delay admits no lookahead")
)

// Partition is an AS-atomic split of a topology into shards for
// conservative parallel simulation. Shard indices ascend with AS
// declaration order — the property that keeps cross-shard tie-breaking
// consistent with the single-engine setup order.
type Partition struct {
	// Shards is the shard count.
	Shards int
	// ShardOfAS maps every AS to its shard.
	ShardOfAS map[packet.ASID]int
	// ShardOfNode maps node ID to shard, parallel to Graph.Net.Nodes.
	ShardOfNode []int32
	// CutLinks lists the links whose From and To nodes live in different
	// shards, in link-declaration order. Only inter-AS links can be cut.
	// They are the partitioned graph's own links: another replica of the
	// topology finds its copy at the same Index.
	CutLinks []*netsim.Link
	// Lookahead is the minimum propagation delay over the cut links —
	// the conservative synchronization window.
	Lookahead sim.Time
}

// Partition splits the graph's ASes into the requested number of shards:
// contiguous runs of ASes in declaration order, weighted by node count,
// with every bottleneck link's From-side AS merged into one atom. That
// last rule is role awareness with two payoffs: inter-AS bottleneck
// links become cut links (their delay funds the lookahead, and the
// congested queue gets a dedicated shard boundary), while co-locating
// all bottleneck transmitters keeps their randomized queue disciplines
// on a single engine stream — the condition under which sharded results
// reproduce the single-engine run bit for bit.
//
// It fails fast with ErrTooManyShards when shards exceeds the AS count
// (after bottleneck merging), and validates its own output against
// ErrSplitIntraAS and ErrNoLookahead.
func (g *Graph) Partition(shards int) (*Partition, error) {
	if !g.built {
		return nil, fmt.Errorf("topo: Partition before Build")
	}
	if shards < 1 {
		return nil, fmt.Errorf("topo: shard count %d must be at least 1", shards)
	}
	ases := g.AllASes() // node-declaration order
	// Atoms: one per AS, except every bottleneck From-AS joins the first
	// bottleneck From-AS's atom.
	atomOf := make(map[packet.ASID]int, len(ases))
	var weights []int
	bnAtom := -1
	bnASes := map[packet.ASID]bool{}
	for _, l := range g.bottlenecks {
		bnASes[l.From.AS] = true
	}
	for _, as := range ases {
		if bnASes[as] && bnAtom >= 0 {
			atomOf[as] = bnAtom
			continue
		}
		idx := len(weights)
		atomOf[as] = idx
		weights = append(weights, 0)
		if bnASes[as] {
			bnAtom = idx
		}
	}
	if shards > len(weights) {
		return nil, fmt.Errorf("%w: %d shards requested, topology has %d partitionable ASes",
			ErrTooManyShards, shards, len(weights))
	}
	// Atom weight is modeled-sender weight, not raw node count: a fleet
	// attachment point standing in for N senders pulls its shard's quota
	// as if the N hosts were materialized, so the load balance reflects
	// the traffic the atoms will actually generate. Weight-1 nodes (all
	// pre-fleet topologies) make this the historical node count. A host
	// the graph does not hold weighs what WeighSender said, or one.
	for id, nd := range g.Net.Nodes {
		w := 1
		if nd != nil {
			w = nd.SenderWeight()
		} else if rw := g.remoteWeight[packet.NodeID(id)]; rw > 1 {
			w = int(rw)
		}
		weights[atomOf[g.Net.ASOf(packet.NodeID(id))]] += w
	}
	total := 0
	for _, w := range weights {
		total += w
	}

	// Linear partition: walk atoms in order, starting the next shard
	// when the cumulative weight crosses its quota — or when the atoms
	// left only just cover the shards still empty. Contiguity keeps
	// shard indices monotone in declaration order.
	shardOfAtom := make([]int, len(weights))
	cum, shard, curAtoms := 0, 0, 0
	for i, w := range weights {
		remAtoms := len(weights) - i
		mustLeave := remAtoms <= shards-shard-1
		wantLeave := cum*shards >= (shard+1)*total
		if curAtoms > 0 && shard+1 < shards && (mustLeave || wantLeave) {
			shard++
			curAtoms = 0
		}
		shardOfAtom[i] = shard
		curAtoms++
		cum += w
	}

	p := &Partition{
		Shards:      shards,
		ShardOfAS:   make(map[packet.ASID]int, len(ases)),
		ShardOfNode: make([]int32, len(g.Net.Nodes)),
	}
	for _, as := range ases {
		p.ShardOfAS[as] = shardOfAtom[atomOf[as]]
	}
	for id := range p.ShardOfNode {
		p.ShardOfNode[id] = int32(p.ShardOfAS[g.Net.ASOf(packet.NodeID(id))])
	}
	for _, l := range g.Net.Links {
		if l == nil {
			continue // reserved: inside one AS, never cut
		}
		fs, ts := p.ShardOfNode[l.From.ID], p.ShardOfNode[l.To.ID]
		if fs == ts {
			continue
		}
		if l.From.AS == l.To.AS {
			return nil, fmt.Errorf("%w: link %s -> %s inside AS %d crosses shards %d/%d",
				ErrSplitIntraAS, l.From, l.To, l.From.AS, fs, ts)
		}
		if l.Delay <= 0 {
			return nil, fmt.Errorf("%w: cut link %s -> %s has delay %v",
				ErrNoLookahead, l.From, l.To, l.Delay)
		}
		if p.Lookahead == 0 || l.Delay < p.Lookahead {
			p.Lookahead = l.Delay
		}
		p.CutLinks = append(p.CutLinks, l)
	}
	if len(p.CutLinks) == 0 {
		// A single shard (or a topology whose ASes all collapsed into
		// one atom) has no cut links; any positive window works. Use a
		// conventional 1 ms so a degenerate 1-shard coordinator run
		// still terminates.
		p.Lookahead = sim.Millisecond
	}
	return p, nil
}

// MaxShards returns the number of independently partitionable units the
// graph offers — the AS count after bottleneck-From merging, the upper
// bound Partition accepts.
func (g *Graph) MaxShards() int {
	bnASes := map[packet.ASID]bool{}
	for _, l := range g.bottlenecks {
		bnASes[l.From.AS] = true
	}
	merged := 0
	if len(bnASes) > 0 {
		merged = len(bnASes) - 1
	}
	return len(g.AllASes()) - merged
}
