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
	CutLinks []*netsim.Link
	// Lookahead is the minimum propagation delay over the cut links —
	// the conservative synchronization window.
	Lookahead sim.Time
}

// Partition splits the graph's ASes into the requested number of shards:
// contiguous runs of ASes in declaration order, weighted by node count.
// An inter-AS bottleneck link is cut like any other inter-AS link: its
// delay funds the lookahead, and its transmitting AS's shard owns the
// congested queue. Every random stream belongs to one entity, so where
// the shards fall moves no draw.
//
// It fails fast with ErrTooManyShards when shards exceeds the AS count,
// and validates its own output against ErrSplitIntraAS and
// ErrNoLookahead.
func (g *Graph) Partition(shards int) (*Partition, error) {
	if !g.built {
		return nil, fmt.Errorf("topo: Partition before Build")
	}
	if shards < 1 {
		return nil, fmt.Errorf("topo: shard count %d must be at least 1", shards)
	}
	ases := g.AllASes() // node-declaration order
	if shards > len(ases) {
		return nil, fmt.Errorf("%w: %d shards requested, topology has %d partitionable ASes",
			ErrTooManyShards, shards, len(ases))
	}
	// AS weight is modeled-sender weight, not raw node count: a fleet
	// attachment point standing in for N senders pulls its shard's quota
	// as if the N hosts were materialized, so the load balance reflects
	// the traffic the ASes will actually generate. Weight-1 nodes (all
	// pre-fleet topologies) make this the historical node count.
	weights, total := make(map[packet.ASID]int, len(ases)), 0
	for _, nd := range g.Net.Nodes {
		w := nd.SenderWeight()
		weights[nd.AS] += w
		total += w
	}

	// Linear partition: walk ASes in order, starting the next shard
	// when the cumulative weight crosses its quota — or when the ASes
	// left only just cover the shards still empty. Contiguity keeps
	// shard indices monotone in declaration order.
	p := &Partition{
		Shards:      shards,
		ShardOfAS:   make(map[packet.ASID]int, len(ases)),
		ShardOfNode: make([]int32, len(g.Net.Nodes)),
	}
	cum, shard, cur := 0, 0, 0
	for i, as := range ases {
		mustLeave := len(ases)-i <= shards-shard-1
		wantLeave := cum*shards >= (shard+1)*total
		if cur > 0 && shard+1 < shards && (mustLeave || wantLeave) {
			shard++
			cur = 0
		}
		p.ShardOfAS[as] = shard
		cur++
		cum += weights[as]
	}
	for id := range p.ShardOfNode {
		p.ShardOfNode[id] = int32(p.ShardOfAS[g.Net.ASOf(packet.NodeID(id))])
	}
	for _, l := range g.Net.Links {
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
		// A single shard has no cut links; any positive window works.
		// Use a conventional 1 ms so a degenerate 1-shard coordinator
		// run still terminates.
		p.Lookahead = sim.Millisecond
	}
	return p, nil
}

// MaxShards returns the number of independently partitionable units the
// graph offers — its AS count, the upper bound Partition accepts.
func (g *Graph) MaxShards() int { return len(g.AllASes()) }
