package netfence

import (
	"strconv"

	"netfence/internal/netsim"
	"netfence/internal/obs"
	"netfence/internal/sim"
)

// Observability plane (internal/obs).
type (
	// Meter accumulates executed-event counts across one run's shard
	// engines; see Scenario.Meter.
	Meter = sim.Meter
	// TraceEvent is one hop of a sampled packet's flight-recorder trace.
	TraceEvent = obs.TraceEvent
	// MetricDef describes one registered metric for catalogs and docs.
	MetricDef = obs.Def
)

// Metrics returns the full registered metric catalog in cell order —
// the source of truth behind -list metrics, Result.Counters keys and
// the /metrics endpoint.
func Metrics() []MetricDef { return obs.Catalog() }

// harvestGauges folds state only visible by inspection — the
// per-queue backlog high-water mark and the packet pool's counters —
// into a replica's cells. Called at snapshot barriers; repeated
// harvests are idempotent.
func harvestGauges(net *netsim.Network) {
	net.Cells.SetMax(obs.QueueHWMBytes, net.LinkStats().QueueHWM)
	net.Cells.Set(obs.PacketPoolFresh, net.Pool.News)
	net.Cells.Set(obs.PacketPoolIdle, uint64(net.Pool.Len())+net.HandoffStats().Home)
}

// mergedCells harvests and merges every replica's cells in shard
// order. Callers must hold the run at a control point (built, between
// Advance segments, or finished) so no engine goroutine is mutating
// cells concurrently.
func (in *Instance) mergedCells() obs.Cells {
	replicas := in.env.sh.replicas
	cells := make([]obs.Cells, len(replicas))
	for i, bt := range replicas {
		n := bt.net
		harvestGauges(n)
		if len(replicas) > 1 {
			// Replica accounting is a sharded run's: the single engine
			// holds the topology once by definition, and its snapshots —
			// a serve-mode job keeps one — do not pay for the rows.
			hosts, links := n.Materialised()
			n.Cells.Set(obs.ReplicaHosts, uint64(hosts))
			n.Cells.Set(obs.ReplicaLinks, uint64(links))
		}
		cells[i] = n.Cells
	}
	return obs.Merge(cells)
}

// Counters returns the deterministic counter plane: every packet-path
// counter, gauge and histogram series with a non-zero value, merged
// across shards. The snapshot is byte-identical across shard counts
// 1/2/4/8 — the same equivalence contract as the Result itself — and
// is what Result.Counters carries.
func (in *Instance) Counters() map[string]uint64 {
	return obs.DeterministicMap(in.mergedCells())
}

// RuntimeCounters returns the runtime plane: execution artifacts that
// legitimately vary with the shard layout — events executed (total and
// per shard), cut-link handoff batches and packet counts, mailbox
// depth high-water marks, packet-pool allocation and idle counts, hosts
// and links materialised over all replicas of a sharded run — and
// keyring rotations (a router rotates only on its owning shard, so these
// no longer vary). Surfaced on /metrics, -metrics-out and bench rows.
func (in *Instance) RuntimeCounters() map[string]uint64 {
	m := obs.RuntimeMap(in.mergedCells())
	var total uint64
	for i, e := range in.Engines {
		n := e.Executed()
		total += n
		if n > 0 {
			m[`sim_events_executed{shard="`+strconv.Itoa(i)+`"}`] = n
		}
	}
	if total > 0 {
		m["sim_events_executed_total"] = total
	}
	return m
}

// EventsExecuted returns the total discrete events executed by the
// run's engines so far. Per-instance, so concurrent runs in one
// process never cross-contaminate.
func (in *Instance) EventsExecuted() uint64 {
	var total uint64
	for _, e := range in.Engines {
		total += e.Executed()
	}
	return total
}

// Trace returns the merged flight-recorder trace: every recorded hop
// of the sampled flows, sorted by full event content, so the trace is
// byte-identical across shard counts. Empty without Scenario.TraceFlows.
func (in *Instance) Trace() []TraceEvent {
	recs := make([]*obs.Recorder, len(in.env.sh.replicas))
	for i, bt := range in.env.sh.replicas {
		recs[i] = bt.net.Rec
	}
	return obs.MergeTraces(recs)
}
