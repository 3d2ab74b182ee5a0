package netfence

import (
	"slices"

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
// into a shard's cells. Called at snapshot barriers; repeated
// harvests are idempotent.
func harvestGauges(net *netsim.Network) {
	net.Cells.SetMax(obs.QueueHWMBytes, net.LinkStats().QueueHWM)
	net.Cells.Set(obs.PacketPoolFresh, net.Pool.News)
	net.Cells.Set(obs.PacketPoolIdle, uint64(net.Pool.Len())+net.HandoffStats().Home)
}

// mergedCells harvests and merges every shard's cells in shard
// order. Callers must hold the run at a control point (built, between
// Advance segments, or finished) so no engine goroutine is mutating
// cells concurrently.
func (in *Instance) mergedCells() obs.Cells {
	nets := in.env.sh.nets
	cells := make([]obs.Cells, len(nets))
	for i, n := range nets {
		harvestGauges(n)
		if len(nets) > 1 {
			// Shard accounting is a sharded run's: the single engine owns
			// the whole topology by definition, and its snapshots — a
			// serve-mode job keeps one — do not pay for the rows.
			hosts, links := n.Materialised()
			n.Cells.Set(obs.ShardHostsOwned, uint64(hosts))
			n.Cells.Set(obs.ShardLinksOwned, uint64(links))
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
	if in.final != nil {
		return obs.DeterministicMap(in.final)
	}
	return obs.DeterministicMap(in.mergedCells())
}

// RuntimeCounters returns the runtime plane: execution artifacts that
// legitimately vary with the shard layout — events executed (total and
// per shard), cut-link handoff batches and packet counts, mailbox
// depth high-water marks, packet-pool allocation and idle counts, hosts
// and links owned over all shards of a sharded run — and
// keyring rotations (a router rotates only on its owning shard, so these
// no longer vary). Surfaced on /metrics, -metrics-out and bench rows.
func (in *Instance) RuntimeCounters() map[string]uint64 {
	return obs.RuntimeMap(in.CounterCells())
}

// CounterCells returns both counter planes unrendered, from one
// harvest: the cells merged across shards, which Counters and
// RuntimeCounters render, and each shard engine's executed-event count
// in shard order. The cells are a fresh copy, for a caller that keeps a
// snapshot per segment boundary and renders it only when read. A
// finished run's copy is of the cells Finish harvested.
func (in *Instance) CounterCells() (obs.Cells, []uint64) {
	executed := make([]uint64, len(in.Engines))
	for i, e := range in.Engines {
		executed[i] = e.Executed()
	}
	if in.final != nil {
		return slices.Clone(in.final), executed
	}
	return in.mergedCells(), executed
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
	recs := make([]*obs.Recorder, len(in.env.sh.nets))
	for i, n := range in.env.sh.nets {
		recs[i] = n.Rec
	}
	return obs.MergeTraces(recs)
}
