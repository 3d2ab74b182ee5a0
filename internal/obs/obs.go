// Package obs is the platform's observability plane: a registry of
// cheap shard-local counters, gauges and histograms, and a sampled
// packet flight recorder.
//
// Counters live in dense per-shard Cells — plain uint64 adds with no
// atomics, safe because each shard's cells are touched only by its
// own engine goroutine — and are merged in deterministic shard order
// at run barriers. Metrics split into two planes:
//
//   - the DETERMINISTIC plane counts packet-path events that happen
//     exactly once globally regardless of sharding (drops, demotions,
//     stamps, deliveries). Its snapshot is byte-identical across shard
//     counts and ships in Result.Counters, goldens included.
//   - the RUNTIME plane counts execution artifacts that legitimately
//     differ with the shard layout (events executed per shard, mailbox
//     handoff batches), and keyring rotations, which no longer do but
//     stay off Result. It is surfaced on /metrics, -metrics-out and
//     bench rows, never in Result.
package obs

import "strconv"

// ID indexes one metric cell. All IDs are allocated here, at compile
// time, so every shard's Cells share one layout and -list-metrics
// cannot drift from the instrumentation.
type ID int

// Deterministic-plane metrics.
const (
	// internal/core — congestion monitor and feedback (§4.3).
	CoreMonitorUp ID = iota
	CoreMonitorDown
	CoreFallbackEngaged
	CoreStampDecr
	CoreStampNop
	CoreStampIncr
	CorePoliceDemoted
	CoreDemotedLegacy
	CoreMACFail
	CoreRequestAdmitted
	CoreRequestDropped
	CoreLimiterPass
	CoreLimiterDrop
	CoreQuotaDrop
	CoreEscalation

	// internal/netsim — link-layer totals.
	NetsimDelivered
	NetsimTxPackets
	NetsimTxBytes
	NetsimDrops

	// queue-channel drops at a NetFence bottleneck (§4.2–§4.4).
	QueueDropRequest
	QueueDropRegular
	QueueDropLegacy

	// QueueHWMBytes is a gauge: the highest backlog in bytes any single
	// queue reached (harvested from the queues at snapshot barriers).
	QueueHWMBytes

	// QueueBacklogBucket0..QueueBacklogSum form a log2-bucketed
	// histogram of the bottleneck backlog observed at each admitted
	// enqueue: buckets ≤4KB, ≤16KB, ≤64KB, ≤256KB, ≤1MB, +Inf, then
	// the running byte sum. The IDs must stay contiguous.
	QueueBacklogBucket0
	QueueBacklogBucket1
	QueueBacklogBucket2
	QueueBacklogBucket3
	QueueBacklogBucket4
	QueueBacklogBucketInf
	QueueBacklogSum

	// Sender aggregation: fleet attachments and the modeled senders they
	// stand for. Attach-time counts on the owning shard only, so the
	// merged totals are shard-layout-invariant and belong to the
	// deterministic plane.
	FleetAttached
	FleetModeledSenders

	// Runtime-plane metrics.
	SimEventsExecuted
	CoreKeyringRotations
	NetsimHandoffBatches
	NetsimHandoffPackets
	NetsimMailboxDepthHWM

	// Packet pools, harvested from each shard's pool at snapshot
	// barriers: packets the pool had to allocate so far, and (a gauge)
	// packets sitting idle on its free list. A pool that allocates or
	// idles out of proportion to its shard's traffic is a leak.
	PacketPoolFresh
	PacketPoolIdle

	// Shard accounting of a sharded run, harvested at snapshot barriers
	// and summed over shards: the hosts and the links each shard owns. A
	// sharded run builds its graph once and binds every host to the
	// shard owning its AS and every link to its transmitting node's, so
	// both sums are the topology's counts at every shard count. Absent on
	// the single engine.
	ShardHostsOwned
	ShardLinksOwned

	// NumIDs is the cell-array length; keep it last.
	NumIDs
)

// QueueBacklogBounds are the histogram's upper bucket bounds in bytes;
// the +Inf bucket follows.
var QueueBacklogBounds = [5]uint64{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}

// Kind distinguishes how a metric accumulates and renders.
type Kind uint8

const (
	Counter   Kind = iota
	Gauge          // merged by max, not sum
	Histogram      // one Def covering a contiguous bucket range
)

// Def describes one registered metric for catalogs, docs and renderers.
type Def struct {
	ID   ID
	Name string
	Help string
	// Ref is the paper section the event implements.
	Ref  string
	Kind Kind
	// Runtime marks the metric as runtime-plane: excluded from
	// Result.Counters and the cross-shard determinism contract.
	Runtime bool
}

// defs is the metric registry, in cell order. Histogram entries stand
// for their whole bucket range.
var defs = []Def{
	{CoreMonitorUp, "core_monitor_up_total", "congestion monitor transitions to monitoring state (attack detected)", "§4.3", Counter, false},
	{CoreMonitorDown, "core_monitor_down_total", "congestion monitor transitions back to idle after the hold period", "§4.3", Counter, false},
	{CoreFallbackEngaged, "core_fallback_engaged_total", "per-AS fallback rate limiting engaged at a bottleneck", "§4.5", Counter, false},
	{CoreStampDecr, "core_stamp_decr_total", "L↓ congestion feedback stamps at a monitored bottleneck", "§4.3.1", Counter, false},
	{CoreStampNop, "core_stamp_nop_total", "nop feedback stamps at access routers (monitor idle)", "§4.3.1", Counter, false},
	{CoreStampIncr, "core_stamp_incr_total", "L↑ feedback stamps on rate-limited regular packets", "§4.3.1", Counter, false},
	{CorePoliceDemoted, "core_police_demoted_total", "packets with invalid or expired feedback demoted to the request channel", "§4.2", Counter, false},
	{CoreDemotedLegacy, "core_demoted_legacy_total", "unstamped regular packets demoted to the legacy channel", "§4.4", Counter, false},
	{CoreMACFail, "core_mac_verify_fail_total", "feedback MAC validation failures at the bottleneck", "§4.1", Counter, false},
	{CoreRequestAdmitted, "core_request_admitted_total", "request packets admitted by access-router priority policing", "§4.2", Counter, false},
	{CoreRequestDropped, "core_request_dropped_total", "request packets dropped by access-router priority policing", "§4.2", Counter, false},
	{CoreLimiterPass, "core_limiter_pass_total", "regular packets passed by a per-(sender,bottleneck) rate limiter", "§4.3.2", Counter, false},
	{CoreLimiterDrop, "core_limiter_drop_total", "regular packets dropped by a per-(sender,bottleneck) rate limiter", "§4.3.2", Counter, false},
	{CoreQuotaDrop, "core_quota_drop_total", "packets dropped by the congestion-quota extension", "§7", Counter, false},
	{CoreEscalation, "core_escalation_total", "request-channel priority escalations by sender shims", "§4.2", Counter, false},
	{NetsimDelivered, "netsim_delivered_total", "packets delivered to their destination host", "§6", Counter, false},
	{NetsimTxPackets, "netsim_tx_packets_total", "packets transmitted on links", "§6", Counter, false},
	{NetsimTxBytes, "netsim_tx_bytes_total", "bytes transmitted on links", "§6", Counter, false},
	{NetsimDrops, "netsim_drop_total", "packets a link queue discarded (refused on arrival or evicted)", "§6", Counter, false},
	{QueueDropRequest, "queue_drop_request_total", "request-channel drops at a NetFence bottleneck (evictions and overflow)", "§4.2", Counter, false},
	{QueueDropRegular, "queue_drop_regular_total", "regular-channel drops at a NetFence bottleneck (RED and fallback)", "§4.3", Counter, false},
	{QueueDropLegacy, "queue_drop_legacy_total", "legacy-channel drops at a NetFence bottleneck", "§4.4", Counter, false},
	{QueueHWMBytes, "queue_hwm_bytes", "highest backlog in bytes any single queue reached", "§6", Gauge, false},
	{QueueBacklogBucket0, "queue_backlog_bytes", "bottleneck backlog observed at each admitted enqueue", "§4.3", Histogram, false},
	{FleetAttached, "fleet_attached_total", "aggregate fleet sources attached to the topology", "§5.1", Counter, false},
	{FleetModeledSenders, "fleet_modeled_senders_total", "modeled senders represented by aggregate fleet sources", "§5.1", Counter, false},
	{SimEventsExecuted, "sim_events_executed_total", "discrete events executed, per engine shard", "—", Counter, true},
	{CoreKeyringRotations, "core_keyring_rotation_total", "access-router keyring rotations (each router rotates on the one shard owning it)", "§4.1", Counter, true},
	{NetsimHandoffBatches, "netsim_handoff_batch_total", "cut-link mailbox drain batches between shards", "—", Counter, true},
	{NetsimHandoffPackets, "netsim_handoff_packet_total", "packets handed across shard cut links", "—", Counter, true},
	{NetsimMailboxDepthHWM, "netsim_mailbox_depth_hwm", "highest packet depth a cut-link mailbox reached at a drain", "—", Gauge, true},
	{PacketPoolFresh, "packet_pool_fresh_total", "packets allocated because a shard's pool had none to recycle", "—", Counter, true},
	{PacketPoolIdle, "packet_pool_idle_max", "most idle packets any one shard held at the last run boundary (free list plus empties come home over cut links)", "—", Gauge, true},
	{ShardHostsOwned, "shard_hosts_owned_total", "hosts owned, summed over shards (the graph is built once; a host belongs to the shard owning its AS)", "§5.1", Counter, true},
	{ShardLinksOwned, "shard_links_owned_total", "links owned, summed over shards (the graph is built once; a link belongs to the shard owning its transmitting node)", "§5.1", Counter, true},
}

// Catalog returns the registry in cell order.
func Catalog() []Def { return defs }

// Cells is one shard's metric store: a dense array indexed by ID.
// Cells are single-goroutine by construction (each shard's engine
// owns its cells), so Add is a plain uint64 add.
type Cells []uint64

// NewCells allocates a zeroed cell array covering the full registry.
func NewCells() Cells { return make(Cells, NumIDs) }

// Add folds n into a counter cell.
func (c Cells) Add(id ID, n uint64) { c[id] += n }

// SetMax raises a gauge cell to v if v is higher.
func (c Cells) SetMax(id ID, v uint64) {
	if v > c[id] {
		c[id] = v
	}
}

// Set overwrites a cell (snapshot-harvested gauges and derived values).
func (c Cells) Set(id ID, v uint64) { c[id] = v }

// ObserveBacklog records one admitted-enqueue backlog observation into
// the queue_backlog_bytes histogram cells.
func (c Cells) ObserveBacklog(bytes uint64) {
	i := 0
	for i < len(QueueBacklogBounds) && bytes > QueueBacklogBounds[i] {
		i++
	}
	c[QueueBacklogBucket0+ID(i)]++
	c[QueueBacklogSum] += bytes
}

// gauge is the gauge set, read off defs once: these cells merge by max,
// every other by sum, in Merge and MergeMap alike.
var gauge = func() (g [NumIDs]bool) {
	for _, d := range defs {
		g[d.ID] = d.Kind == Gauge
	}
	return g
}()

// Merge folds per-shard cells into one snapshot, in the given
// (deterministic) order: counters and histogram buckets sum, gauges
// max. Shard order does not change either operation's result, but the
// discipline matches the rest of the platform's barrier merges.
func Merge(shards []Cells) Cells {
	out := NewCells()
	for _, c := range shards {
		if c == nil {
			continue
		}
		for id := ID(0); id < NumIDs; id++ {
			if gauge[id] {
				out.SetMax(id, c[id])
			} else {
				out[id] += c[id]
			}
		}
	}
	return out
}

// bucketLabel renders a histogram bucket's `le` bound.
func bucketLabel(i int) string {
	if i >= len(QueueBacklogBounds) {
		return "+Inf"
	}
	return strconv.FormatUint(QueueBacklogBounds[i], 10)
}

// expand writes one Def's cells into a name→value map, expanding
// histogram defs into their bucket/sum/count series. Zero-valued
// entries are omitted: the map stays lean and a metric's absence is as
// deterministic as its value.
func expand(m map[string]uint64, d Def, c Cells) {
	switch d.Kind {
	case Histogram:
		var cum uint64
		for i := 0; i <= len(QueueBacklogBounds); i++ {
			cum += c[d.ID+ID(i)]
			if cum > 0 {
				m[d.Name+`_bucket{le="`+bucketLabel(i)+`"}`] = cum
			}
		}
		if cum > 0 {
			m[d.Name+"_count"] = cum
		}
		if s := c[QueueBacklogSum]; s > 0 {
			m[d.Name+"_sum"] = s
		}
	default:
		if v := c[d.ID]; v > 0 {
			m[d.Name] = v
		}
	}
}

// DeterministicMap extracts the deterministic plane as a name→value
// map — the payload of Result.Counters. Byte-identical across shard
// counts by the platform's equivalence contract.
func DeterministicMap(c Cells) map[string]uint64 {
	m := make(map[string]uint64)
	for _, d := range defs {
		if d.Runtime {
			continue
		}
		expand(m, d, c)
	}
	return m
}

// RuntimeMap extracts the runtime plane as a name→value map.
func RuntimeMap(c Cells) map[string]uint64 {
	m := make(map[string]uint64)
	for _, d := range defs {
		if !d.Runtime {
			continue
		}
		expand(m, d, c)
	}
	return m
}
