package obs

import (
	"cmp"
	"slices"
	"sort"
)

// TraceEvent is one hop of a sampled packet's life: the simulated
// instant, the flow, the node (or link endpoint) where it happened,
// the hop kind, and a free-form detail. Events carry no per-packet
// identity — pool identities differ across shard layouts — so merged
// traces are byte-identical across shard counts.
type TraceEvent struct {
	T      int64  `json:"t_ns"`
	Flow   uint64 `json:"flow"`
	Node   string `json:"node"`
	Kind   string `json:"kind"`
	Detail string `json:"detail,omitempty"`
}

// Trace-event kinds, in packet-life order.
const (
	HopShim    = "shim"    // sender shim stamped the outgoing packet
	HopPolice  = "police"  // access-router policing verdict
	HopMonitor = "monitor" // bottleneck monitor state at traversal
	HopEnqueue = "enqueue" // link queue admitted the packet
	HopDrop    = "drop"    // link queue refused the packet (detail = reason)
	HopDemote  = "demote"  // channel demotion (detail = which)
	HopDeliver = "deliver" // destination host received the packet
)

// Recorder is one replica's flight recorder: a deterministic
// flow-sampled trace buffer. Like Cells it is single-goroutine — each
// replica records only hops it executes — and replicas' buffers merge
// at the end of a run. A nil *Recorder means tracing is off; callers
// guard the hot path with one nil check and pay nothing more.
type Recorder struct {
	// sampled lists the flow IDs chosen for tracing, ascending; flows
	// opened at run time are never among them, on any shard layout.
	sampled []uint64
	events  []TraceEvent
}

// NewRecorder builds a recorder over a sampled-flow set (as returned
// by SampleFlows). Replicas of one run share the same set.
func NewRecorder(sampled []uint64) *Recorder {
	return &Recorder{sampled: sampled}
}

// Sampled reports whether a flow is traced. Nil-safe so instrumented
// paths can guard with a single call.
func (r *Recorder) Sampled(flow uint64) bool {
	if r == nil {
		return false
	}
	_, ok := slices.BinarySearch(r.sampled, flow)
	return ok
}

// Record appends one hop. Callers check Sampled first; Record itself
// does not filter so synthesized hops (e.g. demotions discovered after
// the verdict) need no re-check.
func (r *Recorder) Record(t int64, flow uint64, node, kind, detail string) {
	r.events = append(r.events, TraceEvent{T: t, Flow: flow, Node: node, Kind: kind, Detail: detail})
}

// Events returns the buffer (unsorted; single-replica order).
func (r *Recorder) Events() []TraceEvent {
	if r == nil {
		return nil
	}
	return r.events
}

// splitmix64 is the sampling hash: cheap, well-mixed, and stable
// across platforms.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SampleFlows deterministically picks n of the given flows by smallest
// seeded hash — the same discipline as the engine's KeyStream: a pure
// function of (seed, flow), so every shard layout samples the identical
// set. Returns the chosen IDs, ascending.
func SampleFlows(seed uint64, flows []uint64, n int) []uint64 {
	hs := make([][2]uint64, len(flows))
	for i, f := range flows {
		hs[i] = [2]uint64{splitmix64(seed ^ f), f}
	}
	slices.SortFunc(hs, func(a, b [2]uint64) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	sampled := make([]uint64, min(max(n, 0), len(hs)))
	for i := range sampled {
		sampled[i] = hs[i][1]
	}
	slices.Sort(sampled)
	return sampled
}

// MergeTraces concatenates per-replica buffers and sorts by full event
// content, making the merged trace a pure set function — independent
// of shard layout and drain interleaving.
func MergeTraces(recs []*Recorder) []TraceEvent {
	var all []TraceEvent
	for _, r := range recs {
		all = append(all, r.Events()...)
	}
	sort.Slice(all, func(a, b int) bool {
		x, y := all[a], all[b]
		if x.T != y.T {
			return x.T < y.T
		}
		if x.Flow != y.Flow {
			return x.Flow < y.Flow
		}
		if x.Node != y.Node {
			return x.Node < y.Node
		}
		if x.Kind != y.Kind {
			return x.Kind < y.Kind
		}
		return x.Detail < y.Detail
	})
	return all
}
