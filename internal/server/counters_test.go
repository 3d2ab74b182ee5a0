package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	netfence "netfence"
	"netfence/internal/obs"
)

// refExpand writes one Def's cells into a name→value map the way the
// map-based counter plane did: histogram defs expand into cumulative
// bucket, count and sum series, and zero values are left out.
func refExpand(m map[string]uint64, d obs.Def, c obs.Cells) {
	if d.Kind != obs.Histogram {
		if v := c[d.ID]; v > 0 {
			m[d.Name] = v
		}
		return
	}
	var cum uint64
	for i := 0; i <= len(obs.QueueBacklogBounds); i++ {
		cum += c[d.ID+obs.ID(i)]
		le := "+Inf"
		if i < len(obs.QueueBacklogBounds) {
			le = strconv.FormatUint(obs.QueueBacklogBounds[i], 10)
		}
		if cum > 0 {
			m[d.Name+`_bucket{le="`+le+`"}`] = cum
		}
	}
	if cum > 0 {
		m[d.Name+"_count"] = cum
	}
	if s := c[obs.QueueBacklogSum]; s > 0 {
		m[d.Name+"_sum"] = s
	}
}

// refDeterministic is the reference deterministic-plane map.
func refDeterministic(c obs.Cells) map[string]uint64 {
	m := map[string]uint64{}
	for _, d := range obs.Catalog() {
		if !d.Runtime {
			refExpand(m, d, c)
		}
	}
	return m
}

// refSnapshot is the reference job snapshot: both planes, each shard's
// executed events and their total, as a boundary merged them from
// Instance.Counters and Instance.RuntimeCounters.
func refSnapshot(c obs.Cells, executed []uint64) map[string]uint64 {
	m := refDeterministic(c)
	for _, d := range obs.Catalog() {
		if d.Runtime {
			refExpand(m, d, c)
		}
	}
	var total uint64
	for i, n := range executed {
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

// counterDelta is the reference stream delta: the keys of cur that grew
// past prev. A nil prev yields the full snapshot.
func counterDelta(prev, cur map[string]uint64) map[string]uint64 {
	d := make(map[string]uint64)
	for k, v := range cur {
		if v > prev[k] {
			d[k] = v - prev[k]
		}
	}
	return d
}

// refSampleEvent is sampleEvent with the reference delta.
type refSampleEvent struct {
	netfence.Sample
	Counters map[string]uint64 `json:"counters,omitempty"`
}

// FuzzCounterCells holds the cells path of the served counter plane to
// the map-based reference on arbitrary monotone snapshot sequences —
// counters, histogram buckets with their sum, and gauges all grow by
// fuzzed steps, some boundaries shipping a stream delta and some not.
// At every boundary the streamed sample's JSON, the job's
// /jobs/{id}/metrics map, the process /metrics bytes over the jobs so
// far, and a sweep's fold of Result.Counters must equal the reference.
func FuzzCounterCells(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 5, 0, 3})
	f.Add(bytes.Repeat([]byte{0x7f, 1, 2, 3, 0, 9, 200}, 40))
	f.Add(bytes.Repeat([]byte{3, 0xff, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1}, 12))

	f.Fuzz(func(t *testing.T, raw []byte) {
		next := func() byte {
			if len(raw) == 0 {
				return 0
			}
			b := raw[0]
			raw = raw[1:]
			return b
		}
		shards := 1 + int(next()%4)
		s := New(Config{})
		defer s.runStop()
		cur, executed := obs.NewCells(), make([]uint64, shards)
		var shipped obs.Cells
		var shippedRef map[string]uint64
		var sweep []obs.Cells
		for b := 0; len(raw) > 0 && b < 16; b++ {
			// A boundary: a flags byte, then one step per cell, scaled
			// by the flags so large values occur too. Steps stay below
			// 2^43, so no sum over 16 boundaries and 16 jobs wraps, as
			// no real counter does.
			flags := next()
			shift := 5 * uint(flags>>4&7)
			prev := cur
			cur = make(obs.Cells, obs.NumIDs)
			for id := range cur {
				cur[id] = prev[id] + uint64(next())<<shift
			}
			executed = append([]uint64(nil), executed...)
			for i := range executed {
				executed[i] += uint64(next())
			}

			if flags&1 != 0 {
				got, err := json.Marshal(sampleEvent{Counters: counterCells(obs.Grown(shipped, cur))})
				if err != nil {
					t.Fatal(err)
				}
				want, err := json.Marshal(refSampleEvent{Counters: counterDelta(shippedRef, refDeterministic(cur))})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("boundary %d: the sample marshals to\n%s\nwant\n%s", b, got, want)
				}
				shipped, shippedRef = cur, refDeterministic(cur)
			}

			j := newJob("j"+strconv.Itoa(b+1), JobSpec{})
			j.cells, j.executed = cur, executed
			if flags&2 != 0 {
				j.cells, j.executed = nil, nil // a job with no snapshot yet
			}
			want := map[string]uint64{}
			if j.cells != nil {
				want = refSnapshot(cur, executed)
			}
			want["sim_events_executed_total"] = 0
			if got := j.countersSnapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("boundary %d: the job snapshot renders\n%v\nwant\n%v", b, got, want)
			}
			s.jobs[j.id] = j
			s.order = append(s.order, j.id)
			checkProcessMetrics(t, s)

			sweep = append(sweep, obs.DeterministicCells(refDeterministic(cur)))
			wantSweep := map[string]uint64{}
			for _, c := range sweep {
				obs.MergeMap(wantSweep, refDeterministic(c))
			}
			if got := obs.DeterministicMap(obs.Merge(sweep)); !reflect.DeepEqual(got, wantSweep) {
				t.Fatalf("boundary %d: the sweep fold renders\n%v\nwant\n%v", b, got, wantSweep)
			}
		}
	})
}

// checkProcessMetrics holds GET /metrics to the reference: every job's
// reference snapshot folded by obs.MergeMap, then rendered.
func checkProcessMetrics(t *testing.T, s *Server) {
	t.Helper()
	want := map[string]uint64{"server_up": 1}
	states := map[jobState]uint64{}
	for _, id := range s.order {
		j := s.jobs[id]
		states[j.state]++
		snap := map[string]uint64{}
		if j.cells != nil {
			snap = refSnapshot(j.cells, j.executed)
		}
		snap["sim_events_executed_total"] = j.meter.Total()
		obs.MergeMap(want, snap)
	}
	for st, n := range states {
		want[`server_jobs{state="`+string(st)+`"}`] = n
	}
	var wantBody bytes.Buffer
	if err := obs.RenderPrometheus(&wantBody, want); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.handleMetrics(rec, httptest.NewRequest("GET", "/metrics", nil))
	if got := rec.Body.Bytes(); !bytes.Equal(got, wantBody.Bytes()) {
		t.Fatalf("/metrics reads\n%s\nwant\n%s", got, wantBody.Bytes())
	}
}

// TestCounterAllocs pins the allocations of the served counter plane on
// the serve-jobs job shape at its 5 s boundary: one boundary's snapshot
// plus its stream delta (the first, against no earlier delta), and
// rendering that delta to JSON. A snapshot is a fresh copy of the cells
// and of the per-shard executed counts, plus the shard list Merge reads;
// the delta is one more cell array. Rendering is the one buffer
// MarshalJSON fills (json.Marshal adds boxing the delta and copying the
// buffer out of its pooled encoder, which the race detector's pool
// drops make vary). At the final boundary the runner collects the
// Result, whose counters render from the cells Finish harvested, and
// snapshots those cells: a copy of them and the executed counts, no
// second harvest.
func TestCounterAllocs(t *testing.T) {
	sc, err := goldenJob(false).Scenario.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	in, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer in.Stop()
	in.Advance(5 * netfence.Second)

	var delta counterCells
	boundary := testing.AllocsPerRun(100, func() {
		cells, _ := in.CounterCells()
		delta = counterCells(obs.Grown(nil, cells))
	})
	if delta == nil {
		t.Fatal("no counter grew in the first 5 s")
	}
	render := testing.AllocsPerRun(100, func() {
		if _, err := delta.MarshalJSON(); err != nil {
			t.Fatal(err)
		}
	})
	final := testing.AllocsPerRun(100, func() {
		in.Finish()
		in.CounterCells()
	})
	const wantBoundary, wantRender, wantFinal = 4, 1, 16
	if boundary != wantBoundary {
		t.Errorf("a boundary's snapshot and delta cost %.0f allocations, want %d", boundary, wantBoundary)
	}
	if render != wantRender {
		t.Errorf("rendering a delta costs %.0f allocations, want %d", render, wantRender)
	}
	if final != wantFinal {
		t.Errorf("the final boundary's Result and snapshot cost %.0f allocations, want %d", final, wantFinal)
	}
}
