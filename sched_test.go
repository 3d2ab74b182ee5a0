package netfence

import (
	"testing"

	"netfence/internal/core"
)

// shortLedgerCells are the ledger's tiny-suite cells — the Fig. 8
// request flood and the Fig. 9 collusion — at -short size.
func shortLedgerCells() []Scenario {
	const n = 32
	return []Scenario{{
		Name: "fig8-reqflood", Seed: 1,
		Topology: DumbbellSpec{Senders: n, BottleneckBps: n * 100_000},
		Defense:  Defense("netfence"),
		Workloads: []Workload{
			FileTransfers{Senders: Range(0, n/8)},
			RequestFlood{Senders: Range(n/8, n), Strategic: true},
		},
		DenyAttackers: true,
		Duration:      2 * Second, Warmup: Second,
	}, {
		Name: "fig9-collusion", Seed: 1,
		Topology: DumbbellSpec{Senders: n, BottleneckBps: n * 100_000, ColluderASes: 9},
		Defense:  Defense("netfence"),
		Workloads: []Workload{
			LongTCP{Senders: Range(0, n/4)},
			ColluderPairs{Senders: Range(n/4, n), RateBps: 1_000_000},
		},
		Duration: 8 * Second, Warmup: 4 * Second,
	}}
}

// TestPlacementsPerEvent holds the calendar scheduler to its point: an
// event is linked once, into the bucket it is extracted from. Links per
// executed event (wheel slots, heap pushes and insertions into the
// executing bucket together) stay at or below 1.3 on the ledger's
// request-flood (Fig. 8) and collusion (Fig. 9) cells, where the
// hierarchical wheel this replaced read 2.5 and 3.0.
func TestPlacementsPerEvent(t *testing.T) {
	cells := shortLedgerCells()
	for _, sc := range cells {
		in, err := sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		in.Run()
		st, executed := in.Eng.SchedStats(), in.Eng.Executed()
		links := st.Placed + st.HeapPushed + st.DueInserted
		t.Logf("%s: %d events, %+v", sc.Name, executed, st)
		if executed < 50_000 || float64(links) > 1.3*float64(executed) {
			t.Errorf("%s: %d links for %d executed events, want at most 1.3 per event", sc.Name, links, executed)
		}
	}
}

// TestAccessMemoHitShare holds the access routers' token memo to its
// point on the collusion cell: most tokens a router needs are ones the
// same sender's previous packet already had, so at least four lookups
// in five are answered by a compare instead of AES passes.
func TestAccessMemoHitShare(t *testing.T) {
	in, err := shortLedgerCells()[1].Build()
	if err != nil {
		t.Fatal(err)
	}
	in.Run()
	sys := in.System.(*core.System)
	var st core.AccessStats
	for _, nd := range in.Net.Nodes {
		if ar := sys.Access(nd); ar != nil {
			s := ar.Stats()
			st.MemoHits += s.MemoHits
			st.MemoMisses += s.MemoMisses
			st.Hashed += s.Hashed
		}
	}
	share := float64(st.MemoHits) / float64(st.MemoHits+st.MemoMisses)
	t.Logf("%+v: hit share %.3f", st, share)
	if st.MemoHits+st.MemoMisses < 10_000 || share < 0.8 {
		t.Errorf("memo hit share %.3f over %d lookups, want at least 0.8", share, st.MemoHits+st.MemoMisses)
	}
}
