package topo

import (
	"errors"
	"testing"

	"netfence/internal/sim"
)

func TestPartitionDumbbell(t *testing.T) {
	eng := sim.New(1)
	d := NewDumbbell(eng, DefaultDumbbell(20, 400_000))
	// 12 ASes: 10 sources, transit and victim — MaxShards is 12.
	if got := d.MaxShards(); got != 12 {
		t.Fatalf("MaxShards = %d, want 12", got)
	}
	p, err := d.Partition(4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards != 4 {
		t.Fatalf("Shards = %d", p.Shards)
	}
	// AS-atomicity and monotone shard indices over declaration order.
	last := -1
	seen := map[int]bool{}
	for _, as := range d.AllASes() {
		s := p.ShardOfAS[as]
		if s < last {
			t.Fatalf("shard indices not monotone in AS declaration order: AS %d -> %d after %d", as, s, last)
		}
		last = s
		seen[s] = true
	}
	for s := 0; s < 4; s++ {
		if !seen[s] {
			t.Fatalf("shard %d received no AS", s)
		}
	}
	// Every cut link crosses ASes; the bottleneck (intra-transit) is not
	// cut; lookahead is the common 10 ms link delay.
	for _, l := range p.CutLinks {
		if l.From.AS == l.To.AS {
			t.Fatalf("cut link %s -> %s is intra-AS", l.From, l.To)
		}
	}
	if b := d.Bottlenecks()[0]; p.ShardOfNode[b.From.ID] != p.ShardOfNode[b.To.ID] {
		t.Fatal("bottleneck endpoints split across shards")
	}
	if p.Lookahead != 10*sim.Millisecond {
		t.Fatalf("Lookahead = %v, want 10ms", p.Lookahead)
	}
}

func TestPartitionTooManyShards(t *testing.T) {
	eng := sim.New(1)
	d := NewDumbbell(eng, DefaultDumbbell(4, 400_000))
	// 4 senders -> 4 source ASes + transit + victim = 6 ASes.
	if _, err := d.Partition(7); !errors.Is(err, ErrTooManyShards) {
		t.Fatalf("Partition(7) err = %v, want ErrTooManyShards", err)
	}
	if _, err := d.Partition(0); err == nil {
		t.Fatal("Partition(0) should fail")
	}
}

func TestPartitionStarBottleneckIsCut(t *testing.T) {
	eng := sim.New(1)
	st := NewStar(eng, DefaultStar(8, 400_000))
	p, err := st.Partition(2)
	if err != nil {
		t.Fatal(err)
	}
	// The star's bottleneck crosses ASes (source AS -> victim AS): role
	// awareness must make it a cut link.
	found := false
	for _, l := range p.CutLinks {
		if l == st.Bottlenecks()[0] {
			found = true
		}
	}
	if !found {
		t.Fatal("star bottleneck is inter-AS but was not a cut link")
	}
}

func TestPartitionSingleShard(t *testing.T) {
	eng := sim.New(1)
	st := NewStar(eng, DefaultStar(4, 400_000))
	p, err := st.Partition(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.CutLinks) != 0 || p.Lookahead <= 0 {
		t.Fatalf("single shard: cuts=%d lookahead=%v", len(p.CutLinks), p.Lookahead)
	}
}
