package topo

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"netfence/internal/netsim"
	"netfence/internal/packet"
	"netfence/internal/sim"
)

func TestDumbbellStructure(t *testing.T) {
	eng := sim.New(1)
	cfg := DefaultDumbbell(100, 10_000_000)
	cfg.ColluderASes = 9
	d := NewDumbbell(eng, cfg)
	grp, bottleneck := d.Groups()[0], d.Bottlenecks()[0]
	if len(grp.Senders) != 100 {
		t.Fatalf("senders = %d", len(grp.Senders))
	}
	if n := len(srcAccess(d)); n != 10 || len(grp.Colluders) != 9 {
		t.Fatalf("access=%d colluders=%d", n, len(grp.Colluders))
	}
	// Every sender routes to the victim through the bottleneck.
	for _, s := range grp.Senders {
		path := d.Net.PathLinks(s.ID, grp.Victim.ID)
		found := false
		for _, l := range path {
			if l == bottleneck {
				found = true
			}
		}
		if !found {
			t.Fatalf("sender %v does not cross the bottleneck", s)
		}
	}
	// Sender-to-victim path: host->Ra->Rbl->Rbr->Rv->victim = 5 links.
	if p := d.Net.PathLinks(grp.Senders[0].ID, grp.Victim.ID); len(p) != 5 {
		t.Fatalf("path length = %d, want 5", len(p))
	}
	// Colluder traffic also crosses the bottleneck.
	for _, c := range grp.Colluders {
		path := d.Net.PathLinks(grp.Senders[0].ID, c.ID)
		found := false
		for _, l := range path {
			if l == bottleneck {
				found = true
			}
		}
		if !found {
			t.Fatal("sender->colluder path misses the bottleneck")
		}
	}
}

func TestDumbbellASAssignment(t *testing.T) {
	eng := sim.New(1)
	d := NewDumbbell(eng, DefaultDumbbell(40, 10_000_000))
	// 10 src ASes + transit + victim AS.
	if got := len(d.AllASes()); got != 12 {
		t.Fatalf("AS count = %d, want 12", got)
	}
	// Hosts in the same AS share their access router.
	a0 := d.Groups()[0].Senders[0]
	a1 := d.Groups()[0].Senders[1]
	if a0.AS != a1.AS {
		t.Fatalf("first two senders in different ASes: %d %d", a0.AS, a1.AS)
	}
}

func TestDumbbellSmallSenderCount(t *testing.T) {
	eng := sim.New(1)
	d := NewDumbbell(eng, DefaultDumbbell(4, 1_000_000))
	if n, a := len(d.Groups()[0].Senders), len(srcAccess(d)); n != 4 || a != 4 {
		t.Fatalf("senders=%d access=%d", n, a)
	}
}

func TestParkingLotPaths(t *testing.T) {
	eng := sim.New(1)
	pl := NewParkingLot(eng, DefaultParkingLot(30, 10_000_000, 10_000_000))
	L1, L2 := pl.Bottlenecks()[0], pl.Bottlenecks()[1]
	check := func(g int, wantL1, wantL2 bool) {
		s := pl.Groups()[g].Senders[0]
		v := pl.Groups()[g].Victim
		path := pl.Net.PathLinks(s.ID, v.ID)
		l1, l2 := false, false
		for _, l := range path {
			if l == L1 {
				l1 = true
			}
			if l == L2 {
				l2 = true
			}
		}
		if l1 != wantL1 || l2 != wantL2 {
			t.Fatalf("group %d: crosses L1=%v L2=%v, want %v %v", g, l1, l2, wantL1, wantL2)
		}
	}
	check(0, true, true)  // A
	check(1, false, true) // B
	check(2, true, false) // C
}

func TestParkingLotGroupSizes(t *testing.T) {
	eng := sim.New(1)
	pl := NewParkingLot(eng, DefaultParkingLot(30, 10_000_000, 20_000_000))
	for g := 0; g < 3; g++ {
		if got := len(pl.Groups()[g].Senders); got != 30 {
			t.Fatalf("group %d senders = %d", g, got)
		}
		if len(pl.Groups()[g].Colluders) != 3 {
			t.Fatalf("group %d colluders = %d", g, len(pl.Groups()[g].Colluders))
		}
	}
	checkLinkParams(t, pl, 10_000_000, 20_000_000)
}

func TestGraphRoles(t *testing.T) {
	eng := sim.New(1)
	cfg := DefaultDumbbell(40, 10_000_000)
	cfg.ColluderASes = 3
	g := NewDumbbell(eng, cfg)
	if b := g.Bottlenecks(); len(b) != 1 || b[0].From.Name != "Rbl" || b[0].To.Name != "Rbr" {
		t.Fatalf("bottleneck role lost: %v", b)
	}
	grps := g.Groups()
	if len(grps) != 1 {
		t.Fatalf("groups = %d", len(grps))
	}
	if len(grps[0].Senders) != 40 || grps[0].Victim == nil || grps[0].Victim.Name != "victim" || len(grps[0].Colluders) != 3 {
		t.Fatal("group roles do not match the dumbbell's hosts")
	}
	// Source ASes: the 10 sender ASes, not transit/victim/colluder ASes.
	src := g.SourceASes()
	if len(src) != 10 {
		t.Fatalf("source ASes = %d, want 10", len(src))
	}
	for _, as := range src {
		if as >= 1000 {
			t.Fatalf("non-source AS %d listed as source", as)
		}
	}
	// Parking lot: three groups, 15 source ASes.
	pl := NewParkingLot(sim.New(1), DefaultParkingLot(30, 10_000_000, 10_000_000))
	if n := len(pl.Groups()); n != 3 {
		t.Fatalf("parking-lot groups = %d", n)
	}
	if n := len(pl.SourceASes()); n != 15 {
		t.Fatalf("parking-lot source ASes = %d, want 15", n)
	}
	if n := len(pl.Bottlenecks()); n != 2 {
		t.Fatalf("parking-lot bottlenecks = %d", n)
	}
}

func TestPlanFraction(t *testing.T) {
	src := make([]packet.ASID, 10)
	for i := range src {
		src[i] = packet.ASID(i + 1)
	}
	for _, tc := range []struct {
		f    float64
		want int
	}{{0, 0}, {0.25, 3}, {0.5, 5}, {0.75, 8}, {1, 10}} {
		p := PlanFraction(src, tc.f)
		n := 0
		for _, as := range src {
			if p.Participates(as) {
				n++
			}
		}
		if n != tc.want {
			t.Fatalf("f=%v deployed %d ASes, want %d", tc.f, n, tc.want)
		}
		if got := p.Fraction(src); got != float64(tc.want)/10 {
			t.Fatalf("f=%v Fraction() = %v", tc.f, got)
		}
	}
	// Selection is spread, not a prefix: at 50% the participants must
	// not all be in the first half.
	p := PlanFraction(src, 0.5)
	firstHalf := 0
	for _, as := range src[:5] {
		if p.Participates(as) {
			firstHalf++
		}
	}
	if firstHalf == 5 {
		t.Fatal("fraction selection clustered on a prefix")
	}
	// Out-of-range fractions clamp.
	if n := len(PlanFraction(src, 7).Legacy); n != 0 {
		t.Fatalf("f>1 left %d legacy ASes", n)
	}
	// The zero Plan participates everywhere.
	if !(Plan{}).Participates(42) {
		t.Fatal("zero plan excluded an AS")
	}
}

func TestStarStructure(t *testing.T) {
	eng := sim.New(1)
	cfg := DefaultStar(8, 1_600_000)
	cfg.ColluderASes = 2
	st := NewStar(eng, cfg)
	grp := st.Groups()[0]
	if len(grp.Senders) != 8 || len(grp.Colluders) != 2 {
		t.Fatalf("senders=%d colluders=%d", len(grp.Senders), len(grp.Colluders))
	}
	// Single source AS: all senders share it and the one access router.
	if n := len(st.SourceASes()); n != 1 {
		t.Fatalf("source ASes = %d, want 1", n)
	}
	// Victim- and colluder-bound paths cross the bottleneck.
	for _, dst := range append([]*netsim.Node{grp.Victim}, grp.Colluders...) {
		path := st.Net.PathLinks(grp.Senders[0].ID, dst.ID)
		found := false
		for _, l := range path {
			if l == st.Bottlenecks()[0] {
				found = true
			}
		}
		if !found {
			t.Fatalf("path to %v misses the bottleneck", dst)
		}
	}
	checkLinkParams(t, st, 1_600_000)
}

func TestRandomASStructure(t *testing.T) {
	eng := sim.New(1)
	cfg := DefaultRandomAS(20, 4_000_000)
	cfg.TransitASes = 6
	cfg.ExtraLinks = 3
	cfg.ColluderASes = 2
	cfg.GraphSeed = 42
	r, err := NewRandomAS(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Senders) != 20 {
		t.Fatalf("senders = %d", len(r.Senders))
	}
	if len(r.Transit) != 6 {
		t.Fatalf("transit = %d", len(r.Transit))
	}
	// ExtraLinks is exact: tree (5) + 3 extra core edges, duplex.
	isTransit := map[*netsim.Node]bool{}
	for _, tn := range r.Transit {
		isTransit[tn] = true
	}
	core := 0
	for _, l := range r.Net.Links {
		if isTransit[l.From] && isTransit[l.To] {
			core++
		}
	}
	if core != 2*(5+3) {
		t.Fatalf("core links = %d, want %d (5 tree + 3 extra, duplex)", core, 2*(5+3))
	}
	// Every victim- and colluder-bound path crosses the bottleneck exit.
	grp := r.G.Groups()[0]
	for _, s := range r.Senders {
		for _, dst := range append([]*netsim.Node{grp.Victim}, grp.Colluders...) {
			path := r.Net.PathLinks(s.ID, dst.ID)
			if path == nil {
				t.Fatalf("no route %v -> %v", s, dst)
			}
			found := false
			for _, l := range path {
				if l == r.G.Bottlenecks()[0] {
					found = true
				}
			}
			if !found {
				t.Fatalf("path %v -> %v misses the bottleneck", s, dst)
			}
		}
	}
	checkLinkParams(t, r.G, 4_000_000)
	// Same GraphSeed, same wiring; a different seed changes it (the
	// builder draws structure from GraphSeed, not the engine seed).
	b, _ := NewRandomAS(sim.New(99), cfg)
	if len(b.Net.Links) != len(r.Net.Links) {
		t.Fatal("wiring depends on the engine seed")
	}
	sig := func(x *RandomAS) string {
		s := ""
		for _, l := range x.Net.Links {
			s += l.From.Name + ">" + l.To.Name + ";"
		}
		return s
	}
	if sig(b) != sig(r) {
		t.Fatal("same GraphSeed produced different wiring")
	}
	cfg2 := cfg
	cfg2.GraphSeed = 43
	c, _ := NewRandomAS(sim.New(1), cfg2)
	if sig(c) == sig(r) {
		t.Fatal("different GraphSeed produced identical wiring (suspicious)")
	}
	if _, err := NewRandomAS(sim.New(1), RandomASConfig{}); err == nil {
		t.Fatal("zero-sender random graph accepted")
	}
}

// checkLinkParams holds g to the evaluation's link parameters: every
// link has 10 ms of propagation delay, bottleneck i runs at
// bottleneckBps[i] in both directions, and every other link at 10 Gbps.
func checkLinkParams(t *testing.T, g *Graph, bottleneckBps ...int64) {
	t.Helper()
	if len(g.Bottlenecks()) != len(bottleneckBps) {
		t.Fatalf("bottlenecks = %d, want %d", len(g.Bottlenecks()), len(bottleneckBps))
	}
	want := map[*netsim.Link]int64{}
	for i, l := range g.Bottlenecks() {
		want[l] = bottleneckBps[i]
		want[l.To.LinkTo(l.From)] = bottleneckBps[i]
	}
	for _, l := range g.Net.Links {
		rate, ok := want[l]
		if !ok {
			rate = 10_000_000_000
		}
		if l.Rate != rate || l.Delay != 10*sim.Millisecond {
			t.Fatalf("link %s->%s: %d bps, %v delay; want %d bps, 10ms", l.From.Name, l.To.Name, l.Rate, l.Delay, rate)
		}
	}
}

// srcAccess returns g's access routers that sit in a source AS.
func srcAccess(g *Graph) []*netsim.Node {
	var out []*netsim.Node
	for _, grp := range g.Groups() {
		for _, r := range grp.Access {
			if slices.Contains(g.SourceASes(), r.AS) {
				out = append(out, r)
			}
		}
	}
	return out
}

// testLineOnce guards the process-global registration so the test
// survives -count=N reruns.
var testLineOnce sync.Once

// buildTestLine is a one-group line topology: Population senders (2 by
// default) behind one access router, a bottleneck, and a victim.
func buildTestLine(eng *sim.Engine, opts BuildOptions) (*Graph, error) {
	if opts.Population == 5 {
		return nil, fmt.Errorf("five is refused")
	}
	g := NewGraph(eng)
	ra := g.AccessRouter(0, "Ra", 1)
	rv := g.AccessRouter(0, "Rv", 2)
	g.BottleneckLink(ra, rv, 400_000, 10*sim.Millisecond)
	pop := opts.Population
	if pop <= 0 {
		pop = 2
	}
	for i := 0; i < pop; i++ {
		g.Link(g.Sender(0, "s", 1), ra, 1_000_000_000, sim.Millisecond)
	}
	g.Link(rv, g.Victim(0, "v", 2), 1_000_000_000, sim.Millisecond)
	return g, nil
}

func TestTopologyRegistryInternal(t *testing.T) {
	testLineOnce.Do(func() { Register(" Test-Line ", buildTestLine) })
	if !slices.Contains(Names(), "test-line") {
		t.Fatalf("registry missing the canonical %q (have %v)", "test-line", Names())
	}
	// The population reaches the builder; 0 selects its default.
	for pop, want := range map[int]int{0: 2, 30: 30} {
		g, err := Build("test-line", sim.New(1), BuildOptions{Population: pop})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(g.Groups()[0].Senders); n != want {
			t.Fatalf("population %d built %d senders, want %d", pop, n, want)
		}
	}
	// Case-insensitive resolution.
	if _, err := Build(" TEST-line ", sim.New(1), BuildOptions{}); err != nil {
		t.Fatalf("canonicalization failed: %v", err)
	}
	// A builder's error carries the topology's canonical name.
	if _, err := Build("test-line", sim.New(1), BuildOptions{Population: 5}); err == nil ||
		err.Error() != `topo "test-line": five is refused` {
		t.Fatalf("builder error = %v", err)
	}
	// Unknown names list the registry.
	if _, err := Build("nope", sim.New(1), BuildOptions{}); err == nil || !strings.Contains(err.Error(), "test-line") {
		t.Fatalf("unknown topology error = %v", err)
	}
	// Duplicate and invalid registrations panic.
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate", func() { Register("TEST-LINE", buildTestLine) })
	mustPanic("empty name", func() { Register(" ", buildTestLine) })
	mustPanic("nil builder", func() { Register("x-nil", nil) })
}
