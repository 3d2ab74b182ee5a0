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
	if len(d.Senders) != 100 {
		t.Fatalf("senders = %d", len(d.Senders))
	}
	if len(d.SrcAccess) != 10 || len(d.Colluders) != 9 {
		t.Fatalf("access=%d colluders=%d", len(d.SrcAccess), len(d.Colluders))
	}
	// Every sender routes to the victim through the bottleneck.
	for _, s := range d.Senders {
		path := d.Net.PathLinks(s.ID, d.Victim.ID)
		found := false
		for _, l := range path {
			if l == d.Bottleneck {
				found = true
			}
		}
		if !found {
			t.Fatalf("sender %v does not cross the bottleneck", s)
		}
	}
	// Sender-to-victim path: host->Ra->Rbl->Rbr->Rv->victim = 5 links.
	if p := d.Net.PathLinks(d.Senders[0].ID, d.Victim.ID); len(p) != 5 {
		t.Fatalf("path length = %d, want 5", len(p))
	}
	// Colluder traffic also crosses the bottleneck.
	for _, c := range d.Colluders {
		path := d.Net.PathLinks(d.Senders[0].ID, c.ID)
		found := false
		for _, l := range path {
			if l == d.Bottleneck {
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
	a0 := d.Senders[0]
	a1 := d.Senders[1]
	if a0.AS != a1.AS {
		t.Fatalf("first two senders in different ASes: %d %d", a0.AS, a1.AS)
	}
}

func TestDumbbellSmallSenderCount(t *testing.T) {
	eng := sim.New(1)
	d := NewDumbbell(eng, DefaultDumbbell(4, 1_000_000))
	if len(d.Senders) != 4 || len(d.SrcAccess) != 4 {
		t.Fatalf("senders=%d access=%d", len(d.Senders), len(d.SrcAccess))
	}
}

func TestParkingLotPaths(t *testing.T) {
	eng := sim.New(1)
	pl := NewParkingLot(eng, DefaultParkingLot(30, 10_000_000, 10_000_000))
	crosses := func(src, dst int32, l *struct{}) {}
	_ = crosses
	has := func(path []*struct{}) {}
	_ = has

	check := func(g int, wantL1, wantL2 bool) {
		s := pl.Groups[g].Senders[0]
		v := pl.Groups[g].Victim
		path := pl.Net.PathLinks(s.ID, v.ID)
		l1, l2 := false, false
		for _, l := range path {
			if l == pl.L1 {
				l1 = true
			}
			if l == pl.L2 {
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
		if got := len(pl.Groups[g].Senders); got != 30 {
			t.Fatalf("group %d senders = %d", g, got)
		}
		if len(pl.Groups[g].Colluders) != 3 {
			t.Fatalf("group %d colluders = %d", g, len(pl.Groups[g].Colluders))
		}
	}
	if pl.L1.Rate != 10_000_000 || pl.L2.Rate != 20_000_000 {
		t.Fatal("bottleneck rates wrong")
	}
}

func TestGraphRoles(t *testing.T) {
	eng := sim.New(1)
	cfg := DefaultDumbbell(40, 10_000_000)
	cfg.ColluderASes = 3
	d := NewDumbbell(eng, cfg)
	g := d.G
	if len(g.Bottlenecks()) != 1 || g.Bottlenecks()[0] != d.Bottleneck {
		t.Fatalf("bottleneck role lost: %v", g.Bottlenecks())
	}
	grps := g.Groups()
	if len(grps) != 1 {
		t.Fatalf("groups = %d", len(grps))
	}
	if len(grps[0].Senders) != 40 || grps[0].Victim != d.Victim || len(grps[0].Colluders) != 3 {
		t.Fatal("group roles do not match the dumbbell fields")
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
	if n := len(pl.G.Groups()); n != 3 {
		t.Fatalf("parking-lot groups = %d", n)
	}
	if n := len(pl.G.SourceASes()); n != 15 {
		t.Fatalf("parking-lot source ASes = %d, want 15", n)
	}
	if n := len(pl.G.Bottlenecks()); n != 2 {
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
	if len(st.Senders) != 8 || len(st.Colluders) != 2 {
		t.Fatalf("senders=%d colluders=%d", len(st.Senders), len(st.Colluders))
	}
	// Single source AS: all senders share it and the one access router.
	if n := len(st.G.SourceASes()); n != 1 {
		t.Fatalf("source ASes = %d, want 1", n)
	}
	// Victim- and colluder-bound paths cross the bottleneck.
	for _, dst := range append([]*netsim.Node{st.Victim}, st.Colluders...) {
		path := st.Net.PathLinks(st.Senders[0].ID, dst.ID)
		found := false
		for _, l := range path {
			if l == st.Bottleneck {
				found = true
			}
		}
		if !found {
			t.Fatalf("path to %v misses the bottleneck", dst)
		}
	}
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
	for _, s := range r.Senders {
		for _, dst := range append([]*netsim.Node{r.Victim}, r.Colluders...) {
			path := r.Net.PathLinks(s.ID, dst.ID)
			if path == nil {
				t.Fatalf("no route %v -> %v", s, dst)
			}
			found := false
			for _, l := range path {
				if l == r.Bottleneck {
					found = true
				}
			}
			if !found {
				t.Fatalf("path %v -> %v misses the bottleneck", s, dst)
			}
		}
	}
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
