package netfence

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"netfence/internal/netsim"
	"netfence/internal/obs"
	"netfence/internal/packet"
)

// shardRow is one cell of the shard-identity matrix: the scenario, the
// shard counts it runs at beside its one-shard reference, and the
// columns it opts into. A traced cell (TraceFlows set) opts into the
// trace column, held in the row's "trace" subtest.
type shardRow struct {
	name   string // empty for its group's only row, which runs as the group
	cell   Scenario
	shards []int
	long   bool // skipped under -short
	// lowersDelay marks a timeline that lowers a cut link's delay with
	// the link backlogged: arrivals minted under the lower delay must
	// land ahead of ones still in the destination's FIFO
	// (HandoffStats.Keyed counts them). On every other row none may.
	lowersDelay bool
	// pool holds each sharded run's packet pools to the single engine's:
	// at most 1.3x its allocations over all shards, no shard idling more
	// than it ever allocated, and no idle growth when the run doubles.
	pool bool
	// golden names the testdata/kind_golden.json entry pinning the
	// reference run's Result sha256, event count and trace sha256.
	golden string
	// refusesDeny: with DenyAttackers set, Build must refuse the cell at
	// every sharded count, naming the filter request (StopIt); the row
	// itself runs without the deny policy.
	refusesDeny bool
	// pre is what the reference run must show for the row to test what
	// it exists to test.
	pre func(t *testing.T, ref *shardRun)
}

type rowGroup struct {
	name string
	rows []shardRow
}

// shardRun is everything the matrix reads from one run of a cell.
type shardRun struct {
	res                                      *Result
	result, midCounters, midSeries, counters string
	trace                                    string
	rotations, events, keyed, drops          uint64
	fresh, idle                              []uint64 // per shard
}

// runCell builds sc at the shard count, stops at the mid-run control
// point to read the counter plane and the series, finishes the run and
// reads every column. Drop conservation is checked here, on every run:
// each packet a link queue discards, refused on arrival or evicted, is
// counted once in the queue's Stats, once in netsim_drop_total and shown
// once to Network.OnDrop.
func runCell(t *testing.T, sc Scenario, shards int) *shardRun {
	t.Helper()
	sc.Shards = shards
	in, err := sc.Build()
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	defer in.Stop()
	nets := in.env.sh.nets
	if len(nets) != shards {
		t.Fatalf("shards=%d: built %d shards", shards, len(nets))
	}
	onDrop := make([]uint64, shards)
	for i, n := range nets {
		n.OnDrop = func(*packet.Packet, *netsim.Link) { onDrop[i]++ }
	}
	in.Advance(sc.Duration / 2)
	r := &shardRun{
		midCounters: marshal(t, in.Counters()),
		// An empty series compares equal whether it is nil or not.
		midSeries: marshal(t, append([]Sample(nil), in.Series()...)),
	}
	r.res = in.Finish()
	r.result = marshal(t, r.res)
	r.counters = marshal(t, r.res.Counters)
	r.rotations = in.RuntimeCounters()["core_keyring_rotation_total"]
	r.events = in.EventsExecuted()
	for _, n := range nets {
		hs := n.HandoffStats()
		r.keyed += hs.Keyed
		r.fresh = append(r.fresh, n.Pool.News)
		r.idle = append(r.idle, uint64(n.Pool.Len())+hs.Home)
	}
	for _, l := range nets[0].Links {
		if l.Q != nil {
			r.drops += l.Q.Stats().Dropped
		}
	}
	var seen uint64
	for _, n := range onDrop {
		seen += n
	}
	if counted := r.res.Counters["netsim_drop_total"]; r.drops != counted || seen != counted {
		t.Errorf("shards=%d: queues dropped %d, netsim_drop_total %d, Network.OnDrop saw %d", shards, r.drops, counted, seen)
	}
	if r.midCounters == "{}" || r.counters == "{}" {
		t.Errorf("shards=%d: empty counter snapshot (mid=%s end=%s)", shards, r.midCounters, r.counters)
	}
	if sc.TraceFlows > 0 {
		events := in.Trace()
		if len(events) == 0 {
			t.Errorf("shards=%d: empty trace with TraceFlows=%d", shards, sc.TraceFlows)
		}
		var buf bytes.Buffer
		if err := obs.WriteTraceJSON(&buf, events); err != nil {
			t.Fatal(err)
		}
		r.trace = buf.String()
	}
	return r
}

func marshal(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// against holds a sharded run to the row's one-shard reference, column
// by column.
func (r *shardRun) against(t *testing.T, ref *shardRun, shards int, lowersDelay bool) {
	t.Helper()
	for _, c := range []struct{ column, want, got string }{
		{"Result", ref.result, r.result},
		{"mid-run Counters", ref.midCounters, r.midCounters},
		{"mid-run Series", ref.midSeries, r.midSeries},
		{"Result.Counters", ref.counters, r.counters},
	} {
		if c.want != c.got {
			t.Errorf("%s: shards=%d diverged from one shard %s", c.column, shards, divergence(c.want, c.got))
		}
	}
	if r.rotations != ref.rotations {
		t.Errorf("shards=%d: %d keyring rotations, one shard %d", shards, r.rotations, ref.rotations)
	}
	if (r.keyed > 0) != lowersDelay {
		t.Errorf("shards=%d: %d arrivals overtook their FIFO", shards, r.keyed)
	}
}

// poolBounds holds the packet lifecycle rule under sharding: a struct
// lives where its packet is and empties go home, so splitting a run over
// shards must neither multiply the packets allocated nor park them on
// one shard's free list, and what a pool idles must track the traffic in
// flight, not the simulated time elapsed.
func poolBounds(t *testing.T, sc Scenario, shards int, ref, r *shardRun) {
	t.Helper()
	single := ref.fresh[0]
	doubled := sc
	doubled.Duration, doubled.Warmup = 2*sc.Duration, 2*sc.Warmup
	idle2 := runCell(t, doubled, shards).idle
	t.Logf("shards=%d fresh=%v idle=%v idle@2x=%v (single engine fresh=%d)", shards, r.fresh, r.idle, idle2, single)
	var sum uint64
	for _, n := range r.fresh {
		sum += n
	}
	if limit := single + single*3/10; sum > limit {
		t.Errorf("shards=%d: %d packets allocated over all pools, more than 1.3x the single engine's %d", shards, sum, single)
	}
	for i, idle := range r.idle {
		if idle > single {
			t.Errorf("shards=%d: shard %d idles %d packets, more than the single engine ever allocated (%d)", shards, i, idle, single)
		}
		// A free list well under the single engine's working set moves
		// with the traffic's phase at the instant the run ends; its ratio
		// says nothing about growth.
		if idle2[i] >= 2*idle && idle2[i] > single/2 {
			t.Errorf("shards=%d: shard %d idle packets grew %d -> %d when the run doubled: the pool grows with simulated time", shards, i, idle, idle2[i])
		}
	}
}

// kindGolden is one pinned single-engine run: the sha256 of its Result
// JSON, the events it executed and, when traced, the sha256 of its
// merged flight-recorder trace.
type kindGolden struct {
	Result string `json:"result_sha256"`
	Events uint64 `json:"events"`
	Trace  string `json:"trace_sha256,omitempty"`
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// goldenBook is testdata/kind_golden.json: the pins the golden rows'
// references are held to or, with NETFENCE_REGEN_GOLDEN set, rewritten
// from. A regenerated file keeps the pins of rows that did not run and
// drops those no row names.
type goldenBook struct {
	regen bool
	mu    sync.Mutex
	pins  map[string]kindGolden
}

const kindGoldenPath = "testdata/kind_golden.json"

func (b *goldenBook) check(t *testing.T, name string, ref *shardRun) {
	t.Helper()
	g := kindGolden{Result: sha(ref.result), Events: ref.events}
	if ref.trace != "" {
		g.Trace = sha(ref.trace)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.regen {
		b.pins[name] = g
	} else if w, ok := b.pins[name]; !ok {
		t.Errorf("%s: not in %s", name, kindGoldenPath)
	} else if g != w {
		t.Errorf("%s diverged from the pinned single-engine run:\ngot  %+v\nwant %+v", name, g, w)
	}
}

func (b *goldenBook) write(t *testing.T) {
	buf, err := json.MarshalIndent(b.pins, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(kindGoldenPath, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Log("regenerated " + kindGoldenPath)
}

// TestShardMatrix holds the standing invariant — a Result, its counters
// and its trace do not depend on how the simulator is sharded — as one
// table. Each row is a cell with the shard counts it runs at; each is
// built and run once per count, and every column is read from that one
// run: the Result JSON bytes, Counters and Series at a mid-run
// Advance(Duration/2) control point, the final Result.Counters and the
// keyring rotations are held to the row's one-shard reference, and drop
// conservation and the keyed-handoff precondition hold on every run.
// Rows opt into the trace bytes (a "trace" subtest), the pool bounds
// and the golden pin.
// After an intentional behavior change, rewrite the pins with
//
//	NETFENCE_REGEN_GOLDEN=1 go test -run TestShardMatrix .
func TestShardMatrix(t *testing.T) {
	book := &goldenBook{regen: os.Getenv("NETFENCE_REGEN_GOLDEN") != ""}
	raw, err := os.ReadFile(kindGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &book.pins); err != nil {
		t.Fatal(err)
	}
	groups := shardMatrix(t)
	pinned := map[string]bool{}
	for _, g := range groups {
		for _, r := range g.rows {
			if r.golden != "" {
				pinned[r.golden] = true
			}
		}
	}
	for name := range book.pins {
		if pinned[name] {
			continue
		}
		if book.regen {
			delete(book.pins, name)
		} else {
			t.Errorf("%s pins %s, which no row runs", kindGoldenPath, name)
		}
	}
	if book.regen {
		t.Cleanup(func() { book.write(t) })
	}
	run := func(t *testing.T, r shardRow) {
		if r.long && testing.Short() {
			t.Skip("10,240-sender cell; skipped under -short")
		}
		ref := runCell(t, r.cell, 1)
		if r.pre != nil {
			r.pre(t, ref)
		}
		if r.golden != "" {
			book.check(t, r.golden, ref)
		}
		var traced []*shardRun
		for _, n := range r.shards {
			if r.refusesDeny {
				deny := r.cell
				deny.DenyAttackers, deny.Shards = true, n
				if _, err := deny.Build(); !errors.Is(err, errShardedFilterRequest) || !strings.Contains(err.Error(), "filter request") {
					t.Errorf("DenyAttackers on %d shards: Build returned %v, want the filter-request refusal", n, err)
				}
			}
			got := runCell(t, r.cell, n)
			got.against(t, ref, n, r.lowersDelay)
			if r.pool {
				poolBounds(t, r.cell, n, ref, got)
			}
			if r.cell.TraceFlows > 0 {
				traced = append(traced, got)
			}
		}
		if len(traced) > 0 {
			t.Run("trace", func(t *testing.T) {
				for i, got := range traced {
					if got.trace != ref.trace {
						t.Errorf("trace: shards=%d diverged from one shard %s", r.shards[i], divergence(ref.trace, got.trace))
					}
				}
			})
		}
	}
	for _, g := range groups {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			for _, r := range g.rows {
				if r.name == "" {
					run(t, r)
					continue
				}
				t.Run(r.name, func(t *testing.T) {
					t.Parallel()
					run(t, r)
				})
			}
		})
	}
}

// shardMatrix is the table, heaviest groups first so the parallel
// subtests finish together.
func shardMatrix(t *testing.T) []rowGroup {
	mix := []Workload{
		LongTCP{Senders: Range(0, 5)},
		UDPFlood{Senders: Range(5, 12)},
		ColluderPairs{Senders: Range(12, 20), RateBps: 1_000_000},
	}
	return []rowGroup{
		{"large-graph-seed3", []shardRow{largeGraphRow()}},
		{"pool-bounds", []shardRow{poolRow()}},
		{"kinds", kindRows(t)},
		{"topologies", topologyRows(mix)},
		{"passport", passportRows(mix)},
		{"fuzz", fuzzRows()},
		{"fleet", fleetRows()},
		{"keyring-rotations", []shardRow{keyringRow()}},
		{"symmetric-chains", []shardRow{symmetricChainsRow()}},
		{"timeline", []shardRow{timelineRow()}},
		{"golden-timeline", []shardRow{{cell: goldenTimelineScenario(), golden: "timeline"}}},
		{"conservation", conservationRows()},
	}
}

// largeGraphRow is the regression cell of the model-derived event key:
// the 10,240-sender random-AS cell wired by graph seed 3 phase-locks
// same-instant transmission chains across cut links for longer than any
// fixed scheduling-history depth can resolve.
func largeGraphRow() shardRow {
	const pop = 10_240
	return shardRow{
		cell: Scenario{
			Name: "random-as-large", Seed: 1,
			Topology: RandomASSpec{
				Senders: pop, BottleneckBps: pop * 100_000,
				SrcASes: 32, ColluderASes: 9, GraphSeed: 3,
			},
			Defense: Defense("netfence"),
			Workloads: []Workload{
				LongTCP{Senders: Range(0, pop/4)},
				AttackSpec{Senders: Range(pop/4, pop), RateBps: 200_000, ToColluders: true},
			},
			Duration: 2 * Second, Warmup: Second,
		},
		shards: []int{2, 4},
		long:   true,
	}
}

// poolRow is the ledger's large-passport-shards cell (256 senders under
// -short): the random-AS graph with Passport on, where nearly all
// traffic crosses cut links one way, toward the bottleneck's shard.
func poolRow() shardRow {
	pop, srcASes := 256, 8
	if !testing.Short() {
		pop, srcASes = 10_240, 32
	}
	return shardRow{cell: poolCell(pop, srcASes, 2*Second, 1), shards: []int{2, 4}, pool: true}
}

// workloadKinds lists every type of this package with an
// attach(*scenarioEnv) method — every Workload — read from the source,
// so a kind added to workload.go cannot stay out of kindTable.
func workloadKinds(t *testing.T) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, f := range pkgs["netfence"].Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Name.Name != "attach" {
				continue
			}
			if id, ok := fn.Recv.List[0].Type.(*ast.Ident); ok {
				kinds = append(kinds, id.Name)
			}
		}
	}
	sort.Strings(kinds)
	return kinds
}

// kindSpec is equivScenario's twenty-sender dumbbell, the topology every
// kindTable row runs on, and equivRandomAS its random-AS graph.
var (
	kindSpec      = DumbbellSpec{Senders: 20, BottleneckBps: 4_000_000, ColluderASes: 3}
	equivRandomAS = RandomASSpec{Senders: 20, BottleneckBps: 4_000_000, TransitASes: 4, ExtraLinks: 2, ColluderASes: 3, GraphSeed: 3}
)

// kindTable holds one workload per kind, run alone over all twenty
// senders of kindSpec.
func kindTable() map[string]Workload {
	all := Range(0, 20)
	return map[string]Workload{
		"LongTCP":       LongTCP{Senders: all},
		"UDPFlood":      UDPFlood{Senders: all},
		"OnOffFlood":    OnOffFlood{Senders: all, On: 2 * Second, Off: 3 * Second},
		"ColluderPairs": ColluderPairs{Senders: all, RateBps: 1_000_000},
		"FleetSpec":     FleetSpec{Senders: all, Count: 200},
		"RequestFlood":  RequestFlood{Senders: all, Strategic: true},
		"AttackSpec":    AttackSpec{Senders: all, RateBps: 1_000_000},
		"FileTransfers": FileTransfers{Senders: all},
		"WebTraffic":    WebTraffic{Senders: all},
	}
}

// kindRows runs every Workload kind alone, under every registered
// defense, on two shards, so no kind can cover for another. Under
// -short the rows run 10 s, except NetFence's: their references are the
// golden pins, taken over the full 30 s. The one refusal is StopIt with
// the deny policy equivScenario sets.
func kindRows(t *testing.T) []shardRow {
	table := kindTable()
	kinds := workloadKinds(t)
	if len(kinds) != len(table) {
		t.Errorf("the source declares %d workload kinds %v, the table holds %d", len(kinds), kinds, len(table))
	}
	var rows []shardRow
	for _, def := range Defenses() {
		for _, kind := range kinds {
			w, ok := table[kind]
			if !ok {
				t.Errorf("workload kind %s is missing from the table", kind)
				continue
			}
			if got, _, _ := w.span(); got != kind {
				t.Errorf("table row %s holds a %s", kind, got)
			}
			r := shardRow{name: def + "/" + kind, cell: equivScenario(kindSpec, []Workload{w}, 1), shards: []int{2}}
			r.cell.Defense = Defense(def)
			switch {
			case def == "netfence":
				r.golden = kind
			case testing.Short():
				r.cell.Duration, r.cell.Warmup = 10*Second, 4*Second
			}
			if def == "stopit" {
				r.cell.DenyAttackers = false
				r.refusesDeny = true
			}
			rows = append(rows, r)
		}
	}
	return rows
}

// topologyRows run equivScenario's mix on each of the four in-tree
// topologies, plus the mid-run flow openers. The dumbbell and random-AS
// rows are traced.
func topologyRows(mix []Workload) []shardRow {
	delayLowered := []Mutation{
		{At: 12 * Second, Link: &LinkMutation{Delay: 40 * Millisecond}},
		{At: 18 * Second, Link: &LinkMutation{Delay: 10 * Millisecond}},
		{At: 24 * Second, Link: &LinkMutation{Delay: 25 * Millisecond}},
		{At: 24*Second + 7*Millisecond, Link: &LinkMutation{Restore: true}},
	}
	star := StarSpec{Senders: 16, BottleneckBps: 3_200_000, ColluderASes: 2}
	row := func(name string, spec TopologySpec, wl []Workload, shards ...int) shardRow {
		return shardRow{name: name, cell: equivScenario(spec, wl, 1), shards: shards}
	}
	traced := func(r shardRow) shardRow {
		r.cell.TraceFlows = 4
		return r
	}
	lowered := func(r shardRow) shardRow {
		r.cell.Timeline = delayLowered
		r.lowersDelay = true
		return r
	}
	return []shardRow{
		traced(row("dumbbell", kindSpec, mix, 2, 4, 8)),
		// The star's bottleneck joins two ASes and is cut at both counts
		// (the dumbbell's and the parking lot's lie inside one AS and never
		// are). Its delay goes up to four lookaheads and back down to one
		// with the link backlogged, then up and down again 7 ms apart.
		lowered(row("star-delay-lowered", star, []Workload{LongTCP{Senders: Range(0, 4)}, UDPFlood{Senders: Range(4, 10)}}, 2, 4)),
		lowered(row("random-as-delay-lowered", equivRandomAS, mix[:2], 2, 4)),
		row("parking-lot", ParkingLotSpec{SendersPerGroup: 10, L1Bps: 4_000_000, L2Bps: 2_000_000}, []Workload{
			LongTCP{Group: 0, Senders: Range(0, 3)},
			UDPFlood{Group: 0, Senders: Range(3, 10)},
			LongTCP{Group: 1, Senders: Range(0, 3)},
			ColluderPairs{Group: 1, Senders: Range(3, 10), RateBps: 1_000_000},
			LongTCP{Group: 2, Senders: Range(0, 10)},
		}, 2, 4, 8),
		row("star", star, []Workload{
			LongTCP{Senders: Range(0, 4)},
			UDPFlood{Senders: Range(4, 10)},
			ColluderPairs{Senders: Range(10, 16), RateBps: 1_000_000},
		}, 2, 4),
		traced(row("random-as", equivRandomAS, mix, 2, 4, 8)),
		// Clients that open flows mid-run: 319 transfers on one engine,
		// once none at 2 and 4 shards (per-replica flow counters).
		row("dumbbell-file-transfers", kindSpec, []Workload{FileTransfers{Senders: Range(0, 6)}, UDPFlood{Senders: Range(6, 12)}}, 2, 4, 8),
		// Sizes and think times drawn mid-run: once 503 / 594 / 541 / 545
		// transfers at 1 / 2 / 4 / 8 shards (one engine stream per
		// replica).
		row("dumbbell-web", kindSpec, []Workload{WebTraffic{Senders: Range(0, 20)}}, 2, 4, 8),
	}
}

// passportRows run with Passport source authentication: a handoff over a
// cut link is verified inline by the destination shard's bottleneck,
// exactly where the single engine verifies it. They cover full
// deployment on the dumbbell and the random-AS graph, lookahead windows
// straddling access-router key rotations, and the forged-MAC adversary
// (stale replayed feedback, rogue legacy ASes that stamp nothing) under
// half deployment.
func passportRows(mix []Workload) []shardRow {
	cfg := DefaultConfig()
	cfg.Passport = true
	row := func(name string, spec TopologySpec, wl []Workload, shards ...int) shardRow {
		r := shardRow{name: name, cell: equivScenario(spec, wl, 1), shards: shards}
		r.cell.Defense = DefenseSpec{Name: "netfence", Config: cfg}
		return r
	}
	rotating := row("key-rotation", kindSpec, mix, 2, 4)
	cfg.KeyRotate = 6 * Second // > WSec, several rotations inside the 30 s run
	rotating.cell.Defense.Config = cfg
	forged := row("forged-mac", kindSpec, []Workload{
		LongTCP{Senders: Range(0, 5)},
		AttackSpec{Strategy: "replay", Senders: Range(5, 12), RateBps: 1_000_000},
		ColluderPairs{Senders: Range(12, 20), RateBps: 1_000_000},
	}, 2, 4)
	forged.cell.Deployment = DeployFraction(0.5) // rogue half: no shim, no stamps
	return []shardRow{
		row("dumbbell", kindSpec, mix, 2, 4, 8),
		row("random-as", equivRandomAS, mix, 2, 4, 8),
		rotating,
		forged,
	}
}

// fuzzRows sweep seeds over a random-AS graph, varying the traffic, not
// the wiring: the cross-shard determinism fuzz of the mailbox handoff.
func fuzzRows() []shardRow {
	var rows []shardRow
	for seed := uint64(1); seed <= 5; seed++ {
		sc := equivScenario(
			RandomASSpec{Senders: 16, BottleneckBps: 3_200_000, TransitASes: 4, ExtraLinks: 1, ColluderASes: 2, GraphSeed: 2},
			[]Workload{
				LongTCP{Senders: Range(0, 4)},
				AttackSpec{Strategy: "onoff-sync", Senders: Range(4, 10), RateBps: 1_000_000},
				ColluderPairs{Senders: Range(10, 16), RateBps: 1_000_000},
			}, 1)
		sc.Seed = seed
		sc.Duration, sc.Warmup = 20*Second, 8*Second
		rows = append(rows, shardRow{name: fmt.Sprintf("seed%d", seed), cell: sc, shards: []int{2, 4, 8}})
	}
	return rows
}

// fleetRows hold the aggregate path: one fleet object standing for many
// modeled senders per attachment host. The Result must report the
// modeled population, not the host count.
func fleetRows() []shardRow {
	population := func(hosts, attachments, modeled int) func(*testing.T, *shardRun) {
		return func(t *testing.T, ref *shardRun) {
			// Ordinary sender hosts + fleet attachments of their weight.
			if want := hosts - attachments + modeled; ref.res.Senders != want {
				t.Errorf("Senders = %d, want modeled population %d", ref.res.Senders, want)
			}
			if got := ref.res.Counters["fleet_attached_total"]; got != uint64(attachments) {
				t.Errorf("fleet_attached_total = %d, want %d", got, attachments)
			}
			if got := ref.res.Counters["fleet_modeled_senders_total"]; got != uint64(modeled) {
				t.Errorf("fleet_modeled_senders_total = %d, want %d", got, modeled)
			}
		}
	}
	// Hosts 5..11 attach 1,000 modeled senders each.
	workloads := []Workload{
		LongTCP{Senders: Range(0, 5)},
		FleetSpec{Count: 7000, Senders: Range(5, 12), Attacker: true, RateBps: 2_000},
	}
	var rows []shardRow
	for _, tc := range fleetTopologies {
		rows = append(rows, shardRow{name: tc.name, cell: fleetScenario(tc.spec, workloads, 1),
			shards: []int{2, 4, 8}, pre: population(20, 7, 7000)})
	}
	// The million-sender fleet cell's shape at CI size: 64 TCP users and
	// 256 attachment hosts standing for 64 modeled attackers each
	// (16,384) on a random AS graph of 16 source and 4 transit ASes, the
	// bottleneck at 1 kbps per modeled sender, so the fleet's 2 kbps each
	// congests it twice over.
	massive := Scenario{
		Name: "random-as-massive-smoke", Seed: 1,
		Topology: RandomASSpec{
			Senders: 320, BottleneckBps: 16_448_000,
			SrcASes: 16, TransitASes: 4, ExtraLinks: 2, ColluderASes: 9,
		},
		Defense: Defense("netfence"),
		Workloads: []Workload{
			LongTCP{Senders: Range(0, 64)},
			FleetSpec{Count: 16_384, Senders: Range(64, 320), RateBps: 2_000, Attacker: true},
		},
		Duration: 5 * Second, Warmup: 2 * Second,
	}
	return append(rows, shardRow{name: "random-as-massive-smoke", cell: massive,
		shards: []int{2, 4, 8}, pre: population(320, 256, 16_384)})
}

// keyringRow: an access router rotates its keyring only on the shard
// owning it, so the rotation count is the same at every shard count. The
// 40 s run outlasts the 32 s KeyRotate both for the routers armed at
// build and for those a deploy mutation arms at 5 s.
func keyringRow() shardRow {
	sc := equivScenario(kindSpec, []Workload{LongTCP{Senders: Range(0, 5)}}, 1)
	sc.Duration = 40 * Second
	sc.Deployment = DeployFraction(0.5)
	sc.Timeline = []Mutation{{At: 5 * Second, Deploy: &DeployMutation{Deployment: FullDeployment()}}}
	return shardRow{cell: sc, shards: []int{2, 4}, pre: func(t *testing.T, ref *shardRun) {
		if ref.rotations == 0 {
			t.Error("no keyring rotated in a run longer than KeyRotate")
		}
	}}
}

// symmetricChainsRow is the adversarial case for any ordering key built
// from scheduling history: eight source ASes whose saturated uplinks —
// the cut links — transmit back to back for the whole run, every
// completion phase-locked with the other seven, so the congested
// bottleneck sees eight simultaneous arrivals per packet time and their
// order decides who is dropped. Half the chains start ten packet times
// after the others (same phase, different history), and the late
// starters sit on both lower and higher shards than the early ones.
func symmetricChainsRow() shardRow {
	const pktTime = 12 * Millisecond // 1500 B at the 1 Mbps edge
	var early, late []int
	for as := 0; as < 8; as++ {
		hosts := []int{2 * as, 2*as + 1}
		if as%3 == 0 {
			late = append(late, hosts...)
		} else {
			early = append(early, hosts...)
		}
	}
	return shardRow{cell: Scenario{
		Name: "symmetric-chains", Seed: 1,
		Topology: DumbbellSpec{Senders: 16, SrcASes: 8, BottleneckBps: 4_000_000, EdgeBps: 1_000_000},
		Defense:  Defense("none"),
		Workloads: []Workload{
			AttackSpec{Senders: early, RateBps: 800_000},
			AttackSpec{Senders: late, RateBps: 800_000},
		},
		Timeline: []Mutation{
			{At: Millisecond, Attack: &AttackMutation{Workload: 1, Action: AttackStop}},
			{At: 10 * pktTime, Attack: &AttackMutation{Workload: 1, Action: AttackStart}},
		},
		Duration: 3 * Second, Warmup: Second,
	}, shards: []int{2, 4, 8}}
}

// timelineRow is the control plane's cell: timelineScenario's every
// mutation kind, with a timeseries.
func timelineRow() shardRow {
	return shardRow{cell: timelineScenario(1), shards: []int{2, 4, 8}, pre: func(t *testing.T, ref *shardRun) {
		if !strings.Contains(ref.result, `"Series":[{`) {
			t.Errorf("timeline reference collected no timeseries: %s", ref.result)
		}
	}}
}

// goldenTimelineScenario mixes every control-plane mutation kind with
// mid-run flows, a fanned-out fleet, sampled tracing and a timeseries on
// kindSpec's dumbbell. It runs on one shard only, for its golden pin.
func goldenTimelineScenario() Scenario {
	sc := equivScenario(kindSpec, []Workload{
		LongTCP{Senders: Range(0, 4)},
		FileTransfers{Senders: Range(4, 8)},
		AttackSpec{Senders: Range(8, 14), RateBps: 1_000_000},
		FleetSpec{Senders: Range(14, 17), Count: 3, Attacker: true},
		ColluderPairs{Senders: Range(17, 20), RateBps: 1_000_000},
	}, 1)
	sc.Timeline = []Mutation{
		{At: 6 * Second, Link: &LinkMutation{RateBps: 2_000_000}},
		{At: 9 * Second, Attack: &AttackMutation{Workload: 0, Action: AttackStop}},
		{At: 13 * Second, Attack: &AttackMutation{Workload: 0, Action: AttackStart}},
		{At: 15 * Second, Attack: &AttackMutation{Workload: 0, Action: AttackSetRate, RateBps: 500_000}},
		{At: 16 * Second, Deploy: &DeployMutation{Deployment: DeployFraction(0.5)}},
		{At: 22 * Second, Link: &LinkMutation{Restore: true}},
		{At: 25 * Second, Deploy: &DeployMutation{Deployment: FullDeployment()}},
	}
	sc.TraceFlows = 4
	sc.Probes = []Probe{GoodputProbe{}, FairnessProbe{}, FCTProbe{}, BoundProbe{}, TimeseriesProbe{Interval: 2 * Second}}
	return sc
}

// conservationRows run a short dumbbell past its bottleneck's capacity
// under every registered defense: legitimate TCP, colluding floods and a
// request flood, so every discipline both refuses arrivals and evicts
// what it holds. A discipline that drops a packet past its link's
// Dropper makes runCell's sums disagree.
func conservationRows() []shardRow {
	var rows []shardRow
	for _, def := range Defenses() {
		rows = append(rows, shardRow{name: def, cell: Scenario{
			Name:     "conservation",
			Seed:     1,
			Topology: DumbbellSpec{Senders: 8, BottleneckBps: 800_000, ColluderASes: 2},
			Defense:  Defense(def),
			Workloads: []Workload{
				LongTCP{Senders: Range(0, 2)},
				ColluderPairs{Senders: Range(2, 6)},
				RequestFlood{Senders: Range(6, 8)},
			},
			Duration: 10 * Second,
		}, shards: []int{2}, pre: func(t *testing.T, ref *shardRun) {
			if ref.drops == 0 {
				t.Error("no queue dropped a packet; the cell does not congest")
			}
		}})
	}
	return rows
}
