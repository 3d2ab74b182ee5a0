package netfence

import (
	"encoding/json"
	"errors"
	"slices"
	"sort"
	"testing"
)

// degradeScenario is an 8-sender dumbbell of long TCP flows whose 2 Mbps
// bottleneck the control tests degrade mid-run.
func degradeScenario() Scenario {
	return Scenario{
		Name:      "degrade",
		Seed:      1,
		Topology:  DumbbellSpec{Senders: 8, BottleneckBps: 2_000_000},
		Workloads: []Workload{LongTCP{Senders: Range(0, 8)}},
		Duration:  10 * Second,
		Warmup:    2 * Second,
	}
}

// finishJSON finishes a built instance and returns its Result JSON.
func finishJSON(t *testing.T, in *Instance) string {
	t.Helper()
	raw, err := json.Marshal(in.Finish())
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestApplyFutureMutationWaitsForItsInstant delivers a link degradation
// dated 6 s before the run starts: Apply must schedule it rather than
// apply it at once, so the run equals the same mutation scripted.
func TestApplyFutureMutationWaitsForItsInstant(t *testing.T) {
	degrade := Mutation{At: 6 * Second, Link: &LinkMutation{RateBps: 500_000}}
	scripted := degradeScenario()
	scripted.Timeline = []Mutation{degrade}
	want := resultJSON(t, scripted)

	in, err := degradeScenario().Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Apply(degrade); err != nil {
		t.Fatal(err)
	}
	if rate := in.env.graph.Bottlenecks()[0].Rate; rate != 2_000_000 {
		t.Fatalf("at t=0 the bottleneck runs at %d bps, want the 6 s mutation still pending", rate)
	}
	diffJSON(t, "future-dated", want, finishJSON(t, in), 1)
}

// TestLiveDeployOnAggregateFleetRefused holds the live control path to
// the scripted one on fleets: a deploy mutation is refused on a
// FleetSpec attached in aggregate, with the reason a scripted timeline
// gets, and with Exact set the live run reproduces the scripted one.
func TestLiveDeployOnAggregateFleetRefused(t *testing.T) {
	deploy := Mutation{At: 8 * Second, Deploy: &DeployMutation{Deployment: DeployFraction(0.5)}}
	spec := fleetTopologies[0].spec
	fleet := func(count int, exact bool) []Workload {
		return []Workload{
			LongTCP{Senders: Range(0, 5)},
			FleetSpec{Count: count, Senders: Range(5, 12), Attacker: true, Exact: exact},
		}
	}

	scripted := fleetScenario(spec, fleet(700, false), 1)
	scripted.Timeline = []Mutation{deploy}
	if _, err := scripted.Build(); !errors.Is(err, errFleetDeploy) {
		t.Fatalf("scripted: Build error = %v, want %v", err, errFleetDeploy)
	}
	in, err := fleetScenario(spec, fleet(700, false), 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	in.Advance(deploy.At)
	if err := in.Apply(deploy); !errors.Is(err, errFleetDeploy) {
		t.Fatalf("live: Apply error = %v, want %v", err, errFleetDeploy)
	}
	in.Stop()

	for _, shards := range []int{1, 2} {
		scripted := fleetScenario(spec, fleet(7, true), shards)
		scripted.Timeline = []Mutation{deploy}
		want := resultJSON(t, scripted)
		in, err := fleetScenario(spec, fleet(7, true), shards).Build()
		if err != nil {
			t.Fatal(err)
		}
		in.Advance(deploy.At)
		if err := in.Apply(deploy); err != nil {
			t.Fatalf("shards=%d: live deploy on an exact fleet: %v", shards, err)
		}
		diffJSON(t, "exact-fleet-live-deploy", want, finishJSON(t, in), shards)
	}
}

// controlFuzzScenario is FuzzControlPath's tiny dumbbell: two TCP users,
// two flood senders under one AttackSpec, half the source ASes legacy,
// 4 s with a timeseries so mid-run differences show in the Result.
func controlFuzzScenario() Scenario {
	return Scenario{
		Name:       "control-fuzz",
		Seed:       3,
		Topology:   DumbbellSpec{Senders: 4, BottleneckBps: 1_000_000, ColluderASes: 1},
		Deployment: DeployFraction(0.5),
		Workloads: []Workload{
			LongTCP{Senders: Range(0, 2)},
			AttackSpec{Senders: Range(2, 4), RateBps: 500_000},
		},
		Probes:   []Probe{GoodputProbe{}, FairnessProbe{}, TimeseriesProbe{Interval: Second / 2}},
		Duration: 4 * Second,
		Warmup:   Second,
	}
}

// controlOp encodes one mutation of a FuzzControlPath program: at in
// tenths of a second (1–44, so past the 4 s run too), kind 0 link, 1
// attack or 2 deploy, early to deliver it live ahead of its instant, and
// the kind's two parameter bytes (see decodeControl).
func controlOp(at int, kind byte, early bool, p, q byte) []byte {
	if early {
		kind |= 0x80
	}
	return []byte{byte(at - 1), kind, p, q}
}

// decodeControl turns fuzz bytes into a program of at most eight
// mutations, four bytes each, and marks the ones delivered early. Every
// field ranges over valid and invalid values alike: no-effect link
// mutations, the missing second bottleneck and AttackSpec, instants
// past the run.
func decodeControl(data []byte) (ms []Mutation, early []bool) {
	for len(data) >= 4 && len(ms) < 8 {
		b, p, q := data[:4], data[2], data[3]
		data = data[4:]
		m := Mutation{At: Time(b[0]%44+1) * Second / 10}
		switch b[1] & 0x7f % 3 {
		case 0:
			m.Link = &LinkMutation{Bottleneck: int(q >> 7), RateBps: int64(p%5) * 250_000,
				Delay: Time(q%4) * 5 * Millisecond, Restore: p&0x80 != 0}
		case 1:
			actions := []AttackAction{AttackStop, AttackStart, AttackSetRate}
			m.Attack = &AttackMutation{Workload: int(q >> 7), Action: actions[p%3], RateBps: int64(q%4) * 250_000}
		default:
			m.Deploy = &DeployMutation{Deployment: DeployFraction(float64(p%6) / 4)}
			if p%6 == 5 {
				m.Deploy.Deployment = FullDeployment()
			}
		}
		ms = append(ms, m)
		early = append(early, b[1]&0x80 != 0)
	}
	return ms, early
}

// liveControl runs sc with the program delivered live: the mutations of
// one instant go in one Apply, in program order, after Advance to that
// instant or — when the instant's first mutation is marked early — to
// half of it, so the instance schedules them.
func liveControl(sc Scenario, ms []Mutation, early []bool) (string, error) {
	in, err := sc.Build()
	if err != nil {
		return "", err
	}
	defer in.Stop()
	type delivery struct {
		at Time
		ms []Mutation
	}
	var ds []delivery
	for i, m := range ms {
		j := slices.IndexFunc(ds, func(d delivery) bool { return d.ms[0].At == m.At })
		if j < 0 {
			at := m.At
			if early[i] {
				at /= 2
			}
			j = len(ds)
			ds = append(ds, delivery{at: at})
		}
		ds[j].ms = append(ds[j].ms, m)
	}
	sort.SliceStable(ds, func(a, b int) bool { return ds[a].at < ds[b].at })
	for _, d := range ds {
		in.Advance(d.at)
		if err := in.Apply(d.ms...); err != nil {
			return "", err
		}
	}
	raw, err := json.Marshal(in.Finish())
	return string(raw), err
}

// FuzzControlPath holds the two deliveries of a control program to each
// other: scripted in Timeline, and live through Advance and Apply with
// some mutations dated ahead. Both must accept or refuse the program
// alike, and an accepted program must give byte-identical Result JSON.
// The seeds are the timeline tests' programs at this scenario's scale.
func FuzzControlPath(f *testing.F) {
	// timelineScenario's program: every kind, fresh-arm, disarm, re-arm.
	every := func(early bool) []byte {
		return slices.Concat(
			controlOp(12, 0, early, 2, 0), controlOp(14, 1, early, 0, 0),
			controlOp(16, 2, early, 5, 0), controlOp(18, 1, early, 1, 0),
			controlOp(20, 2, early, 2, 0), controlOp(22, 1, early, 2, 2),
			controlOp(24, 0, early, 0x80, 0), controlOp(26, 2, early, 5, 0))
	}
	f.Add(every(false))
	f.Add(every(true))
	// TestAdvanceAppliesScriptedTimeline's: two mutations share an
	// instant, one sits at exactly Duration.
	f.Add(slices.Concat(controlOp(13, 0, true, 4, 0), controlOp(40, 0, false, 0x80, 0), controlOp(13, 1, false, 0, 0)))
	// TestTimelineValidation's refusals: past the run, no effect, the
	// missing bottleneck and workload.
	f.Add(controlOp(44, 0, false, 1, 0))
	f.Add(slices.Concat(controlOp(10, 2, true, 3, 0), controlOp(20, 0, false, 0, 0)))
	f.Add(slices.Concat(controlOp(10, 0, false, 1, 0x80), controlOp(30, 1, true, 0, 0x80)))
	f.Fuzz(func(t *testing.T, data []byte) {
		ms, early := decodeControl(data)
		scripted := controlFuzzScenario()
		scripted.Timeline = ms
		var want string
		res, errScripted := scripted.Run()
		if errScripted == nil {
			raw, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			want = string(raw)
		}
		got, errLive := liveControl(controlFuzzScenario(), ms, early)
		if (errScripted == nil) != (errLive == nil) {
			t.Fatalf("scripted error %v, live error %v", errScripted, errLive)
		}
		if errScripted == nil {
			diffJSON(t, "control-path", want, got, 1)
		}
	})
}

// TestUtilizationFollowsLinkMutations degrades the 2 Mbps bottleneck to
// 0.5 Mbps halfway through the 2–10 s window: Utilization must divide
// the window's transmitted bits by the capacity integrated over it
// (2 Mbps × 4 s + 0.5 Mbps × 4 s), not by the rate at finish.
func TestUtilizationFollowsLinkMutations(t *testing.T) {
	sc := degradeScenario()
	sc.Timeline = []Mutation{{At: 6 * Second, Link: &LinkMutation{RateBps: 500_000}}}
	in, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := in.Run()
	bits := float64(in.env.graph.Bottlenecks()[0].TxBytes-in.env.txWarmMarks[0]) * 8
	if want := bits / (2_000_000*4 + 500_000*4); res.Utilization != want || want > 1 {
		t.Fatalf("Utilization = %v, want %v of the integrated capacity", res.Utilization, want)
	}
}
