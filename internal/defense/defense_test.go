// External test package: defense itself cannot import the systems that
// implement it (they import defense), but an external test package can,
// so the registry and the Policy.Deny contract are verified here against
// the real shims.
package defense_test

import (
	"testing"

	"netfence/internal/baseline"
	"netfence/internal/core"
	"netfence/internal/defense"
	"netfence/internal/netsim"
	"netfence/internal/packet"
	"netfence/internal/sim"
	"netfence/internal/topo"
	"netfence/internal/transport"
)

func TestCanonical(t *testing.T) {
	cases := map[string]string{
		"netfence": "netfence",
		"NetFence": "netfence",
		"TVA+":     "tva",
		" tva ":    "tva",
		"StopIt":   "stopit",
		"FQ":       "fq",
		"None":     "none",
	}
	for in, want := range cases {
		if got := defense.Canonical(in); got != want {
			t.Fatalf("Canonical(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestRegistryResolvesAllSystems verifies that NetFence and all four
// baselines registered themselves and construct working System values.
func TestRegistryResolvesAllSystems(t *testing.T) {
	names := defense.Names()
	want := map[string]string{
		"netfence": "NetFence",
		"tva":      "TVA+",
		"stopit":   "StopIt",
		"fq":       "FQ",
		"none":     "None",
	}
	for _, name := range names {
		if _, ok := want[name]; ok {
			delete(want, name)
		}
	}
	for missing := range want {
		t.Fatalf("registry missing %q (have %v)", missing, names)
	}
	for _, name := range []string{"netfence", "tva", "stopit", "fq", "none"} {
		net := netsim.New(sim.New(1))
		s, err := defense.Build(name, net, defense.BuildOptions{})
		if err != nil {
			t.Fatalf("Build(%q): %v", name, err)
		}
		if s.Name() == "" {
			t.Fatalf("Build(%q): empty display name", name)
		}
	}
}

func TestRegistryErrors(t *testing.T) {
	net := netsim.New(sim.New(1))
	if _, err := defense.Build("bogus", net, defense.BuildOptions{}); err == nil {
		t.Fatal("unknown system resolved")
	}
	// Baselines take no configuration.
	if _, err := defense.Build("fq", net, defense.BuildOptions{Config: core.DefaultConfig()}); err == nil {
		t.Fatal("fq accepted a NetFence config")
	}
	// NetFence rejects configs of the wrong type.
	if _, err := defense.Build("netfence", net, defense.BuildOptions{Config: 42}); err == nil {
		t.Fatal("netfence accepted an int config")
	}
	// NetFence accepts its own config type.
	cfg := core.DefaultConfig()
	if _, err := defense.Build("netfence", net, defense.BuildOptions{Config: cfg}); err != nil {
		t.Fatalf("netfence rejected core.Config: %v", err)
	}
	// Duplicate registration is a programmer error.
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	defense.Register("netfence", func(*netsim.Network, defense.BuildOptions) (defense.System, error) {
		return nil, nil
	})
}

// deploy installs s on the whole dumbbell, giving the victim deny.
func deploy(d *topo.Graph, s defense.System, deny defense.Policy) {
	for _, l := range d.Bottlenecks() {
		s.ProtectLink(l)
	}
	all := func(packet.ASID) bool { return true }
	d.Roles(all, s.ProtectAccess, func(h *netsim.Node, victim bool) {
		pol := defense.Policy{}
		if victim {
			pol = deny
		}
		s.AttachHost(h, pol)
	})
}

// denyRun deploys a system over a 2-sender dumbbell whose victim denies
// sender 1, floods UDP from both senders at the victim, and returns the
// delivered byte counts for the allowed and denied sender.
func denyRun(t *testing.T, build func(net *netsim.Network) defense.System) (allowed, denied int64) {
	t.Helper()
	eng := sim.New(1)
	d := topo.NewDumbbell(eng, topo.DefaultDumbbell(2, 1_000_000))
	grp := d.Groups()[0]
	s := build(d.Net)
	badSrc := grp.Senders[1].ID
	deploy(d, s, defense.Policy{Deny: func(src packet.NodeID) bool { return src == badSrc }})

	sinkA := transport.NewUDPSink(grp.Victim.Host, 1)
	sinkD := transport.NewUDPSink(grp.Victim.Host, 2)
	transport.NewUDPSource(grp.Senders[0].Host, grp.Victim.ID, 1, 200_000, 1500).Start()
	transport.NewUDPSource(grp.Senders[1].Host, grp.Victim.ID, 2, 200_000, 1500).Start()
	eng.RunUntil(10 * sim.Second)
	return sinkA.Bytes, sinkD.Bytes
}

// TestPolicyDenyAtNetFenceShim verifies the §3.3 receiver contract at the
// NetFence host shim: traffic from a denied source is dropped before any
// feedback is recorded, so the denied sender never regains valid
// feedback, while the allowed sender's traffic and feedback flow.
func TestPolicyDenyAtNetFenceShim(t *testing.T) {
	eng := sim.New(1)
	d := topo.NewDumbbell(eng, topo.DefaultDumbbell(2, 1_000_000))
	grp := d.Groups()[0]
	s := core.NewSystem(d.Net, core.DefaultConfig())
	badSrc := grp.Senders[1].ID
	deploy(d, s, defense.Policy{Deny: func(src packet.NodeID) bool { return src == badSrc }})

	sinkA := transport.NewUDPSink(grp.Victim.Host, 1)
	sinkD := transport.NewUDPSink(grp.Victim.Host, 2)
	transport.NewUDPSource(grp.Senders[0].Host, grp.Victim.ID, 1, 200_000, 1500).Start()
	transport.NewUDPSource(grp.Senders[1].Host, grp.Victim.ID, 2, 200_000, 1500).Start()
	eng.RunUntil(10 * sim.Second)

	if sinkA.Bytes == 0 {
		t.Fatal("allowed sender delivered nothing")
	}
	if sinkD.Bytes != 0 {
		t.Fatalf("denied sender delivered %d bytes past the shim", sinkD.Bytes)
	}
	// Feedback-as-capability: the allowed sender holds presented
	// feedback for the victim; the denied sender must not.
	if _, ok := core.Shim(grp.Senders[0]).Presented(grp.Victim.ID); !ok {
		t.Fatal("allowed sender never received feedback")
	}
	if _, ok := core.Shim(grp.Senders[1]).Presented(grp.Victim.ID); ok {
		t.Fatal("denied sender obtained feedback despite the deny policy")
	}
}

// TestPolicyDenyAtBaselineShims verifies the receiver-side deny shim of
// every baseline: the denied sender's traffic never reaches the victim's
// transport, the allowed sender's does.
func TestPolicyDenyAtBaselineShims(t *testing.T) {
	builds := map[string]func(net *netsim.Network) defense.System{
		"none":   func(*netsim.Network) defense.System { return baseline.NewNone() },
		"fq":     func(*netsim.Network) defense.System { return baseline.NewFQ() },
		"tva":    func(*netsim.Network) defense.System { return baseline.NewTVA() },
		"stopit": func(net *netsim.Network) defense.System { return baseline.NewStopIt(net) },
	}
	for name, build := range builds {
		allowed, denied := denyRun(t, build)
		if allowed == 0 {
			t.Fatalf("%s: allowed sender delivered nothing", name)
		}
		if denied != 0 {
			t.Fatalf("%s: denied sender delivered %d bytes past the shim", name, denied)
		}
	}
}

// TestNilDenyAcceptsEveryone pins the documented Policy zero value: a
// nil Deny accepts all traffic.
func TestNilDenyAcceptsEveryone(t *testing.T) {
	eng := sim.New(1)
	d := topo.NewDumbbell(eng, topo.DefaultDumbbell(2, 1_000_000))
	grp := d.Groups()[0]
	deploy(d, baseline.NewNone(), defense.Policy{})
	sink := transport.NewUDPSink(grp.Victim.Host, 1)
	transport.NewUDPSource(grp.Senders[0].Host, grp.Victim.ID, 1, 200_000, 1500).Start()
	eng.RunUntil(5 * sim.Second)
	if sink.Bytes == 0 {
		t.Fatal("nil Deny dropped traffic")
	}
}
