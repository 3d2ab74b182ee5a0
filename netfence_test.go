package netfence_test

import (
	"strings"
	"testing"

	"netfence"
	"netfence/internal/exp"
)

// TestFacadeEndToEnd drives the quickstart run through a built Instance
// rather than Scenario.Run: the exported Graph and System fields are
// the defense's live state, and the monitoring cycle must be open at the
// 60 s mark before the post-warmup fair-share outcome is checked.
func TestFacadeEndToEnd(t *testing.T) {
	in, err := quickstartScenario().Build()
	if err != nil {
		t.Fatal(err)
	}
	if in.Graph == nil || len(in.Graph.Groups()) != 1 || len(in.Graph.Bottlenecks()) != 1 {
		t.Fatalf("built dumbbell graph = %+v", in.Graph)
	}
	if grp := in.Graph.Groups()[0]; len(grp.Senders) != 2 || len(grp.Colluders) != 1 {
		t.Fatalf("built dumbbell group = %+v", grp)
	}
	sys, ok := in.System.(*netfence.System)
	if !ok {
		t.Fatalf("Instance.System is %T, want *netfence.System", in.System)
	}
	in.Advance(60 * netfence.Second)
	if !sys.Bottleneck(in.Graph.Bottlenecks()[0]).Monitoring() {
		t.Fatal("monitoring cycle not started")
	}
	res := in.Run()
	if res.UserBps < 80_000 {
		t.Fatalf("legit throughput %.0f bps", res.UserBps)
	}
	if res.AttackerBps > 300_000 {
		t.Fatalf("attacker throughput %.0f bps above fair share band", res.AttackerBps)
	}
}

// TestFacadeExperimentRegistry resolves experiments the way the CLI's
// -exp flag does: by runner and scale name, with bogus names of either
// rejected, and a resolved runner printing its table.
func TestFacadeExperimentRegistry(t *testing.T) {
	for _, name := range []string{"fig7", "fig8", "fig9a", "fig9b", "fig10",
		"fig11", "fig13", "fig14", "theorem", "localize", "header",
		"ablate-hysteresis", "ablate-initrate", "ablate-bucket", "quota"} {
		if r, err := exp.RunnerByName(name); err != nil || r.Brief == "" {
			t.Fatalf("experiment %q missing from registry", name)
		}
	}
	if _, err := exp.RunnerByName("nope"); err == nil {
		t.Fatal("bogus experiment accepted")
	}
	if _, err := exp.ScaleByName("bogus"); err == nil {
		t.Fatal("bogus scale accepted")
	}
	r, err := exp.RunnerByName("header")
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run(exp.Tiny)
	if out := res.Table(); !strings.Contains(out, "28") {
		t.Fatalf("header experiment output missing worst-case size:\n%s", out)
	}
}
