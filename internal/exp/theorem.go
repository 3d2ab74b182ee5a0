package exp

import (
	"fmt"
	"math"

	"netfence"
)

// Theorem empirically checks the §3.4/Appendix A fair-share guarantee.
// What Appendix A proves is a bound on the rate LIMIT: for any sender
// with sufficient demand, its access-router rate limit r_a satisfies
// r_a >= rho*C/(G+B) with rho = (1-delta)^3, in every steady-state
// control interval, regardless of the attack strategy; the sender's
// throughput is then nu * r_a where nu is its transport's efficiency.
// Each row pits users against a different adversarial strategy and
// compares every user's end-of-run rate limit against the bound; the
// realized minimum throughput and implied nu are reported alongside.
func Theorem(sc Scale) Result {
	cfg := netfence.DefaultConfig()
	rho := math.Pow(1-cfg.MD, 3)
	res := Result{
		Name:  "§3.4 theorem",
		Title: "fair-share lower bound rho*C/(G+B) on rate limits, rho=" + fmt.Sprintf("%.3f", rho),
		Columns: []string{"attack strategy", "fair kbps", "bound kbps",
			"min rate-limit kbps", "min user kbps", "implied nu", "holds"},
	}
	strategies := []struct {
		name string
		ton  netfence.Time
		toff netfence.Time
	}{
		{"constant 1 Mbps flood", 0, 0},
		{"on-off 0.5s/1.5s synchronized", 500 * netfence.Millisecond, 1500 * netfence.Millisecond},
		{"on-off 2s/2s (control-interval aligned)", 2 * netfence.Second, 2 * netfence.Second},
	}
	for _, st := range strategies {
		out := theoremCell(sc, st.ton, st.toff)
		bound := rho * out.fair
		nu := 0.0
		if out.meanLimit > 0 {
			nu = out.meanUser / out.meanLimit
		}
		res.AddRow(st.name,
			fmt.Sprintf("%.0f", out.fair/1000),
			fmt.Sprintf("%.0f", bound/1000),
			fmt.Sprintf("%.0f", out.minGreedyLimit/1000),
			fmt.Sprintf("%.0f", out.minUser/1000),
			fmt.Sprintf("%.2f", nu),
			fmt.Sprintf("%v", out.minGreedyLimit >= bound*0.95), // 5% sampling slack
		)
	}
	res.Note("the bound applies to senders with sufficient demand (Appendix A); greedy constant senders always qualify, so their limits carry the check")
	res.Note("TCP users in deep RTO backoff transiently lack sufficient demand, so their limits (and nu) can sit lower at small scales")
	return res
}

type theoremOut struct {
	fair float64
	// minGreedyLimit is the smallest rate limit across senders with
	// provably sufficient demand (the greedy constant senders).
	minGreedyLimit float64
	// meanLimit and user stats describe the TCP users.
	meanLimit         float64
	minUser, meanUser float64
}

func theoremCell(sc Scale, ton, toff netfence.Time) theoremOut {
	const label = 100_000
	legit, attackers := fig9Roles(sc.Senders)
	// The first two legitimate senders are greedy constant-rate probes:
	// senders with provably sufficient demand in every control interval,
	// whose rate limits carry the Appendix A bound check. The rest run
	// long TCP for the throughput/nu columns.
	nProbes := min(2, len(legit)-1)
	probes, users := legit[:nProbes], legit[nProbes:]
	var flood netfence.Workload = netfence.ColluderPairs{Senders: attackers}
	if ton > 0 {
		flood = netfence.OnOffFlood{Senders: attackers, On: ton, Off: toff, ToColluders: true}
	}
	in := sc.build(netfence.Scenario{
		Topology:  collusionDumbbell(sc, label),
		Workloads: []netfence.Workload{netfence.UDPFlood{Senders: probes}, netfence.LongTCP{Senders: users}, flood},
	})
	r := in.Run()

	out := theoremOut{fair: float64(sc.BottleneckBps(label)) / float64(sc.Senders), meanUser: r.UserBps}
	out.minUser = math.Inf(1)
	for _, rate := range r.UserRates {
		out.minUser = math.Min(out.minUser, rate)
	}
	// Rate limits: users for the nu estimate, greedy probes for the bound
	// check.
	s, d := in.System.(*netfence.System), in.Dumbbell
	limitOf := func(sender int) (float64, bool) {
		for _, ra := range d.SrcAccess {
			if ar := s.Access(ra); ar != nil {
				if lim := ar.Limiter(d.Senders[sender].ID, d.Bottleneck.ID); lim != nil {
					return float64(lim.Rate()), true
				}
			}
		}
		return 0, false
	}
	var sum float64
	n := 0
	for _, h := range users {
		if v, ok := limitOf(h); ok {
			sum += v
			n++
		}
	}
	if n > 0 {
		out.meanLimit = sum / float64(n)
	}
	out.minGreedyLimit = math.Inf(1)
	found := false
	for _, h := range probes {
		if v, ok := limitOf(h); ok {
			out.minGreedyLimit = math.Min(out.minGreedyLimit, v)
			found = true
		}
	}
	if !found {
		out.minGreedyLimit = 0
	}
	return out
}
