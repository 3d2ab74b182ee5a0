package core

import (
	"strconv"

	"netfence/internal/cmac"
	"netfence/internal/feedback"
	"netfence/internal/netsim"
	"netfence/internal/obs"
	"netfence/internal/packet"
	"netfence/internal/ratelimit"
	"netfence/internal/sim"
)

// AccessRouter is NetFence's policing function at the trust boundary
// between the network and end systems. It validates presented congestion
// policing feedback, polices request packets with per-sender priority
// token buckets (§4.2), polices regular packets with per-(sender,
// bottleneck) leaky-bucket rate limiters adjusted by the robust AIMD
// algorithm (§4.3.3-§4.3.4), and restamps feedback on forwarding.
type AccessRouter struct {
	sys  *System
	node *netsim.Node
	ring *feedback.KeyRing

	reqLims map[packet.NodeID]*ratelimit.RequestLimiter
	regLims map[regKey]*regLimiter

	// pathASCache memoizes the AS-level path per destination for
	// Passport stamping.
	pathASCache map[packet.NodeID][]packet.ASID

	// destLinks is the Appendix B.2 inference cache: bottleneck links
	// observed on the path toward each destination.
	destLinks map[packet.NodeID][]packet.LinkID

	// org keys the key-rotation ticker.
	org sim.Origin

	// Counters for tests and metrics.
	ReqAdmitted, ReqDropped   uint64
	Demoted                   uint64
	LimiterDrops, LimiterPass uint64
	QuotaDrops                uint64
}

type regKey struct {
	src  packet.NodeID
	link packet.LinkID
}

// regLimiter is one (sender, bottleneck link) rate limiter with its AIMD
// state (Figure 17), including the starred flags of the Appendix B.2
// inference variant.
type regLimiter struct {
	ar  *AccessRouter
	key regKey
	// org keys the limiter's timers: the control-interval ticker and the
	// leaky queue's departures.
	org sim.Origin
	// pol is the policing strategy: the paper's leaky-bucket queue, or
	// the token-bucket variant when Config.TokenBucketLimiter is set
	// (the ablation of the §4.3.3 design choice).
	pol  ratelimit.Policer
	aimd ratelimit.AIMD

	ts       uint32 // control interval start, whole seconds
	hasIncr  bool
	lastDecr sim.Time
	created  sim.Time
	ticker   *sim.Ticker

	// Appendix B.2 state.
	hasIncrStar  bool
	isActive     bool
	isActiveStar bool

	// Congestion-quota state (§7): bytes forwarded during intervals that
	// followed a multiplicative decrease count against the quota.
	// quotaBytes is the per-limiter allowance — Cfg.CongestionQuotaBytes
	// scaled by the sender's fleet weight at creation.
	lastAdjustMD bool
	quotaBytes   int64
	quotaUsed    int64
	quotaStart   sim.Time
}

// senderWeight returns how many modeled senders stand behind src — the
// closed-form aggregation factor for per-sender limiter state. Weight-1
// senders (every pre-fleet scenario) scale every parameter by one, so
// aggregate-free runs are bit-for-bit unchanged.
func (ar *AccessRouter) senderWeight(src packet.NodeID) int64 {
	return int64(ar.node.Network().Node(src).SenderWeight())
}

// ProtectAccess installs NetFence's access functions on r, policing
// packets that arrive from r's directly attached hosts.
func (s *System) ProtectAccess(r *netsim.Node) {
	ar := &AccessRouter{
		sys:         s,
		node:        r,
		ring:        feedback.NewKeyRing(r.Network().Eng.Rand),
		reqLims:     make(map[packet.NodeID]*ratelimit.RequestLimiter),
		regLims:     make(map[regKey]*regLimiter),
		pathASCache: make(map[packet.NodeID][]packet.ASID),
		destLinks:   make(map[packet.NodeID][]packet.LinkID),
		org:         r.NewOrigin(),
	}
	// In sharded runs the rotated key bytes come from a per-router
	// stream identical on every shard replica, so stamping and
	// validation agree across shards; nil (single-engine) keeps the
	// historical draw-from-engine behavior byte for byte.
	ar.ring.Material = r.Network().Eng.KeyStream(uint64(r.ID))
	ar.org.Tick(s.Cfg.KeyRotate, func() {
		ar.ring.Rotate(r.Network().Eng.Rand)
		// Runtime plane: rotation timers are replicated on every shard,
		// so the count scales with the shard layout by design.
		r.Network().Cells.Add(obs.CoreKeyringRotations, 1)
	})
	r.Ingress = ar.ingress
	s.accesses[r.ID] = ar
}

// Access returns the access router installed on node r, or nil.
func (s *System) Access(r *netsim.Node) *AccessRouter { return s.accesses[r.ID] }

// Limiter returns the (src, link) rate limiter, or nil.
func (ar *AccessRouter) Limiter(src packet.NodeID, link packet.LinkID) ratelimit.Policer {
	if lim, ok := ar.regLims[regKey{src, link}]; ok {
		return lim.pol
	}
	return nil
}

// LimiterCount returns the number of live (sender, bottleneck) limiters —
// the access-router state the scalability analysis of §5.1 bounds.
func (ar *AccessRouter) LimiterCount() int { return len(ar.regLims) }

// ingress intercepts arrivals at the access router; only packets from
// directly attached hosts of this AS are policed.
func (ar *AccessRouter) ingress(p *packet.Packet, from *netsim.Link) bool {
	if from == nil || !from.From.IsHost || from.From.AS != ar.node.AS {
		return true
	}
	return ar.police(p)
}

// trace records one policing hop for a sampled flow.
func (ar *AccessRouter) trace(p *packet.Packet, kind, detail string) {
	net := ar.node.Network()
	if net.Rec.Sampled(uint32(p.Flow)) {
		net.Rec.Record(int64(net.Eng.Now()), uint32(p.Flow), ar.node.String(), kind, detail)
	}
}

// traced reports whether p's flow is sampled by the flight recorder —
// the gate hot paths check before building a trace detail string, so
// untraced runs never pay the formatting allocation.
func (ar *AccessRouter) traced(p *packet.Packet) bool {
	return ar.node.Network().Rec.Sampled(uint32(p.Flow))
}

// police implements router.rate_limit_packet of Figure 18.
func (ar *AccessRouter) police(p *packet.Packet) bool {
	if p.Kind == packet.KindLegacy {
		return true
	}
	if p.Kind == packet.KindRequest {
		return ar.handleRequest(p)
	}
	if ar.sys.Cfg.MultiFeedback {
		return ar.policeMulti(p)
	}
	cells := ar.node.Network().Cells
	nowSec := ar.node.Network().NowSec()
	switch ar.validate(p, nowSec) {
	case feedback.ValidNop:
		feedback.StampNop(ar.ring.Current(), p, nowSec)
		cells.Add(obs.CoreStampNop, 1)
		ar.trace(p, obs.HopPolice, "nop")
		ar.stampPassport(p)
		return true
	case feedback.ValidMon:
		ar.trace(p, obs.HopPolice, "mon")
		link := p.FB.Link
		if ar.sys.Cfg.InferLimiters {
			return ar.policeInferred(p, link)
		}
		lim := ar.limiter(p.Src, link)
		lim.updateStatus(p.FB.Action, p.FB.TS)
		return ar.submit(lim, p)
	default:
		// Invalid feedback: treat as a request packet (§4.4).
		ar.Demoted++
		cells.Add(obs.CorePoliceDemoted, 1)
		ar.trace(p, obs.HopDemote, "invalid-feedback->request")
		p.Kind = packet.KindRequest
		p.Prio = 0
		return ar.handleRequest(p)
	}
}

// validate resolves the packet's feedback verdict: a verdict
// precomputed by the sharded validation pipeline is consumed when its
// binding (this router, the current key epoch) still holds; everything
// else validates inline. The epoch check makes a stale cache — one
// computed under a key the ring has since rotated past — harmless
// rather than wrong.
func (ar *AccessRouter) validate(p *packet.Packet, nowSec uint32) feedback.Verdict {
	if p.FVSet {
		hit := p.FVNode == ar.node.ID && p.FVEpoch == uint32(ar.ring.Epoch())
		p.FVSet = false
		if hit {
			ar.node.Network().Cells.Add(obs.PipelinePrecomputeHits, 1)
			return feedback.Verdict(p.FVVerdict)
		}
	}
	return feedback.Validate(ar.ring, ar.kaiLookup, p, nowSec, ar.sys.Cfg.WSec)
}

// handleRequest polices a request packet (Figure 15) and stamps nop
// feedback on success (§4.2).
func (ar *AccessRouter) handleRequest(p *packet.Packet) bool {
	now := ar.node.Network().Eng.Now()
	rl := ar.reqLims[p.Src]
	if rl == nil {
		// A fleet sender's token bucket is the exact aggregate of its
		// members' buckets: rate and depth scale linearly with weight.
		w := ar.senderWeight(p.Src)
		rl = ratelimit.NewRequestLimiter(now)
		rl.RatePerSec = ar.sys.Cfg.TokenRatePerSec * float64(w)
		rl.Depth = ar.sys.Cfg.TokenDepth * float64(w)
		ar.reqLims[p.Src] = rl
	}
	if p.Prio > ar.sys.Cfg.MaxPrioLevel {
		p.Prio = ar.sys.Cfg.MaxPrioLevel
	}
	if !rl.Admit(p.Prio, now) {
		ar.ReqDropped++
		ar.node.Network().Cells.Add(obs.CoreRequestDropped, 1)
		ar.trace(p, obs.HopDrop, "request-police")
		ar.node.Network().Release(p)
		return false
	}
	ar.ReqAdmitted++
	ar.node.Network().Cells.Add(obs.CoreRequestAdmitted, 1)
	if ar.traced(p) {
		ar.trace(p, obs.HopPolice, "request admit prio="+strconv.Itoa(int(p.Prio)))
	}
	if ar.sys.Cfg.MultiFeedback {
		ar.stampMultiNop(p)
	} else {
		feedback.StampNop(ar.ring.Current(), p, ar.node.Network().NowSec())
	}
	ar.stampPassport(p)
	return true
}

// submit passes p through a limiter's leaky bucket; Cached packets are
// re-injected by the limiter's forward callback. Feedback is restamped
// when the packet actually departs ("when an access router FORWARDS a
// regular packet to the next hop, it resets the congestion policing
// feedback", §4.3.3) — stamping before the cache would hand out stale
// timestamps after queueing delay, denying backlogged senders the fresh
// L-up their good intervals earned.
func (ar *AccessRouter) submit(lim *regLimiter, p *packet.Packet) bool {
	if lim.quotaExceeded() {
		// Congestion quota spent (§7): the sender has pushed too much
		// traffic through this bottleneck while congesting it.
		ar.QuotaDrops++
		ar.node.Network().Cells.Add(obs.CoreQuotaDrop, 1)
		ar.trace(p, obs.HopDrop, "quota")
		ar.node.Network().Release(p)
		return false
	}
	switch lim.pol.Submit(p) {
	case ratelimit.Pass:
		ar.LimiterPass++
		ar.node.Network().Cells.Add(obs.CoreLimiterPass, 1)
		lim.stampForward(p)
		return true
	case ratelimit.Cached:
		return false // the limiter now owns the packet and forwards it later
	default:
		ar.LimiterDrops++
		ar.node.Network().Cells.Add(obs.CoreLimiterDrop, 1)
		ar.trace(p, obs.HopDrop, "rate-limiter")
		ar.node.Network().Release(p)
		return false
	}
}

// quotaExceeded applies the §7 congestion quota: within each quota
// window, only CongestionQuotaBytes of "congestion traffic" (bytes
// forwarded while the rate limit was decreasing) may pass.
func (l *regLimiter) quotaExceeded() bool {
	if l.quotaBytes <= 0 {
		return false
	}
	now := l.ar.node.Network().Eng.Now()
	if now-l.quotaStart > l.ar.sys.Cfg.QuotaWindow {
		l.quotaStart = now
		l.quotaUsed = 0
	}
	return l.quotaUsed >= l.quotaBytes
}

// stampForward writes the departure-time feedback and Passport trailer,
// and charges the congestion quota while the limit is decreasing.
func (l *regLimiter) stampForward(p *packet.Packet) {
	ar := l.ar
	if l.lastAdjustMD {
		l.quotaUsed += int64(p.Size)
	}
	if ar.sys.Cfg.MultiFeedback {
		ar.stampMultiNop(p)
	} else {
		nowSec := ar.node.Network().NowSec()
		feedback.StampIncr(ar.ring.Current(), p, nowSec, l.key.link)
		ar.node.Network().Cells.Add(obs.CoreStampIncr, 1)
	}
	ar.stampPassport(p)
}

// limiter returns (creating on demand) the rate limiter for (src, link).
func (ar *AccessRouter) limiter(src packet.NodeID, link packet.LinkID) *regLimiter {
	key := regKey{src, link}
	if lim, ok := ar.regLims[key]; ok {
		return lim
	}
	eng := ar.node.Network().Eng
	// Closed-form fleet aggregation (§5.1 scalability argument run in
	// reverse): N homogeneous senders sharing one AIMD trajectory are
	// exactly one limiter whose additive step, floor, initial rate and
	// congestion quota all scale by N. The multiplicative decrease is
	// scale-free, so the aggregate evolves bit-for-bit like the sum of N
	// per-sender limiters receiving the same feedback.
	w := ar.senderWeight(src)
	lim := &regLimiter{
		ar:  ar,
		key: key,
		aimd: ratelimit.AIMD{
			DeltaBps: ar.sys.Cfg.DeltaBps * w,
			MD:       ar.sys.Cfg.MD,
			MinBps:   ar.sys.Cfg.MinRateBps * w,
		},
		ts:         ar.node.Network().NowSec(),
		created:    eng.Now(),
		quotaBytes: ar.sys.Cfg.CongestionQuotaBytes * w,
		org:        ar.node.NewOrigin(),
	}
	if ar.sys.Cfg.TokenBucketLimiter {
		lim.pol = ratelimit.NewTokenLimiter(eng, ar.sys.Cfg.InitialRateBps*w,
			ar.sys.Cfg.TokenBurstSec)
	} else {
		leaky := ratelimit.NewLeakyLimiter(eng, ar.sys.Cfg.InitialRateBps*w,
			ar.sys.Cfg.MaxCacheDelay, func(p *packet.Packet) {
				lim.stampForward(p)
				ar.node.Network().Forward(ar.node, p)
			})
		leaky.SetOrigin(&lim.org)
		lim.pol = leaky
	}
	lim.quotaStart = eng.Now()
	lim.ticker = lim.org.Tick(ar.sys.Cfg.Ilim, lim.adjust)
	ar.regLims[key] = lim
	return lim
}

// updateStatus folds a presented feedback into the limiter's control
// state (Figure 17's update_status).
func (l *regLimiter) updateStatus(action packet.FBAction, ts uint32) {
	l.isActive = true
	if ts >= l.ts && action == packet.ActIncr {
		l.hasIncr = true
	}
	if action == packet.ActDecr {
		l.lastDecr = l.ar.node.Network().Eng.Now()
	}
}

// adjust runs once per control interval (Figure 17's adjust_rate_limit,
// or the four-rule variant of Appendix B.2 when inference is enabled).
func (l *regLimiter) adjust() {
	cfg := &l.ar.sys.Cfg
	tput := l.pol.TakeIntervalThroughput(cfg.Ilim)
	old := l.pol.Rate()
	var next int64
	if cfg.InferLimiters {
		switch {
		case l.hasIncr || l.hasIncrStar:
			next = l.aimd.Adjust(old, true, tput)
		case l.isActive:
			next = l.aimd.Adjust(old, false, tput)
		case l.isActiveStar:
			next = old // hold: other links' feedback masks this one
		default:
			next = l.aimd.Adjust(old, false, tput)
		}
	} else {
		next = l.aimd.Adjust(old, l.hasIncr, tput)
	}
	if next != old {
		l.pol.SetRate(next)
	}
	l.lastAdjustMD = next < old
	l.hasIncr = false
	l.hasIncrStar = false
	l.isActive = false
	l.isActiveStar = false
	l.ts = l.ar.node.Network().NowSec()
	l.maybeExpire()
}

// maybeExpire removes the limiter after Ta without L-down feedback and
// without limiter drops (§4.3.1).
func (l *regLimiter) maybeExpire() {
	cfg := &l.ar.sys.Cfg
	now := l.ar.node.Network().Eng.Now()
	ref := l.created
	if l.lastDecr > ref {
		ref = l.lastDecr
	}
	if d := l.pol.LastDropAt(); d > ref {
		ref = d
	}
	if now-ref > cfg.LimiterIdle && l.pol.Backlog() == 0 {
		l.ticker.Stop()
		l.pol.Stop()
		delete(l.ar.regLims, l.key)
	}
}

// kaiLookup resolves the key shared between this access router's AS and
// the AS owning a link — the paper's IP-to-AS mapping plus the Passport
// key table (§4.4).
func (ar *AccessRouter) kaiLookup(link packet.LinkID) *cmac.CMAC {
	l := ar.node.Network().LinkByID(link)
	if l == nil {
		return nil
	}
	return ar.sys.Registry.Key(ar.node.AS, l.From.AS)
}

// stampPassport writes the Passport trailer when enabled.
func (ar *AccessRouter) stampPassport(p *packet.Packet) {
	if !ar.sys.Cfg.Passport {
		return
	}
	path, ok := ar.pathASCache[p.Dst]
	if !ok {
		path = ar.node.Network().PathASes(ar.node.ID, p.Dst)
		ar.pathASCache[p.Dst] = path
	}
	ar.sys.Registry.Stamp(p, path)
}
