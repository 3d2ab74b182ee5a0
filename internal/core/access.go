package core

import (
	"slices"
	"strconv"

	"netfence/internal/cmac"
	"netfence/internal/feedback"
	"netfence/internal/netsim"
	"netfence/internal/obs"
	"netfence/internal/packet"
	"netfence/internal/passport"
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

	// slots is the per-sender state (see senderSlot), a slab of chunks
	// that fill up and never move: the first has room for every attached
	// host. A slot's index is chunk<<slotBits | offset, plus one; an
	// attached host carries its own on its Node, and slotOf finds the
	// slot of any other source address a packet may claim. On Passport
	// runs trailers holds each slot's trailer memo, a chunk beside each
	// chunk of slots.
	slots    [][]senderSlot
	trailers [][]trailerMemo
	slotOf   map[packet.NodeID]int32
	regLims  map[regKey]*regLimiter

	// hopSets holds each distinct AS-level path to a destination once,
	// with the key this AS shares with each AS on it, for Passport
	// stamping; paths names the set of every destination resolved so
	// far; pathBuf is the scratch a path is resolved into before it is
	// matched against the sets.
	paths   map[packet.NodeID]int32
	hopSets [][]passport.Hop
	pathBuf []packet.ASID

	// destLinks is the Appendix B.2 inference cache: bottleneck links
	// observed on the path toward each destination. It and the other
	// maps are made at their first write, slotOf sized for the attached
	// hosts: a router that polices nobody writes none of them.
	destLinks map[packet.NodeID][]packet.LinkID

	// org keys the key-rotation ticker.
	org sim.Origin

	// Counters for tests and metrics.
	ReqDropped uint64
	Demoted    uint64
	QuotaDrops uint64
	stats      AccessStats
}

// AccessStats counts what the per-sender fast path saved and what it
// still pays; it is read by tests, never by the model.
type AccessStats struct {
	// MemoHits and MemoMisses count token lookups (token_nop, token_Lup,
	// presented-feedback verdict) and own-AS Passport trailers: a hit is
	// a compare, a miss computes the MACs and refills the memo.
	MemoHits, MemoMisses uint64
	// Hashed counts Go map accesses made while policing: slot lookups by
	// source address, limiter and path lookups (the Appendix B variants'
	// walks over a packet's other limiters are not counted).
	Hashed uint64
}

// Stats returns the router's fast-path counters.
func (ar *AccessRouter) Stats() AccessStats { return ar.stats }

// A slab chunk holds at most 1<<slotBits slots; slotChunkMin is what the
// slab grows by once source addresses outnumber attached hosts.
const (
	slotBits     = 8
	slotChunkMin = 8
)

// senderSlot is everything the access router keeps per sender (§4.2,
// §5.1: one request limiter per sender, one rate limiter per sender and
// bottleneck), by value in the router's slab, plus the sender's last
// limiter, last Passport path and last tokens, so that a packet like its
// predecessor costs compares instead of hashes and AES passes.
//
// Why memoising tokens is sound: by Eq. (1)-(3) a token is a function of
// (key, src, dst, ts, link, action[, token_nop]) and nothing else, with
// ts in whole seconds — the property that lets a receiver return one as
// a capability for w seconds. The slot fixes src; every other input, and
// the key's identity as the ring's rotation count, is compared on each
// use, so a hit returns exactly what feedback.StampNop, StampIncr or
// Validate would compute. The freshness window |now - ts| <= w depends
// on the clock, is not part of any memo, and is evaluated per packet
// before the verdict memo is consulted. Negative verdicts are kept too:
// a replayed forgery costs a compare.
//
// Why only here: the access router is where the paper already keeps
// per-sender state. A bottleneck router and a transit AS keep at most
// per-AS state — the paper's scalability claim — so StampDecr and
// Passport verification remain per-packet computations.
type senderSlot struct {
	req ratelimit.RequestLimiter
	lim *regLimiter // last limiter used, nil once it expires
	// Last Passport path used: hop set pathSet-1 leads to pathDst (0:
	// none yet).
	pathDst packet.NodeID
	pathSet int32
	src     packet.NodeID

	// The memos below hold tokens for packets to dst under the ring's
	// key number epoch (its rotation count); a packet to another
	// destination, or a rotation, empties them.
	epoch uint32
	dst   packet.NodeID
	// Tokens last stamped, at second stTS: token_nop, and token_Lup for
	// upLink when the stamp was L-up feedback.
	stTS   uint32
	nopMAC [4]byte
	upLink packet.LinkID
	upMAC  [4]byte
	// Verdict on the feedback last presented: every field Validate
	// reads, and what it returned.
	fvTS      uint32
	fvLink    packet.LinkID
	fvMAC     [4]byte
	fvMode    packet.FBMode
	fvAction  packet.FBAction
	fvVerdict feedback.Verdict
	have      uint8 // haveReq | haveNop | haveUp | haveFV
	// self is the slot's own index, which finds its trailer memo.
	self int32
}

const (
	haveReq = 1 << iota // req is initialised (at the first request)
	haveNop
	haveUp
	haveFV
)

// trailerMemo is a sender's last own-AS Passport trailer: the MACs of hop
// set set-1 (0: none yet) for a packet to dst of size bytes. Every MAC
// input — source, destination, source AS, transit AS and size — is then
// fixed (the slot fixes the source, and the memo is for the router's own
// AS only), as are the pair keys, so a hit writes exactly the trailer
// passport.StampHops would compute. A transit AS still verifies each
// packet's MAC: that is the paper's per-AS rule.
type trailerMemo struct {
	dst       packet.NodeID
	set, size uint16
	macs      [trailerMemoHops][4]byte
}

// trailerMemoHops is the longest AS path a trailer memo holds, which
// makes it 32 bytes; a longer path is stamped per packet.
const trailerMemoHops = 6

type regKey struct {
	src  packet.NodeID
	link packet.LinkID
}

// regLimiter is one (sender, bottleneck link) rate limiter with its AIMD
// state (Figure 17), including the starred flags of the Appendix B.2
// inference variant. It is one heap object: the leaky queue, its first
// cache slots and the control-interval timer are held by value, and the
// regulator is the queue's Emitter and the timer's handler.
type regLimiter struct {
	ar   *AccessRouter
	slot *senderSlot // the sender's slot; slot.src is the limiter's sender
	// kai is the key shared with the AS owning link (nil if unknown).
	kai *cmac.CMAC
	// org keys the limiter's timers: the control-interval tick and the
	// leaky queue's departures.
	org sim.Origin
	// pol is the policing strategy: the paper's leaky-bucket queue
	// (&leaky), or the token-bucket variant when
	// Config.TokenBucketLimiter is set (the ablation of the §4.3.3
	// design choice).
	pol  ratelimit.Policer
	aimd ratelimit.AIMD

	link packet.LinkID
	ts   uint32 // control interval start, whole seconds

	hasIncr bool
	// Appendix B.2 state.
	hasIncrStar  bool
	isActive     bool
	isActiveStar bool
	// lastAdjustMD: the last adjustment was a multiplicative decrease
	// (congestion-quota state, below).
	lastAdjustMD bool

	// lastDecr is when L-down feedback was last presented, or when the
	// limiter was created if none has been.
	lastDecr sim.Time

	// Congestion-quota state (§7): bytes forwarded during intervals that
	// followed a multiplicative decrease count against the quota.
	// quotaBytes is the per-limiter allowance — Cfg.CongestionQuotaBytes
	// scaled by the sender's fleet weight at creation.
	quotaBytes int64
	quotaUsed  int64
	quotaStart sim.Time

	// tick is the owned control-interval timer, re-armed every Ilim
	// until the limiter expires.
	tick  sim.Event
	leaky ratelimit.LeakyLimiter
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
		sys:  s,
		node: r,
		org:  r.NewOrigin(),
	}
	ar.ring = feedback.NewKeyRing(r.Network().Eng.KeySource(ar.org.ID()))
	ar.org.Tick(s.Cfg.KeyRotate, func() {
		ar.ring.Rotate()
		// Runtime plane, so Result never carried it; the router rotates
		// only on the shard owning it, so the count is the same at every
		// shard count.
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

// slotAt returns the slot with index i, nil when there is none.
func (ar *AccessRouter) slotAt(i int32) *senderSlot {
	c, o := int(i-1)>>slotBits, int(i-1)&(1<<slotBits-1)
	if i <= 0 || c >= len(ar.slots) || o >= len(ar.slots[c]) {
		return nil
	}
	return &ar.slots[c][o]
}

// slotFor returns the index of src's slot, taking the slab's next one at
// the sender's first packet.
func (ar *AccessRouter) slotFor(src packet.NodeID) int32 {
	ar.stats.Hashed++
	i := ar.slotOf[src]
	if i == 0 {
		c := len(ar.slots) - 1
		if c < 0 || len(ar.slots[c]) == cap(ar.slots[c]) {
			// Room for every attached host not yet seen.
			n := -len(ar.slotOf)
			for _, l := range ar.node.Out() {
				if l.To.IsHost && l.To.AS == ar.node.AS {
					n++
				}
			}
			if n <= 0 {
				n = slotChunkMin
			}
			n = min(n, 1<<slotBits)
			if ar.slotOf == nil {
				ar.slotOf = make(map[packet.NodeID]int32, n)
			}
			ar.slots = append(ar.slots, make([]senderSlot, 0, n))
			if ar.sys.Cfg.Passport {
				ar.trailers = append(ar.trailers, make([]trailerMemo, n))
			}
			c++
		}
		i = int32(c<<slotBits + len(ar.slots[c]) + 1)
		ar.slots[c] = append(ar.slots[c], senderSlot{src: src, self: i})
		ar.slotOf[src] = i
	}
	return i
}

// ingress intercepts arrivals at the access router; only packets from
// directly attached hosts of this AS are policed. A host that has sent
// before carries the index of its slot on its Node; the slot is the
// packet's when it is the one this router keeps for the source address
// the packet claims, whoever wrote the index.
func (ar *AccessRouter) ingress(p *packet.Packet, from *netsim.Link) bool {
	if from == nil {
		return true
	}
	h := from.From
	if !h.IsHost || h.AS != ar.node.AS {
		return true
	}
	s := ar.slotAt(h.AccessSlot)
	if s == nil || s.src != p.Src {
		i := ar.slotFor(p.Src)
		s = ar.slotAt(i)
		if p.Src == h.ID {
			h.AccessSlot = i
		}
	}
	return ar.policeSlot(s, p)
}

// trace records one policing hop for a sampled flow.
func (ar *AccessRouter) trace(p *packet.Packet, kind, detail string) {
	net := ar.node.Network()
	if net.Rec.Sampled(uint64(p.Flow)) {
		net.Rec.Record(int64(net.Eng.Now()), uint64(p.Flow), ar.node.String(), kind, detail)
	}
}

// traced reports whether p's flow is sampled by the flight recorder —
// the gate hot paths check before building a trace detail string, so
// untraced runs never pay the formatting allocation.
func (ar *AccessRouter) traced(p *packet.Packet) bool {
	return ar.node.Network().Rec.Sampled(uint64(p.Flow))
}

// policeSlot implements router.rate_limit_packet of Figure 18 for a
// packet of s's sender.
func (ar *AccessRouter) policeSlot(s *senderSlot, p *packet.Packet) bool {
	if p.Kind == packet.KindLegacy {
		return true
	}
	if p.Kind == packet.KindRequest {
		return ar.handleRequest(s, p)
	}
	if ar.sys.Cfg.MultiFeedback {
		return ar.policeMulti(s, p)
	}
	cells := ar.node.Network().Cells
	nowSec := ar.node.Network().NowSec()
	switch ar.validate(s, p, nowSec) {
	case feedback.ValidNop:
		p.FB = feedback.Nop(nowSec, ar.nopToken(s, p.Dst, nowSec))
		cells.Add(obs.CoreStampNop, 1)
		ar.trace(p, obs.HopPolice, "nop")
		ar.stampPassport(s, p)
		return true
	case feedback.ValidMon:
		ar.trace(p, obs.HopPolice, "mon")
		link := p.FB.Link
		if ar.sys.Cfg.InferLimiters {
			return ar.policeInferred(s, p, link)
		}
		lim := ar.limiter(s, link)
		lim.updateStatus(p.FB.Action, p.FB.TS)
		return ar.submit(lim, p)
	default:
		// Invalid feedback: treat as a request packet (§4.4).
		ar.Demoted++
		cells.Add(obs.CorePoliceDemoted, 1)
		ar.trace(p, obs.HopDemote, "invalid-feedback->request")
		p.Kind = packet.KindRequest
		p.Prio = 0
		return ar.handleRequest(s, p)
	}
}

// memoFor points s's token memos at packets to dst under the current
// key, emptying them when they held another destination's tokens or the
// ring has rotated since they were filled.
func (ar *AccessRouter) memoFor(s *senderSlot, dst packet.NodeID) {
	if e := uint32(ar.ring.Epoch()); s.epoch != e || s.dst != dst {
		s.epoch, s.dst = e, dst
		s.have &^= haveNop | haveUp | haveFV
	}
}

// validate resolves the packet's feedback verdict: it checks freshness
// against the clock, then validates by a compare when the sender's
// previous packet presented the same feedback, and by CMAC otherwise.
func (ar *AccessRouter) validate(s *senderSlot, p *packet.Packet, nowSec uint32) feedback.Verdict {
	fb := &p.FB
	if !feedback.Fresh(nowSec, fb.TS, ar.sys.Cfg.WSec) {
		return feedback.Invalid
	}
	ar.memoFor(s, p.Dst)
	if s.have&haveFV != 0 && s.fvTS == fb.TS && s.fvLink == fb.Link &&
		s.fvMAC == fb.MAC && s.fvMode == fb.Mode && s.fvAction == fb.Action {
		ar.stats.MemoHits++
		return s.fvVerdict
	}
	ar.stats.MemoMisses++
	kai := func(link packet.LinkID) *cmac.CMAC {
		if l := s.lim; l != nil && l.link == link {
			return l.kai
		}
		ar.stats.Hashed++
		return ar.kaiLookup(link)
	}
	v := feedback.Validate(ar.ring, kai, p, nowSec, ar.sys.Cfg.WSec)
	s.fvTS, s.fvLink, s.fvMAC = fb.TS, fb.Link, fb.MAC
	s.fvMode, s.fvAction, s.fvVerdict = fb.Mode, fb.Action, v
	s.have |= haveFV
	return v
}

// nopToken returns token_nop (Eq. 1) under the current key for a packet
// of s's sender to dst stamped at second ts.
func (ar *AccessRouter) nopToken(s *senderSlot, dst packet.NodeID, ts uint32) [4]byte {
	ar.memoFor(s, dst)
	if s.have&haveNop != 0 && s.stTS == ts {
		ar.stats.MemoHits++
		return s.nopMAC
	}
	ar.stats.MemoMisses++
	s.stTS = ts
	s.nopMAC = feedback.NopMAC(ar.ring.Current(), s.src, dst, ts)
	s.have = s.have&^haveUp | haveNop
	return s.nopMAC
}

// lupTokens returns token_Lup (Eq. 2) for link, and the token_nop L-up
// feedback carries beside it, under the current key for a packet of s's
// sender to dst stamped at second ts.
func (ar *AccessRouter) lupTokens(s *senderSlot, dst packet.NodeID, ts uint32, link packet.LinkID) (lup, nop [4]byte) {
	nop = ar.nopToken(s, dst, ts) // leaves the memo at (dst, ts)
	if s.have&haveUp != 0 && s.upLink == link {
		ar.stats.MemoHits++
		return s.upMAC, nop
	}
	ar.stats.MemoMisses++
	s.upLink = link
	s.upMAC = feedback.IncrMAC(ar.ring.Current(), s.src, dst, ts, link)
	s.have |= haveUp
	return s.upMAC, nop
}

// handleRequest polices a request packet (Figure 15) and stamps nop
// feedback on success (§4.2).
func (ar *AccessRouter) handleRequest(s *senderSlot, p *packet.Packet) bool {
	now := ar.node.Network().Eng.Now()
	if s.have&haveReq == 0 {
		// A fleet sender's token bucket is the exact aggregate of its
		// members' buckets: rate and depth scale linearly with weight.
		w := ar.senderWeight(s.src)
		s.req = *ratelimit.NewRequestLimiter(now)
		s.req.RatePerSec = ratelimit.DefaultTokenRate * float64(w)
		s.req.Depth = ratelimit.DefaultTokenDepth * float64(w)
		s.have |= haveReq
	}
	if p.Prio > ratelimit.MaxPrioLevel {
		p.Prio = ratelimit.MaxPrioLevel
	}
	if !s.req.Admit(p.Prio, now) {
		ar.ReqDropped++
		ar.node.Network().Cells.Add(obs.CoreRequestDropped, 1)
		ar.trace(p, obs.HopDrop, "request-police")
		ar.node.Network().Release(p)
		return false
	}
	ar.node.Network().Cells.Add(obs.CoreRequestAdmitted, 1)
	if ar.traced(p) {
		ar.trace(p, obs.HopPolice, "request admit prio="+strconv.Itoa(int(p.Prio)))
	}
	if ar.sys.Cfg.MultiFeedback {
		ar.stampMultiNop(p)
	} else {
		nowSec := ar.node.Network().NowSec()
		p.FB = feedback.Nop(nowSec, ar.nopToken(s, p.Dst, nowSec))
	}
	ar.stampPassport(s, p)
	return true
}

// submit passes p through a limiter's leaky bucket; Cached packets are
// re-injected by the regulator's Emit. Feedback is restamped
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
		ar.node.Network().Cells.Add(obs.CoreLimiterPass, 1)
		lim.stampForward(p)
		return true
	case ratelimit.Cached:
		return false // the limiter now owns the packet and forwards it later
	default:
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
		lup, nop := ar.lupTokens(l.slot, p.Dst, nowSec, l.link)
		p.FB = feedback.Incr(nowSec, l.link, lup, nop)
		ar.node.Network().Cells.Add(obs.CoreStampIncr, 1)
	}
	ar.stampPassport(l.slot, p)
}

// limiter returns (creating on demand) the rate limiter of s's sender
// for link: the one its previous packet used, or the one regLims holds.
func (ar *AccessRouter) limiter(s *senderSlot, link packet.LinkID) *regLimiter {
	if lim := s.lim; lim != nil && lim.link == link {
		return lim
	}
	ar.stats.Hashed++
	key := regKey{s.src, link}
	if lim, ok := ar.regLims[key]; ok {
		s.lim = lim
		return lim
	}
	eng := ar.node.Network().Eng
	// Closed-form fleet aggregation (§5.1 scalability argument run in
	// reverse): N homogeneous senders sharing one AIMD trajectory are
	// exactly one limiter whose additive step, floor, initial rate and
	// congestion quota all scale by N. The multiplicative decrease is
	// scale-free, so the aggregate evolves bit-for-bit like the sum of N
	// per-sender limiters receiving the same feedback.
	w := ar.senderWeight(s.src)
	aimd := ratelimit.DefaultAIMD()
	aimd.DeltaBps *= w
	aimd.MinBps *= w
	lim := &regLimiter{
		ar:         ar,
		slot:       s,
		link:       link,
		kai:        ar.kaiLookup(link),
		aimd:       aimd,
		ts:         ar.node.Network().NowSec(),
		lastDecr:   eng.Now(),
		quotaBytes: ar.sys.Cfg.CongestionQuotaBytes * w,
		org:        ar.node.NewOrigin(),
	}
	if ar.sys.Cfg.TokenBucketLimiter {
		lim.pol = ratelimit.NewTokenLimiter(eng, ar.sys.Cfg.InitialRateBps*w, tokenBurstSec)
	} else {
		lim.leaky.Init(&lim.org, ar.sys.Cfg.InitialRateBps*w, maxCacheDelay, lim)
		lim.pol = &lim.leaky
	}
	lim.quotaStart = eng.Now()
	lim.org.ScheduleEvent(&lim.tick, eng.Now()+Ilim, lim, nil)
	if ar.regLims == nil {
		ar.regLims = make(map[regKey]*regLimiter)
	}
	ar.regLims[key] = lim
	s.lim = lim
	return lim
}

// Emit implements ratelimit.Emitter: a packet the leaky queue cached
// departs, restamped.
func (l *regLimiter) Emit(p *packet.Packet) {
	l.stampForward(p)
	l.ar.node.Network().Forward(l.ar.node, p)
}

// OnEvent implements sim.Handler: the control interval ended. The tick
// re-arms after adjust, whose SetRate may reschedule a departure on the
// same origin first.
func (l *regLimiter) OnEvent(now sim.Time, _ any) {
	if l.adjust() {
		l.org.ScheduleEvent(&l.tick, now+Ilim, l, nil)
	}
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
// or the four-rule variant of Appendix B.2 when inference is enabled). It
// reports whether the limiter is still live.
func (l *regLimiter) adjust() bool {
	cfg := &l.ar.sys.Cfg
	tput := l.pol.TakeIntervalThroughput(Ilim)
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
	return !l.maybeExpire()
}

// maybeExpire removes the limiter after Ta without L-down feedback and
// without limiter drops (§4.3.1), and reports whether it did. The
// sender's slot forgets it, so no packet can reach a removed limiter.
func (l *regLimiter) maybeExpire() bool {
	cfg := &l.ar.sys.Cfg
	now := l.ar.node.Network().Eng.Now()
	ref := l.lastDecr
	if d := l.pol.LastDropAt(); d > ref {
		ref = d
	}
	if now-ref <= cfg.LimiterIdle || l.pol.Backlog() != 0 {
		return false
	}
	l.pol.Stop()
	delete(l.ar.regLims, regKey{l.slot.src, l.link})
	if l.slot.lim == l {
		l.slot.lim = nil
	}
	return true
}

// kaiLookup resolves the key shared between this access router's AS and
// the AS owning a link — the paper's IP-to-AS mapping plus the Passport
// key table (§4.4). It may make the pair's CMAC, so only the goroutine
// owning the router calls it.
func (ar *AccessRouter) kaiLookup(link packet.LinkID) *cmac.CMAC {
	l := ar.node.Network().LinkByID(link)
	if l == nil {
		return nil
	}
	return ar.sys.Registry.Key(ar.node.AS, l.From.AS)
}

// hopsTo resolves the AS-level path to dst and this AS's pair keys along
// it, and returns the index of its hop set: destinations behind the same
// ASes share one.
func (ar *AccessRouter) hopsTo(dst packet.NodeID) int32 {
	ases := ar.node.Network().PathASes(ar.pathBuf, ar.node.ID, dst)
	ar.pathBuf = ases
	for i, hops := range ar.hopSets {
		if slices.EqualFunc(hops, ases, func(h passport.Hop, as packet.ASID) bool { return h.AS == as }) {
			return int32(i)
		}
	}
	hops := ar.sys.Registry.Hops(make([]passport.Hop, 0, len(ases)), ar.node.AS, ases)
	ar.hopSets = append(ar.hopSets, hops)
	return int32(len(ar.hopSets) - 1)
}

// stampPassport writes the Passport trailer when enabled, with the pair
// keys resolved once per destination, and the MACs of the router's own
// AS from the sender's trailer memo when the packet's destination, hop
// set and size are its predecessor's; a packet claiming another source
// AS gets that AS's keys and MACs, resolved per packet.
func (ar *AccessRouter) stampPassport(s *senderSlot, p *packet.Packet) {
	if !ar.sys.Cfg.Passport {
		return
	}
	if s.pathSet == 0 || s.pathDst != p.Dst {
		ar.stats.Hashed++
		set, ok := ar.paths[p.Dst]
		if !ok {
			set = ar.hopsTo(p.Dst)
			if ar.paths == nil {
				ar.paths = make(map[packet.NodeID]int32)
			}
			ar.paths[p.Dst] = set
		}
		s.pathDst, s.pathSet = p.Dst, set+1
	}
	hops := ar.hopSets[s.pathSet-1]
	if p.SrcAS != ar.node.AS {
		var buf [8]packet.ASID
		ases := buf[:0]
		for _, h := range hops {
			ases = append(ases, h.AS)
		}
		ar.sys.Registry.Stamp(p, ases)
		return
	}
	i := s.self - 1
	m := &ar.trailers[i>>slotBits][i&(1<<slotBits-1)]
	set, size := uint16(s.pathSet), uint16(p.Size)
	fits := int32(set) == s.pathSet && int32(size) == p.Size
	if m.set == set && m.dst == p.Dst && m.size == size && fits {
		ar.stats.MemoHits++
		passport.StampMACs(p, hops, m.macs[:len(hops)])
		return
	}
	ar.stats.MemoMisses++
	passport.StampHops(p, hops)
	if fits && len(hops) <= len(m.macs) {
		m.dst, m.set, m.size = p.Dst, set, size
		for j, e := range p.Passport.Entries {
			m.macs[j] = e.MAC
		}
	}
}
