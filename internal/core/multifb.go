package core

import (
	"netfence/internal/cmac"
	"netfence/internal/feedback"
	"netfence/internal/packet"
	"netfence/internal/sim"
)

// This file implements the Appendix B.1 extension: a single packet
// carries congestion policing feedback from every bottleneck link on its
// path, protected by one chained token. Enabling Config.MultiFeedback
// switches access routers and bottleneck routers to these paths; it
// regenerates Figure 13 of the paper.

// stampMultiNop writes a fresh, empty multi-bottleneck header (the B.1
// "nop feedback"): just a timestamp and the Eq. 4 token.
func (ar *AccessRouter) stampMultiNop(p *packet.Packet) {
	ts := ar.node.Network().NowSec()
	p.NeedExt().MFB = packet.MultiHeader{
		Present: true,
		TS:      ts,
		Items:   nil,
		Token:   feedback.NopMAC(ar.ring.Current(), p.Src, p.Dst, ts),
	}
}

// stampMulti appends this bottleneck's feedback to the packet's
// multi-bottleneck header and extends the token chain (Eq. 5). Every
// monitored link stamps its own L-up or L-down; there is no rule-2
// suppression in the B.1 design because entries do not overwrite each
// other.
func (b *Bottleneck) stampMulti(p *packet.Packet, now sim.Time) {
	if !p.HasMFB() {
		return
	}
	h := &p.Ext.MFB
	kai := b.sys.kaiForSender(p.SrcAS, b.link.From.AS)
	if kai == nil {
		return
	}
	action := packet.ActIncr
	if b.overloadedFor(p, now) {
		action = packet.ActDecr
	}
	h.Items = append(h.Items, packet.MultiFB{Link: b.link.ID, Action: action})
	h.Token = feedback.MultiMAC(kai, p.Src, p.Dst, h.TS, b.link.ID, action, h.Token)
}

// validateMulti recomputes the token chain of a presented B.1 header.
func (ar *AccessRouter) validateMulti(p *packet.Packet) bool {
	if !p.HasMFB() {
		return false
	}
	h := &p.Ext.MFB
	if !feedback.Fresh(ar.node.Network().NowSec(), h.TS, ar.sys.Cfg.WSec) {
		return false
	}
	// Resolve each entry's Kai once; unknown links invalidate.
	keys := make([]*cmac.CMAC, len(h.Items))
	for i, it := range h.Items {
		keys[i] = ar.kaiLookup(it.Link)
		if keys[i] == nil {
			return false
		}
	}
	return ar.ring.Check(func(ka *cmac.CMAC) bool {
		tok := feedback.NopMAC(ka, p.Src, p.Dst, h.TS)
		for i, it := range h.Items {
			tok = feedback.MultiMAC(keys[i], p.Src, p.Dst, h.TS, it.Link, it.Action, tok)
		}
		return tok == h.Token
	})
}

// policeMulti is the access-router regular-packet path under B.1: the
// packet is policed by the rate limiter of every bottleneck reported in
// its presented header.
//
// The paper chains the packet through all on-path limiters and discards
// it if any rejects it. This implementation submits the packet to the
// smallest-rate limiter and credits the others' throughput meters: a
// leaky-bucket cascade emits at the minimum of the member rates, so the
// observable output is identical while the simulation stays single-queue.
func (ar *AccessRouter) policeMulti(s *senderSlot, p *packet.Packet) bool {
	if !ar.validateMulti(p) {
		ar.Demoted++
		p.Kind = packet.KindRequest
		p.Prio = 0
		if p.Ext != nil {
			p.Ext.MFB = packet.MultiHeader{}
		}
		return ar.handleRequest(s, p)
	}
	items := p.Ext.MFB.Items
	if len(items) == 0 {
		// Equivalent of nop: no bottleneck on path, no rate limiting.
		ar.stampMultiNop(p)
		ar.stampPassport(s, p)
		return true
	}
	ts := p.Ext.MFB.TS
	var minLim *regLimiter
	for _, it := range items {
		lim := ar.limiter(s, it.Link)
		lim.updateStatus(it.Action, ts)
		if minLim == nil || lim.pol.Rate() < minLim.pol.Rate() {
			minLim = lim
		}
	}
	for _, it := range items {
		if lim := ar.regLims[regKey{p.Src, it.Link}]; lim != nil && lim != minLim {
			lim.pol.CreditBytes(int(p.Size))
		}
	}
	return ar.submit(minLim, p)
}
