package core

import (
	"netfence/internal/packet"
)

// This file implements the Appendix B.2 extension: access routers keep a
// per-destination cache of bottleneck links seen on the path and police a
// packet with the rate limiters of every inferred on-path bottleneck,
// even though the packet itself carries feedback from only one of them.
// Enabling Config.InferLimiters regenerates Figure 14 of the paper.
//
// Cache entries persist for the life of the experiment; the paper notes
// entries should age out when a link's feedback stops appearing, which
// only matters across monitoring cycles far longer than a simulation.

// policeInferred handles a regular packet whose (single) presented
// feedback names link; the packet additionally passes the limiters of
// every other bottleneck cached for its destination.
//
// Like policeMulti, the packet physically traverses the smallest-rate
// limiter while crediting the rest — equivalent to the paper's cascade.
// The forwarded packet is restamped with L-up of the smallest-rate
// limiter's link (Appendix B.2's "reset the feedback to L-low-up").
func (ar *AccessRouter) policeInferred(s *senderSlot, p *packet.Packet, link packet.LinkID) bool {
	links := ar.destLinks[p.Dst]
	found := false
	for _, l := range links {
		if l == link {
			found = true
			break
		}
	}
	if !found {
		links = append(links, link)
		if ar.destLinks == nil {
			ar.destLinks = make(map[packet.NodeID][]packet.LinkID)
		}
		ar.destLinks[p.Dst] = links
	}

	var minLim *regLimiter
	for _, l := range links {
		lim := ar.limiter(s, l)
		if l == link {
			// Direct feedback for this limiter.
			lim.updateStatus(p.FB.Action, p.FB.TS)
		} else {
			// Inferred feedback (the starred state of B.2): L-up from
			// another link implies this one is uncongested too — it
			// would have overwritten the L-up otherwise; L-down from
			// another link says nothing, so the limit merely holds.
			lim.isActiveStar = true
			if p.FB.Action == packet.ActIncr && p.FB.TS >= lim.ts {
				lim.hasIncrStar = true
			}
		}
		if minLim == nil || lim.pol.Rate() < minLim.pol.Rate() {
			minLim = lim
		}
	}

	for _, l := range links {
		if lim := ar.regLims[regKey{p.Src, l}]; lim != nil && lim != minLim {
			lim.pol.CreditBytes(int(p.Size))
		}
	}
	return ar.submit(minLim, p)
}

// InferredLinks returns the cached bottleneck links for a destination.
func (ar *AccessRouter) InferredLinks(dst packet.NodeID) []packet.LinkID {
	return ar.destLinks[dst]
}
