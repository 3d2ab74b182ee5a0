package core

import (
	"netfence/internal/cmac"
	"netfence/internal/netsim"
	"netfence/internal/packet"
	"netfence/internal/passport"
)

// System is a NetFence deployment over a simulated network: the Passport
// registry providing the AS-pairwise keys Kai, the per-router access
// machinery, and the per-link bottleneck machinery. Deploy it by calling
// ProtectLink on congestible links, ProtectAccess on access routers, and
// AttachHost on end hosts; it satisfies defense.System through the
// SystemAdapter in this package.
type System struct {
	Cfg Config
	// Registry holds the pairwise AS keys (Passport's key exchange).
	Registry *passport.Registry

	net         *netsim.Network
	accesses    map[packet.NodeID]*AccessRouter
	bottlenecks map[packet.LinkID]*Bottleneck
}

// NewSystem creates a NetFence deployment for net, establishing pairwise
// keys among all ASes present in the topology.
func NewSystem(net *netsim.Network, cfg Config) *System {
	return &System{
		Cfg:         cfg,
		Registry:    passport.NewRegistry(net.Eng.KeyStream(netsim.ControlStream), net.ASes()),
		net:         net,
		accesses:    make(map[packet.NodeID]*AccessRouter),
		bottlenecks: make(map[packet.LinkID]*Bottleneck),
	}
}

// Name identifies the system in result tables.
func (s *System) Name() string { return "NetFence" }

// ProtectLink installs the bottleneck machinery (three-channel queue,
// attack detection, feedback stamping) on l.
func (s *System) ProtectLink(l *netsim.Link) {
	s.bottlenecks[l.ID] = s.protect(l)
}

// Bottleneck returns the machinery attached to l, or nil.
func (s *System) Bottleneck(l *netsim.Link) *Bottleneck { return s.bottlenecks[l.ID] }

// kaiForSender returns the key shared between a sender's AS and a
// bottleneck link's AS, used to stamp L-down feedback (Eq. 3).
func (s *System) kaiForSender(srcAS, linkAS packet.ASID) *cmac.CMAC {
	return s.Registry.Key(srcAS, linkAS)
}
