package netsim

import (
	"netfence/internal/packet"
	"netfence/internal/smallmap"
)

// Agent is a transport endpoint attached to a host (a TCP sender, a TCP
// receiver, a UDP source or sink).
type Agent interface {
	Receive(p *packet.Packet)
}

// Shim is the defense layer between transport and network on a host —
// NetFence's shim protocol layer (§6.2: "a module between the IP and
// transport layers"). Egress classifies and decorates outgoing packets
// (channel, priority, presented feedback, capabilities); Ingress observes
// incoming packets and returns false to consume them (dedicated feedback
// packets never reach the transport).
type Shim interface {
	Egress(p *packet.Packet)
	Ingress(p *packet.Packet) bool
}

// Host is the end-system stack living on a host node.
type Host struct {
	Node *Node
	// Shim is the defense layer; nil leaves every packet as it is.
	Shim Shim
	// OnUnknownFlow, when set, creates an agent for the first packet of
	// an unknown flow (server-style listeners).
	OnUnknownFlow func(p *packet.Packet) Agent

	// agents holds one flow on nearly every host, inline.
	agents smallmap.Map[packet.FlowID, Agent]
}

// Register attaches an agent to a flow.
func (h *Host) Register(flow packet.FlowID, a Agent) { h.agents.Set(flow, a) }

// Unregister detaches a flow's agent.
func (h *Host) Unregister(flow packet.FlowID) { h.agents.Delete(flow) }

// Agent returns the agent registered for flow, or nil.
func (h *Host) Agent(flow packet.FlowID) Agent {
	a, _ := h.agents.Get(flow)
	return a
}

// Network returns the network of the shard owning the host.
func (h *Host) Network() *Network { return h.Node.net }

// NewPacket draws a zeroed packet from the network's pool; the packet
// returns to the pool automatically when the network delivers or drops
// it. Transports should prefer this over &packet.Packet{} so steady-state
// sending allocates nothing. Before a shard's pool allocates, it adopts
// the empties its cut links have brought home (Network.AdoptEmpties).
func (h *Host) NewPacket() *packet.Packet {
	net := h.Node.net
	pool := &net.Pool
	if pool.Len() == 0 {
		net.AdoptEmpties()
	}
	return pool.Get()
}

// Send stamps addressing metadata, runs the shim's egress path, and
// injects p into the network.
func (h *Host) Send(p *packet.Packet) {
	nd := h.Node
	p.Src = nd.ID
	p.SrcAS = nd.AS
	p.DstAS = nd.net.ASOf(p.Dst)
	if h.Shim != nil {
		h.Shim.Egress(p)
	}
	nd.net.Forward(nd, p)
}

// Receive runs the shim's ingress path and dispatches to the flow's agent.
func (h *Host) Receive(p *packet.Packet) {
	if h.Shim != nil && !h.Shim.Ingress(p) {
		return
	}
	if a := h.Agent(p.Flow); a != nil {
		a.Receive(p)
		return
	}
	if h.OnUnknownFlow != nil {
		if a := h.OnUnknownFlow(p); a != nil {
			h.agents.Set(p.Flow, a)
			a.Receive(p)
		}
	}
}
