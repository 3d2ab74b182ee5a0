// Package packet defines the simulated packet model shared by every layer
// of the NetFence reproduction: addressing, transport metadata, and the
// NetFence congestion-policing feedback fields carried in the shim header.
//
// The package holds plain data only. Cryptographic stamping/validation of
// feedback lives in internal/feedback, wire encoding in internal/header,
// and forwarding in internal/netsim, which keeps the dependency graph a
// clean tree.
package packet

// NodeID identifies a host or router. It doubles as the node's network
// address: the paper's IP addresses map 1:1 onto NodeIDs in simulation.
type NodeID int32

// ASID identifies an Autonomous System, the trust and fate-sharing unit of
// NetFence (§2.1 of the paper).
type ASID int32

// LinkID identifies a link. The paper uses the link's IP address; the
// simulator assigns dense unique IDs. ID 0 is reserved for "no link"
// (the null identifier of nop feedback).
type LinkID uint32

// FlowID identifies a transport connection (a sender/receiver agent pair).
// The sender's node mints it: the node's ID in the high 32 bits and an
// ordinal the node reserved in the low (netsim.Node.NewFlow), so a flow
// has the same ID however the topology is partitioned, and none is 0.
type FlowID uint64

// Kind classifies a packet into one of NetFence's three channels (§3.1).
type Kind uint8

// Packet kinds.
const (
	// KindLegacy marks traffic from non-NetFence senders; it is forwarded
	// with the lowest priority.
	KindLegacy Kind = iota
	// KindRequest marks connection-request packets, policed by the
	// priority-based request channel (§4.2).
	KindRequest
	// KindRegular marks packets carrying (supposedly) valid congestion
	// policing feedback (§4.3).
	KindRegular
)

// String returns the channel name.
func (k Kind) String() string {
	switch k {
	case KindLegacy:
		return "legacy"
	case KindRequest:
		return "request"
	case KindRegular:
		return "regular"
	}
	return "invalid"
}

// Proto identifies the upper-layer protocol inside the shim header.
type Proto uint8

// Upper-layer protocols.
const (
	ProtoUDP Proto = iota
	ProtoTCP
	// ProtoFeedback marks the dedicated low-rate feedback packets a
	// receiver of one-way traffic sends back to the sender (§3.1 step 4).
	ProtoFeedback
	// ProtoCap marks TVA+ capability-refresh packets sent by receivers of
	// one-way traffic (baseline system only).
	ProtoCap
)

// TCP header flag bits.
const (
	FlagSYN uint8 = 1 << iota
	FlagACK
	FlagFIN
)

// TCPInfo carries the subset of TCP header state the simulator models.
type TCPInfo struct {
	Flags uint8
	// Seq is the first payload byte's sequence number (or the ISN for SYN).
	Seq int64
	// Ack is the cumulative acknowledgement number, valid when FlagACK set.
	Ack int64
}

// FBMode distinguishes nop from mon congestion policing feedback (§4.4).
type FBMode uint8

// Feedback modes.
const (
	FBNop FBMode = iota
	FBMon
)

// FBAction is the action field of mon feedback.
type FBAction uint8

// Feedback actions.
const (
	// ActIncr is the L-up feedback: the link is underloaded and the access
	// router may raise the sender's rate limit.
	ActIncr FBAction = iota
	// ActDecr is the L-down feedback: the link is overloaded and the access
	// router must reduce the sender's rate limit.
	ActDecr
)

// Feedback is one congestion policing feedback element: the five key fields
// of Figure 5 plus the tokennop field carried by mon feedback. The same
// struct serves as the sender's presented feedback (host to access router)
// and as the network-stamped feedback (access router onward); the access
// router rewrites it in place when forwarding (§4.3.3).
type Feedback struct {
	Link LinkID
	// TS is the stamping time in whole seconds, set only by access routers.
	TS uint32
	// MAC attests the feedback's integrity (Eq. 1-3 of §4.4, truncated to
	// the header's 32-bit MAC field).
	MAC [4]byte
	// TokenNop carries the access router's token_nop inside L-up feedback;
	// a bottleneck router consumes and erases it when stamping L-down.
	TokenNop [4]byte
	Mode     FBMode
	Action   FBAction
}

// IsNop reports whether the feedback is the nop feedback.
func (f *Feedback) IsNop() bool { return f.Mode == FBNop }

// IsMon reports whether the feedback is mon (L-up or L-down) feedback.
func (f *Feedback) IsMon() bool { return f.Mode == FBMon }

// Returned is the return header: feedback the packet's sender is handing
// back to the packet's destination about the reverse path. Routers never
// touch it; only end-host shims read and write it.
type Returned struct {
	Link    LinkID
	TS      uint32
	MAC     [4]byte
	Present bool
	Mode    FBMode
	Action  FBAction
}

// Capability is the simulation-level stand-in for a TVA+ network
// capability. Real TVA capabilities are router-stamped and receiver-
// authorized crypto tokens; the baseline reproduces their *policing effect*
// (packets with a valid, unexpired capability for the right destination
// ride the regular channel) and models unforgeability by construction:
// only receivers create Capability values. See DESIGN.md.
type Capability struct {
	Present bool
	Dst     NodeID
	// Expire is the expiry time in whole seconds of simulated time.
	Expire uint32
}

// Valid reports whether the capability authorizes sending to dst at the
// given time.
func (c Capability) Valid(dst NodeID, nowSec uint32) bool {
	return c.Present && c.Dst == dst && nowSec <= c.Expire
}

// PassportMAC is one Passport trailer entry: the MAC the source AS
// computed under the key it shares with a specific transit AS.
type PassportMAC struct {
	AS  ASID
	MAC [4]byte
}

// PassportStamp is the block a packet grows when the Passport
// source-authentication trailer rides along: one MAC per AS on the path,
// verified in path order (internal/passport); a transit AS with several
// on-path routers verifies once, at ingress. On Passport runs the block
// is made with the packet (Pool.MakeTrailers), entry array included; any
// other packet makes one on first need (NeedPassport). Either way the
// packet keeps it across pool recycles, zeroed, the way it keeps its
// Ext.
type PassportStamp struct {
	Entries []PassportMAC
	// Next indexes the first unverified entry.
	Next int32
	// Present says the packet carries a trailer.
	Present bool
}

// MultiFB is one bottleneck's feedback inside the Appendix B.1
// multi-bottleneck header: the link and its incr/decr action.
type MultiFB struct {
	Link   LinkID
	Action FBAction
}

// MultiHeader is the Appendix B.1 alternative NetFence header carrying
// feedback from every on-path bottleneck, protected by a single chained
// token (Eq. 4-5 of the paper's appendix).
type MultiHeader struct {
	Present bool
	TS      uint32
	Items   []MultiFB
	Token   [4]byte
}

// Ext holds the headers no hop of the core design reads: the Appendix
// B.1 multi-bottleneck headers and the TVA+ baseline's capabilities. A
// packet grows one on first use (NeedExt) and keeps it across pool
// recycles, zeroed; a default-config NetFence or FQ run never allocates
// one.
type Ext struct {
	// MFB and RetMFB are the forward and returned multi-bottleneck
	// headers of the Appendix B.1 extension.
	MFB    MultiHeader
	RetMFB MultiHeader
	// Cap is the TVA+ baseline's capability slot: the authorization the
	// sender presents for this packet.
	Cap Capability
	// CapGrant piggybacks a receiver's capability grant back to the
	// packet's destination (TVA+ baseline).
	CapGrant Capability
}

// Packet is a simulated packet, mutated in place as it traverses the
// network, mirroring how a real router rewrites the shim header. Hot
// paths draw packets from a Pool (netsim.Host.NewPacket) and the network
// recycles them at end of life; hand-constructed &Packet{} values work
// everywhere too and are simply never recycled.
//
// The struct is 120 bytes, two cache lines; on Passport runs it is made
// with its trailer block, 200 bytes. A pool carves packets from slabs
// that fill an allocator class (TestPacketLayoutBudget pins sizes,
// offsets and slabs). Every pooled, cached or in-flight packet costs
// that much heap, and Reset rewrites the struct per recycle, the
// block too once it has one. Line 0 holds what every hop reads —
// addressing, flow, size, channel; line 1 what access routers and shims
// read — the two feedback headers — and the pointers to what is
// optional: the Passport trailer and Ext. A copy of the struct shares
// both blocks with the original.
type Packet struct {
	TCP TCPInfo

	Src, Dst     NodeID
	SrcAS, DstAS ASID
	Flow         FlowID
	// Size is the total wire size in bytes, including all headers.
	Size int32
	// Payload is the number of application bytes carried.
	Payload int32

	Kind Kind
	// Prio is the request-packet priority level (§4.2); 0 is the lowest.
	Prio  uint8
	Proto Proto

	// pooled marks packets drawn from a Pool (only those are recycled),
	// and inPool guards against double release. See pool.go.
	pooled, inPool bool

	// FB is the forward congestion policing feedback.
	FB Feedback
	// Ret is the returned feedback for the reverse path.
	Ret Returned

	// Passport is the source-authentication trailer: made with the
	// packet on Passport runs, else nil until NeedPassport.
	Passport *PassportStamp

	// Ext holds the optional headers (Appendix B.1, TVA+); nil until
	// NeedExt.
	Ext *Ext
}

// NeedExt returns the packet's optional-header block, allocating it on
// first use.
func (p *Packet) NeedExt() *Ext {
	if p.Ext == nil {
		p.Ext = new(Ext)
	}
	return p.Ext
}

// passportInline is how many trailer entries a block is made with. Six
// covers the AS-level paths of every shipped topology (3 to 5 on the
// random-AS graph), so a packet's trailer needs no array of its own; a
// longer path grows one once (passport.StampHops), which the packet
// then keeps. The 32-byte block and six 8-byte entries take 80 bytes,
// the allocator's 80-byte class when made alone, and bring the 120-byte
// packet they are made with to 200 bytes.
const passportInline = 6

// passportBlock is a trailer block with its inline entries: what
// NeedPassport allocates alone, and what a trailer-making Pool carves
// beside each packet (passportPacket).
type passportBlock struct {
	PassportStamp
	inline [passportInline]PassportMAC
}

// attach makes b p's trailer block, its entries the inline array.
func (b *passportBlock) attach(p *Packet) *PassportStamp {
	b.Entries = b.inline[:0]
	p.Passport = &b.PassportStamp
	return p.Passport
}

// NeedPassport returns the packet's trailer block, allocating it with
// its inline entries when the packet has none: a packet from a pool of a
// Passport run is made with its block, so this is the fallback for
// hand-made packets and for pools that do not make trailers.
func (p *Packet) NeedPassport() *PassportStamp {
	if p.Passport == nil {
		return new(passportBlock).attach(p)
	}
	return p.Passport
}

// HasMFB reports whether the packet carries a forward Appendix B.1
// multi-bottleneck header.
func (p *Packet) HasMFB() bool { return p.Ext != nil && p.Ext.MFB.Present }

// IsSYN reports whether the packet is a TCP SYN (and not a SYN-ACK).
func (p *Packet) IsSYN() bool {
	return p.Proto == ProtoTCP && p.TCP.Flags&FlagSYN != 0 && p.TCP.Flags&FlagACK == 0
}

// Reverse returns src/dst metadata swapped, for building replies.
func (p *Packet) Reverse() (src, dst NodeID, srcAS, dstAS ASID) {
	return p.Dst, p.Src, p.DstAS, p.SrcAS
}

// Sizes of protocol headers in bytes, matching §4.6 of the paper: a
// request packet is estimated as 92 B = 40 B TCP/IP + 28 B NetFence header
// + 24 B Passport header.
const (
	SizeIPTCP      = 40
	SizeIPUDP      = 28
	SizeNetFence   = 20 // common case: nop feedback both directions (§6.1)
	SizeNetFenceMx = 28 // worst case: mon feedback both directions
	SizePassport   = 24
	// SizeRequest is the canonical request-packet size used throughout the
	// paper's evaluation.
	SizeRequest = SizeIPTCP + SizeNetFenceMx + SizePassport
	// SizeData is the canonical full-size data packet.
	SizeData = 1500
	// SizeACK is a TCP ACK carrying NetFence and Passport headers.
	SizeACK = SizeIPTCP + SizeNetFenceMx + SizePassport
	// SizeFeedbackPkt is a dedicated feedback packet (UDP).
	SizeFeedbackPkt = SizeIPUDP + SizeNetFenceMx + SizePassport
)
