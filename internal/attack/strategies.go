package attack

import (
	"fmt"
	"math"

	"netfence/internal/core"
	"netfence/internal/packet"
	"netfence/internal/ratelimit"
)

// rateMultSpec is the rate knob every in-tree strategy shares: the
// per-sender rate is RateBps (default 1 Mbps) times this multiplier,
// so a search can push a strategy past the paper's fixed load without
// a separate rate axis.
var rateMultSpec = ParamSpec{
	Name: "rate_mult", Desc: "per-sender rate multiplier on the base attack rate",
	Min: 0.1, Max: 8, Default: 1,
}

// strategies is the table of in-tree strategies. Each declares its
// tunable surface: Build validates BuildOptions.Params against it, and
// the adversarial search treats it as the dimensions of the strategy's
// configuration space.
var strategies = map[string]strategy{
	"flood": {newFlood, []ParamSpec{rateMultSpec}},
	"onoff-sync": {newOnOffSync, []ParamSpec{
		{Name: "on", Desc: "burst length in AIMD control intervals", Min: 1, Max: 8, Default: 1, Integer: true},
		{Name: "off", Desc: "silence length in AIMD control intervals", Min: 1, Max: 8, Default: 2, Integer: true},
		{Name: "trickle_bps", Desc: "off-phase trickle rate harvesting L-up feedback (0 = full silence)", Min: 0, Max: 200_000, Default: 0},
		rateMultSpec,
	}},
	"request-prio": {newRequestPrio, []ParamSpec{
		{Name: "level", Desc: "request priority level (0 = the computed §6.3.1 strategic level)", Min: 0, Max: 20, Default: 0, Integer: true},
		rateMultSpec,
	}},
	"replay": {newReplay, []ParamSpec{
		{Name: "cadence", Desc: "re-harvest a fresh token every N control intervals (0 = cache once, replay forever)", Min: 0, Max: 32, Default: 0, Integer: true},
		rateMultSpec,
	}},
	"legacy-flood": {newLegacyFlood, []ParamSpec{
		{Name: "legacy_frac", Desc: "fraction of senders crafting legacy packets; the rest flood the honest policed path", Min: 0, Max: 1, Default: 1},
		rateMultSpec,
	}},
}

// StrategicRequestLevel computes the request-channel attack strategy of
// §6.3.1: the highest priority level at which the aggregate admitted
// attack traffic still saturates the request channel. attackers is the
// flood population, bottleneckBps the link capacity. (Moved here from
// internal/core: it is an adversary decision, not a defense function.)
func StrategicRequestLevel(attackers int, bottleneckBps int64) uint8 {
	channel := core.RequestCapFrac * float64(bottleneckBps)
	level := uint8(1)
	for level < ratelimit.MaxPrioLevel {
		next := level + 1
		// Admitted per-sender packet rate at a level halves per step.
		perSender := ratelimit.DefaultTokenRate / float64(uint64(1)<<(next-1))
		aggregate := float64(attackers) * perSender * packet.SizeRequest * 8
		if aggregate < channel {
			break
		}
		level = next
	}
	return level
}

// DefaultNu is the assumed transport efficiency ν used to discount the
// TheoremBound rate-limit floor down to a goodput floor — conservative
// for the evaluation's TCP workloads at small scales. Shared by
// BoundProbe's default and the strategic experiment so their floors
// never diverge.
const DefaultNu = 0.5

// TheoremBound returns the Theorem 1 (§3.4, Appendix A) lower bound
// rho·C/(G+B) with rho = (1-δ)³, δ the AIMD multiplicative decrease of
// ratelimit.DefaultAIMD, on the rate limit of any sender with sufficient
// demand: the share a legitimate sender keeps regardless of the
// attackers' strategy. senders is G+B, the total competing population;
// the result is 0 when the inputs are degenerate, and TheoremBound(1, 1)
// is rho itself.
func TheoremBound(bottleneckBps int64, senders int) float64 {
	if bottleneckBps <= 0 || senders <= 0 {
		return 0
	}
	rho := math.Pow(1-ratelimit.DefaultAIMD().MD, 3)
	return rho * float64(bottleneckBps) / float64(senders)
}

// base carries the rate/packet-size plumbing shared by the in-tree
// strategies and provides the no-op defaults (honest crafting, no
// feedback observation).
type base struct {
	name    string
	rate    int64
	pktSize int32
}

func newBase(name string, opts BuildOptions, pktSize int32) base {
	b := base{name: name, rate: opts.RateBps, pktSize: pktSize}
	if b.rate <= 0 {
		b.rate = 1_000_000
	}
	if m := opts.Param("rate_mult", rateMultSpec.Default); m != rateMultSpec.Default {
		b.rate = int64(float64(b.rate) * m)
		if b.rate < 1 {
			b.rate = 1
		}
	}
	return b
}

func (b base) Name() string                       { return b.name }
func (b base) decision() Decision                 { return Decision{RateBps: b.rate, PktSize: b.pktSize} }
func (b base) Observe(*Sender, packet.Feedback)   {}
func (b base) Craft(*Sender, *packet.Packet) bool { return false }

// flood is the baseline constant-rate UDP flood of §6.1/§6.3.2 — the
// paper's 1 Mbps-per-attacker load — expressed as a strategy: every
// packet takes the honest shim path, so under NetFence it is policed
// onto the regular channel and pinned to the AIMD fair share.
type flood struct{ base }

func newFlood(opts BuildOptions) (Strategy, error) {
	return &flood{newBase("flood", opts, packet.SizeData)}, nil
}

func (f *flood) Start(*Sender) Decision { return f.decision() }
func (f *flood) Tick(*Sender) Decision  { return f.decision() }

// onoffSync is the synchronized on-off attack of §6.3.2 phase-locked to
// the AIMD control interval: every sender derives its phase from the
// shared simulation clock, so all bursts land in the same control
// intervals — Theorem 1's worst-case timing.
type onoffSync struct {
	base
	// on and off are the burst and silence lengths in AIMD control
	// intervals (params "on" and "off", defaults 1 and 2: burst one
	// interval, then hide for exactly the paper's L-down hysteresis
	// window — footnote 1 proves 2 intervals is the minimum robust
	// value, so this shape is the strongest timed attack against it).
	on, off int
	// trickle keeps a low-rate trickle during off phases, harvesting
	// L-up feedback between bursts (param "trickle_bps", 0 = full
	// silence).
	trickle int64
}

func newOnOffSync(opts BuildOptions) (Strategy, error) {
	return &onoffSync{
		base:    newBase("onoff-sync", opts, packet.SizeData),
		on:      int(opts.Param("on", 1)),
		off:     int(opts.Param("off", 2)),
		trickle: int64(opts.Param("trickle_bps", 0)),
	}, nil
}

func (o *onoffSync) decide(s *Sender) Decision {
	idx := int(s.Env().Eng.Now()/core.Ilim) % (o.on + o.off)
	if idx < o.on {
		return o.decision()
	}
	return Decision{RateBps: o.trickle, PktSize: o.pktSize}
}

func (o *onoffSync) Start(s *Sender) Decision { return o.decide(s) }
func (o *onoffSync) Tick(s *Sender) Decision  { return o.decide(s) }

// requestPrio is the adaptive request-channel attack of §6.3.1: the
// population computes the highest priority level whose aggregate
// admitted traffic still saturates the request channel and blasts
// request packets at exactly that level — low enough to afford, high
// enough to starve legitimate connection requests below it.
type requestPrio struct {
	base
	level uint8
}

func newRequestPrio(opts BuildOptions) (Strategy, error) {
	if opts.Env == nil || opts.Env.BottleneckBps <= 0 {
		return nil, fmt.Errorf("request-prio needs a topology with a tagged bottleneck link to compute the §6.3.1 level")
	}
	level := StrategicRequestLevel(opts.Env.Attackers, opts.Env.BottleneckBps)
	// The "level" param pins the priority explicitly (a search probing
	// whether the computed §6.3.1 level really is optimal); 0 keeps the
	// computed one. Clamped to ratelimit.MaxPrioLevel.
	if v := opts.Param("level", 0); v > 0 {
		level = uint8(v)
		if level > ratelimit.MaxPrioLevel {
			level = ratelimit.MaxPrioLevel
		}
	}
	return &requestPrio{
		base:  newBase("request-prio", opts, packet.SizeRequest),
		level: level,
	}, nil
}

// Level exposes the computed §6.3.1 priority level.
func (r *requestPrio) Level() uint8 { return r.level }

func (r *requestPrio) Start(*Sender) Decision { return r.decision() }
func (r *requestPrio) Tick(*Sender) Decision  { return r.decision() }

func (r *requestPrio) Craft(_ *Sender, p *packet.Packet) bool {
	p.Kind = packet.KindRequest
	p.Prio = r.level
	p.FB = packet.Feedback{}
	return true
}

// replay caches the first congestion policing feedback the network
// returns and presents that same token on every subsequent packet,
// across key rotations — probing whether stale feedback survives the
// keyring's MAC expiry (§4.4). It must not: once the token ages past
// the freshness window w (and the stamping key rotates away), every
// replayed packet is demoted to the request channel at priority 0.
type replay struct {
	base
	// cadence > 0 drops the cached token every cadence control
	// intervals to harvest a fresh one — the stronger shape a search
	// can find, replaying tokens that never age past the freshness
	// window; 0 is the classic cache-once probe.
	cadence int
}

// replayState is replay's per-sender cache: the token being presented
// (packet.Feedback or packet.MultiHeader) and its age in control
// intervals.
type replayState struct {
	tok any
	age int
}

func newReplay(opts BuildOptions) (Strategy, error) {
	return &replay{
		base:    newBase("replay", opts, packet.SizeData),
		cadence: int(opts.Param("cadence", 0)),
	}, nil
}

func (r *replay) state(s *Sender) *replayState {
	st, ok := s.State.(*replayState)
	if !ok {
		st = &replayState{}
		s.State = st
	}
	return st
}

func (r *replay) Start(*Sender) Decision { return r.decision() }

func (r *replay) Tick(s *Sender) Decision {
	if r.cadence > 0 {
		if st, ok := s.State.(*replayState); ok && st.tok != nil {
			if st.age++; st.age >= r.cadence {
				// Drop the cache: the next returned feedback (or, for
				// multi-bottleneck headers, the next Craft) re-caches a
				// fresh token.
				st.tok, st.age = nil, 0
			}
		}
	}
	return r.decision()
}

func (r *replay) Observe(s *Sender, fb packet.Feedback) {
	if st := r.state(s); st.tok == nil {
		st.tok = fb
		st.age = 0
	}
}

func (r *replay) Craft(s *Sender, p *packet.Packet) bool {
	st := r.state(s)
	if st.tok == nil {
		if mfb, ok := s.LastMFB(); ok {
			// Appendix B.1 configurations return the chained multi-
			// bottleneck header instead of single feedback; cache it
			// the same way (Observe never fires for it).
			st.tok = mfb
			st.age = 0
		}
	}
	switch fb := st.tok.(type) {
	case packet.Feedback:
		p.Kind = packet.KindRegular
		p.FB = fb
		return true
	case packet.MultiHeader:
		p.Kind = packet.KindRegular
		p.NeedExt().MFB = fb
		p.FB = packet.Feedback{}
		return true
	}
	return false // honest until there is something to replay
}

// legacyFlood models undeployed-AS traffic under partial deployment:
// packets carry no congestion policing feedback at all and ride the
// best-effort legacy channel (§4.4), which a NetFence bottleneck serves
// only when the request and regular channels are idle. Senders in
// deployed ASes crafting such packets opt out of policing — and out of
// priority with it.
type legacyFlood struct {
	base
	// crafters is how many senders (by workload Index, lowest first)
	// craft legacy packets; the rest flood the honest policed path —
	// the mixed population the "legacy_frac" param sweeps.
	crafters int
}

func newLegacyFlood(opts BuildOptions) (Strategy, error) {
	attackers := 1
	if opts.Env != nil && opts.Env.Attackers > 0 {
		attackers = opts.Env.Attackers
	}
	crafters := attackers
	if frac := opts.Param("legacy_frac", 1); frac < 1 {
		crafters = int(math.Round(frac * float64(attackers)))
	}
	return &legacyFlood{
		base:     newBase("legacy-flood", opts, packet.SizeData),
		crafters: crafters,
	}, nil
}

func (l *legacyFlood) Start(*Sender) Decision { return l.decision() }
func (l *legacyFlood) Tick(*Sender) Decision  { return l.decision() }

func (l *legacyFlood) Craft(s *Sender, p *packet.Packet) bool {
	if s != nil && s.Index >= l.crafters {
		return false // honest-path tail of the split population
	}
	p.Kind = packet.KindLegacy
	p.Prio = 0
	p.FB = packet.Feedback{}
	return true
}
