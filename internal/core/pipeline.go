package core

import (
	"context"
	"math"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"netfence/internal/cmac"
	"netfence/internal/feedback"
	"netfence/internal/netsim"
	"netfence/internal/obs"
	"netfence/internal/packet"
	"netfence/internal/sim"
)

// Pipeline is the sharded validation stage of one destination shard: it
// fans a cut-link handoff batch out to a worker pool that precomputes
// each packet's MAC verdict — the feedback.Validate verdict the access
// router would compute, and the Registry.Verify boolean the bottleneck's
// Passport hook would compute — so the serialized execute phase consumes
// cached verdicts instead of running CMAC inline. The per-packet AES
// work the §5.1 scalability analysis budgets for is exactly the work
// that Amdahl-caps the bottleneck shard, and it is a pure function of
// the packet bytes and the key epoch, which is what makes the stage
// legal.
//
// Determinism contract. Submit runs between the coordinator's drain
// barrier and the mailbox Drain, when every shard is parked and all
// shard state is frozen; workers therefore read rings, the Passport
// registry and the routing table freely, and the only shared-mutable
// hazards, CMAC scratch and the registry's CMAC cache, each worker
// sidesteps with private CMACs: clones, or made of raw pair keys.
// A verdict is written into the packet's trailer block
// (packet.PassportStamp), which the worker makes when the packet has
// none: a packet of a batch is in exactly one chunk, so one worker is
// its only writer until Wait. Verdicts are pure given the key epoch, so
// precomputation is only legal for arrivals before the next unexecuted
// KeyRotate tick: arrivals at or past that boundary are skipped (counted
// as rotation fallbacks) and validated inline by the consumer. The
// consumers additionally re-check the verdict's binding — link identity
// for Passport, router identity and ring epoch for feedback — so a stale
// or mispredicted cache is dropped, never wrong, and results stay
// byte-identical to the single engine at every shard count.
type Pipeline struct {
	sys *System
	net *netsim.Network

	jobs    chan pipeJob
	wg      sync.WaitGroup
	stopped sync.Once

	// precomputed is written by the workers (the one cross-goroutine
	// stat); the rest accumulate on the drain goroutine. Wait folds all
	// of them into the shard's runtime-plane cells.
	precomputed                 atomic.Uint64
	batches, packets, fallbacks uint64
}

// pipeChunk is the fan-out granularity: one job per chunk of a handoff
// batch, small enough to spread a big batch across workers, large
// enough to amortize the channel hop.
const pipeChunk = 64

type pipeJob struct {
	keys []sim.EventKey
	pkts []*packet.Packet
	dest *netsim.Link
}

// NewPipeline starts the validation stage for one destination shard.
// name labels the workers' pprof profiles (the shard's AS span, like
// the coordinator's shard goroutines).
func NewPipeline(sys *System, net *netsim.Network, name string, workers int) *Pipeline {
	if workers < 1 {
		workers = 1
	}
	pl := &Pipeline{
		sys:  sys,
		net:  net,
		jobs: make(chan pipeJob, 4*workers),
	}
	for i := 0; i < workers; i++ {
		go pl.worker(name, i)
	}
	return pl
}

// Stop terminates the worker pool. No Submit may follow.
func (pl *Pipeline) Stop() {
	pl.stopped.Do(func() { close(pl.jobs) })
}

// Submit fans the pending handoff batches of the shard's inbound
// mailboxes out to the worker pool. Call it on the destination shard's
// goroutine after the coordinator's drain barrier and before the
// mailbox Drains, then Wait before the first Drain — validation of one
// mailbox's batch overlaps the submission walk over the rest, and every
// verdict is cached before any arrival is injected.
func (pl *Pipeline) Submit(mbs []*netsim.Mailbox) {
	limit := pl.nextRotation(pl.net.Eng.Now())
	for _, mb := range mbs {
		keys, pkts := mb.Pending()
		if len(keys) == 0 {
			continue
		}
		pl.batches++
		pl.packets += uint64(len(keys))
		// Keys ascend within a slab, so the rotation boundary splits it at
		// one index: everything from the first arrival at or past the next
		// unexecuted KeyRotate tick falls back to inline validation
		// (key order decides whether the rotation runs first).
		n := sort.Search(len(keys), func(i int) bool { return keys[i].At >= limit })
		pl.fallbacks += uint64(len(keys) - n)
		dest := mb.DestLink()
		for lo := 0; lo < n; lo += pipeChunk {
			hi := lo + pipeChunk
			if hi > n {
				hi = n
			}
			pl.wg.Add(1)
			pl.jobs <- pipeJob{keys: keys[lo:hi], pkts: pkts[lo:hi], dest: dest}
		}
	}
}

// Wait blocks until every submitted chunk is validated, then folds the
// round's stats into the shard's runtime-plane cells (on the calling
// drain goroutine — the cells' single writer).
func (pl *Pipeline) Wait() {
	pl.wg.Wait()
	cells := pl.net.Cells
	cells.Add(obs.PipelineBatches, pl.batches)
	cells.Add(obs.PipelinePackets, pl.packets)
	cells.Add(obs.PipelineRotationFallbacks, pl.fallbacks)
	cells.Add(obs.PipelinePrecomputed, pl.precomputed.Swap(0))
	pl.batches, pl.packets, pl.fallbacks = 0, 0, 0
}

// nextRotation returns the earliest unexecuted KeyRotate tick at or
// after now (the window start: everything strictly before has run).
// Rotation tickers are created at build time, so they fire at exact
// multiples of Cfg.KeyRotate; a router armed mid-run by a deploy
// mutation rotates off-schedule, which the consumers' epoch check
// absorbs — the boundary here is the planning rule, the epoch check the
// safety net.
func (pl *Pipeline) nextRotation(now sim.Time) sim.Time {
	kr := pl.sys.Cfg.KeyRotate
	if kr <= 0 {
		return math.MaxInt64
	}
	k := now / kr
	if now%kr != 0 {
		k++
	}
	if k == 0 {
		k = 1
	}
	return k * kr
}

// pipeWorker is one pool goroutine's private state: CMACs keyed by the
// instance they clone or the pair key they are made of, so each worker
// pays one per key it ever touches and zero allocations after warm-up.
type pipeWorker struct {
	pl     *Pipeline
	clones map[*cmac.CMAC]*cmac.CMAC
	pairs  map[cmac.Key]*cmac.CMAC
}

func (pl *Pipeline) worker(name string, id int) {
	labels := pprof.Labels("pipeline", name, "worker", strconv.Itoa(id))
	pprof.Do(context.Background(), labels, func(context.Context) {
		w := &pipeWorker{pl: pl, clones: make(map[*cmac.CMAC]*cmac.CMAC), pairs: make(map[cmac.Key]*cmac.CMAC)}
		for job := range pl.jobs {
			n := uint64(0)
			for i, p := range job.pkts {
				did := w.feedbackVerdict(p, job.dest, job.keys[i].At)
				if w.passportVerdict(p, job.dest) {
					did = true
				}
				if did {
					n++
				}
			}
			if n > 0 {
				pl.precomputed.Add(n)
			}
			pl.wg.Done()
		}
	})
}

// clone returns the worker's private duplicate of a shared CMAC.
func (w *pipeWorker) clone(c *cmac.CMAC) *cmac.CMAC {
	cl := w.clones[c]
	if cl == nil {
		cl = c.Clone()
		w.clones[c] = cl
	}
	return cl
}

// pair returns the worker's own CMAC of the key ASes a and b share, nil
// for an unknown pair (as Registry.Key).
func (w *pipeWorker) pair(a, b packet.ASID) *cmac.CMAC {
	k, ok := w.pl.sys.Registry.Raw(a, b)
	if !ok {
		return nil
	}
	if w.pairs[k] == nil {
		w.pairs[k] = cmac.New(k)
	}
	return w.pairs[k]
}

// feedbackVerdict precomputes the access-policing verdict for a handoff
// arriving over dest, when that arrival is one an access router will
// police: a regular packet from a directly attached same-AS host. The
// verdict is computed with the arrival instant's timestamp (the
// freshness window is evaluated in arrival-time seconds, not drain
// time) and tagged with the router and its ring epoch; AccessRouter.
// validate consumes it only while both still match.
func (w *pipeWorker) feedbackVerdict(p *packet.Packet, dest *netsim.Link, at sim.Time) bool {
	sys := w.pl.sys
	if sys.Cfg.MultiFeedback || p.Kind != packet.KindRegular {
		return false
	}
	node := dest.To
	if !dest.From.IsHost || dest.From.AS != node.AS {
		return false
	}
	ar := sys.accesses[node.ID]
	if ar == nil {
		return false
	}
	cur, prev := ar.ring.Keys()
	ccur := w.clone(cur)
	cprev := ccur
	if prev != cur {
		cprev = w.clone(prev)
	}
	kai := func(link packet.LinkID) *cmac.CMAC {
		if l := w.pl.net.LinkByID(link); l != nil {
			return w.pair(node.AS, l.From.AS)
		}
		return nil
	}
	v := feedback.ComputeVerdict(ccur, cprev, kai, p, uint32(at/sim.Second), sys.Cfg.WSec)
	st := p.NeedPassport()
	st.FVNode = node.ID
	st.FVEpoch = uint32(ar.ring.Epoch())
	st.FVVerdict = uint8(v)
	st.FVSet = true
	return true
}

// passportVerdict precomputes the Passport verify verdict at the first
// protected link the handoff will enqueue on before a cut link (past
// one, this shard deploys no bottleneck). Routing is static and the
// hops before that link are plain FIFOs that never touch the trailer,
// so the verdict computed here — via the pure Registry.Check, leaving
// the trailer's consumption to the hook's passport.Apply — is exactly
// the verdict Verify would compute there. The effective channel is the
// §4.4 demotion predicate evaluated without mutating: a packet the
// first nfQueue will demote to legacy is never verified at all.
func (w *pipeWorker) passportVerdict(p *packet.Packet, dest *netsim.Link) bool {
	sys := w.pl.sys
	if !sys.Cfg.Passport || sys.Registry == nil {
		return false
	}
	kind := p.Kind
	if kind == packet.KindRegular && p.FB == (packet.Feedback{}) && !p.HasMFB() {
		kind = packet.KindLegacy
	}
	if kind != packet.KindRequest && kind != packet.KindRegular {
		return false
	}
	net := w.pl.net
	at := dest.To
	for hops := 0; at.ID != p.Dst && hops < len(net.Nodes); hops++ {
		l := net.Route(at, p.Dst)
		if l == nil {
			return false
		}
		if b := sys.bottlenecks[l.ID]; b != nil && b.q.verify != nil {
			if p.SrcAS == l.From.AS {
				// The hook passes same-AS traffic without touching the
				// trailer; the next protected link does the verifying.
				at = l.To
				continue
			}
			ok, consume := sys.Registry.Check(p, l.From.AS, w.pair(p.SrcAS, l.From.AS))
			st := p.NeedPassport()
			st.PVOK = ok
			st.PVConsume = int16(consume)
			st.PVLink = l.ID
			return true
		}
		if l.Cut() {
			return false
		}
		at = l.To
	}
	return false
}
