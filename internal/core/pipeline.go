package core

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"netfence/internal/cmac"
	"netfence/internal/netsim"
	"netfence/internal/obs"
	"netfence/internal/packet"
)

// Pipeline is the sharded validation stage of one destination shard: it
// fans a cut-link handoff batch out to a worker pool that precomputes
// each packet's Passport verdict — the Registry.Verify boolean the
// bottleneck's Passport hook would compute — so the serialized execute
// phase consumes cached verdicts instead of running CMAC inline. The
// per-packet AES work the §5.1 scalability analysis budgets for is
// exactly the work that Amdahl-caps the bottleneck shard, and it is a
// pure function of the packet bytes and the AS-pair keys, which never
// rotate, so it can run before the arrivals execute.
//
// Only Passport verdicts can cross a shard. The other per-packet MAC
// check, the access router's feedback validation (§4.4), polices a
// host's uplink to its own AS's router, and an AS-atomic partition never
// cuts an intra-AS link (topo.ErrSplitIntraAS), so no handoff ever
// reaches an access router's policing over a cut link.
//
// Determinism contract. Submit runs between the coordinator's drain
// barrier and the mailbox Drain, when every shard is parked and all
// shard state is frozen; workers therefore read the Passport registry
// and the routing table freely, and sidestep the one shared-mutable
// hazard, the registry's CMAC cache, with private CMACs made of raw pair
// keys. A verdict is written into the packet's trailer block
// (packet.PassportStamp): a pooled packet of a Passport run is made with
// one, and the worker makes it for a packet that has none. A packet of a
// batch is in exactly one chunk, so one worker is its only writer until
// Wait. The bottleneck's hook re-checks the verdict's binding (the link
// it was computed for), so an unconsumed or mispredicted cache is
// dropped, never wrong, and results stay byte-identical to the single
// engine at every shard count.
type Pipeline struct {
	sys *System
	net *netsim.Network

	jobs    chan pipeJob
	wg      sync.WaitGroup
	stopped sync.Once

	// precomputed is written by the workers (the one cross-goroutine
	// stat); the rest accumulate on the drain goroutine. Wait folds all
	// of them into the shard's runtime-plane cells.
	precomputed      atomic.Uint64
	batches, packets uint64
}

// pipeChunk is the fan-out granularity: one job per chunk of a handoff
// batch, small enough to spread a big batch across workers, large
// enough to amortize the channel hop.
const pipeChunk = 64

type pipeJob struct {
	pkts []*packet.Packet
	dest *netsim.Link
}

// NewPipeline starts the validation stage for one destination shard of
// a system that verifies Passport trailers (Cfg.Passport with a
// Registry); without them the stage has nothing to precompute. name
// labels the workers' pprof profiles (the shard's AS span, like
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
	for _, mb := range mbs {
		pkts := mb.Pending()
		if len(pkts) == 0 {
			continue
		}
		pl.batches++
		pl.packets += uint64(len(pkts))
		dest := mb.DestLink()
		for lo := 0; lo < len(pkts); lo += pipeChunk {
			hi := min(lo+pipeChunk, len(pkts))
			pl.wg.Add(1)
			pl.jobs <- pipeJob{pkts: pkts[lo:hi], dest: dest}
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
	cells.Add(obs.PipelinePrecomputed, pl.precomputed.Swap(0))
	pl.batches, pl.packets = 0, 0
}

// pipeWorker is one pool goroutine's private state: CMACs keyed by the
// pair key they are made of, so each worker pays one per key it ever
// touches and zero allocations after warm-up.
type pipeWorker struct {
	pl    *Pipeline
	pairs map[cmac.Key]*cmac.CMAC
}

func (pl *Pipeline) worker(name string, id int) {
	labels := pprof.Labels("pipeline", name, "worker", strconv.Itoa(id))
	pprof.Do(context.Background(), labels, func(context.Context) {
		w := &pipeWorker{pl: pl, pairs: make(map[cmac.Key]*cmac.CMAC)}
		for job := range pl.jobs {
			n := uint64(0)
			for _, p := range job.pkts {
				if w.passportVerdict(p, job.dest) {
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
