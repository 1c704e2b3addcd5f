package engine

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"

	"carpool/internal/bloom"
	"carpool/internal/core"
	"carpool/internal/faults"
	"carpool/internal/fec"
	"carpool/internal/mac"
	"carpool/internal/sim"
)

// Transport carries one planned aggregate to its receivers and reports
// per-subframe delivery. Implementations must be safe for concurrent
// Deliver calls from the engine's worker pool.
type Transport interface {
	// Deliver transmits plan and returns one delivery verdict per
	// plan.Subs entry (plan.Verdicts supplies the slice without
	// allocating). A non-nil error is a transport-level failure; the
	// engine treats every subframe of that plan as undelivered (retry
	// path) and keeps running.
	Deliver(ctx context.Context, plan *Plan) ([]bool, error)
}

// FECResult is one erasure-coded delivery's outcome, indexed by the
// plan's data subframes (parity subframes have no verdict of their own).
type FECResult struct {
	// Direct marks data subframes whose receiver decoded them off the air.
	Direct []bool
	// Recovered marks data subframes that were lost directly but rebuilt
	// byte-exactly from overheard shards plus parity. Disjoint from
	// Direct; a subframe with neither flag falls to the retry path.
	Recovered []bool
}

// FECTransport is a Transport that can also deliver erasure-coded plans:
// the engine routes every StrategyFEC transmission through DeliverFEC.
type FECTransport interface {
	Transport
	// DeliverFEC transmits a plan whose trailing len(Subs)-DataSubs
	// subframes are parity, reporting direct reception and parity
	// recovery per data subframe. Implementations must be safe for
	// concurrent calls, like Deliver.
	DeliverFEC(ctx context.Context, plan *Plan) (FECResult, error)
}

// deliver routes one plan through the configured transport: the plain
// Deliver path under StrategyRetry, the erasure path under StrategyFEC
// with parity recovery folded into the per-data-subframe verdicts. The
// returned recovered slice is nil outside FEC mode.
func (e *Engine) deliver(ctx context.Context, plan *Plan) (ok, recovered []bool, err error) {
	if e.fecK == 0 {
		ok, err = e.cfg.Transport.Deliver(ctx, plan)
		return ok, nil, err
	}
	res, err := e.cfg.Transport.(FECTransport).DeliverFEC(ctx, plan)
	if err != nil {
		return nil, nil, err
	}
	ok = res.Direct
	for i, r := range res.Recovered {
		if r {
			ok[i] = true
		}
	}
	return ok, res.Recovered, nil
}

// OracleTransport decides delivery with a mac.DeliveryOracle over the
// plan's symbol spans — the fast serving path, and the bridge that lets a
// deterministic engine run share its loss model with the discrete-event
// simulator. One oracle call decides each subframe (shared fate, one FCS
// per subframe).
type OracleTransport struct {
	// Oracle decides per-subframe delivery; nil is lossless.
	Oracle mac.DeliveryOracle
	// Locations maps station index to trace location ID (nil: all zero).
	Locations []int
	// StandardEstimate disables RTE decoding in the oracle query (the
	// MU-Aggregation ablation); the default is Carpool's RTE.
	StandardEstimate bool

	// mu serializes oracle access: trace and fixed oracles hold RNG state.
	mu sync.Mutex
}

// Deliver queries the oracle once per subframe.
func (t *OracleTransport) Deliver(_ context.Context, plan *Plan) ([]bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ok := plan.Verdicts(len(plan.Subs))
	for i, sub := range plan.Subs {
		if t.Oracle == nil {
			ok[i] = true
			continue
		}
		loc := 0
		if t.Locations != nil {
			loc = t.Locations[sub.STA]
		}
		var err error
		ok[i], err = t.Oracle.SubframeOK(loc, !t.StandardEstimate, sub.StartSym, sub.NumSym)
		if err != nil {
			return nil, err
		}
	}
	return ok, nil
}

// STAMAC returns station i's deterministic hardware address: a locally
// administered OUI shared by the engine's transmitter and receivers.
func STAMAC(i int) bloom.MAC {
	return bloom.MAC{0x02, 0xcb, 0x70, byte(i >> 16), byte(i >> 8), byte(i)}
}

// ParityMAC returns parity slot j's reserved address. Parity subframes
// belong to no station, but each still occupies an A-HDR receiver entry,
// so the coded-Bloom filter and SIG chain stay well-formed; the reserved
// OUI keeps the addresses disjoint from every STAMAC.
func ParityMAC(j int) bloom.MAC {
	return bloom.MAC{0x02, 0xcb, 0x71, 0xff, 0xff, byte(j)}
}

// CodedOracleTransport is the FEC-capable oracle transport: per-shard
// reception is decided by a mac.DeliveryOracle over every subframe's
// symbol span (mac.HeardMask) for each receiver's location, and a
// receiver that loses its own subframe reconstructs it from the shards
// it overheard through the fec.RS erasure coder. Recovery is byte-true —
// it counts only when the rebuilt shard equals what was sent — so a
// corrupted GF(256) kernel surfaces as delivery failures, not as
// silently wrong payloads.
type CodedOracleTransport struct {
	OracleTransport

	// Seed parameterizes the deterministic size-only shard filler
	// (fillSubframe, as PHYTransport uses it).
	Seed int64
	// ErasePattern, when non-nil, erases individual shard receptions on
	// top of the oracle verdicts: reception of shard index shard by
	// station sta on transmission seq is lost when it returns true (own
	// marks the receiver's own data subframe). Deterministic loss
	// injection for tests and the conformance pairs.
	ErasePattern func(seq uint64, sta, shard int, own bool) bool
	// CorruptParity, when non-nil, mutates the encoded parity shards
	// before delivery — the conformance harness's injected-bug hook.
	CorruptParity func(parity [][]byte)

	// work pools the per-call working sets (see fecWork), so concurrent
	// deliveries share no scratch and the embedded mu covers only the
	// oracle and the two hooks above.
	work sync.Pool
}

var _ FECTransport = (*CodedOracleTransport)(nil)

// DeliverFEC stages the plan's shards, encodes parity, and plays every
// receiver's reception through the oracle: direct delivery when the
// station hears its own subframe, parity reconstruction when it hears at
// least DataSubs of the aggregate's shards. Only the oracle queries and
// the hooks (either may hold unsynchronized state) run under mu; staging,
// coding and the byte-true compare run on the call's own working set, so
// the engine's workers code side by side.
func (t *CodedOracleTransport) DeliverFEC(ctx context.Context, plan *Plan) (FECResult, error) {
	k := plan.DataSubs
	total := len(plan.Subs)
	if total == k {
		// No parity aboard (defensive: the FEC planner always appends
		// some): plain per-subframe oracle verdicts.
		return uncodedResult(t.OracleTransport.Deliver(ctx, plan))
	}
	w := getFECWork(&t.work)
	defer t.work.Put(w)
	if err := w.stage(t.Seed, plan); err != nil {
		return FECResult{}, err
	}
	res := plan.fecVerdicts()
	if err := t.hear(plan, w, res); err != nil {
		return FECResult{}, err
	}
	for i, try := range res.Recovered {
		if try {
			res.Recovered[i] = w.rebuild(i, w.heard[i*total:(i+1)*total])
		}
	}
	return res, nil
}

// hear is DeliverFEC's locked part. It runs the CorruptParity hook, fills
// the reception matrix (row i of w.heard is what receiver i heard of every
// shard, oracle verdicts less ErasePattern erasures), and sets Direct;
// Recovered comes back marking the receivers worth a rebuild attempt.
func (t *CodedOracleTransport) hear(plan *Plan, w *fecWork, res FECResult) error {
	k, total := plan.DataSubs, len(plan.Subs)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.CorruptParity != nil {
		t.CorruptParity(w.air[k:])
	}
	for i := 0; i < k; i++ {
		sta := plan.Subs[i].STA
		loc := 0
		if t.Locations != nil {
			loc = t.Locations[sta]
		}
		heard := w.heard[i*total : (i+1)*total]
		n, err := mac.HeardMask(t.Oracle, loc, !t.StandardEstimate, w.spans, heard)
		if err != nil {
			return err
		}
		if t.ErasePattern != nil {
			for j := range heard {
				if heard[j] && t.ErasePattern(plan.Seq, sta, j, j == i) {
					heard[j] = false
					n--
				}
			}
		}
		res.Direct[i] = heard[i]
		res.Recovered[i] = !heard[i] && n >= k
	}
	return nil
}

// uncodedResult adapts a plain Deliver verdict to a parity-less coded plan.
func uncodedResult(ok []bool, err error) (FECResult, error) {
	if err != nil {
		return FECResult{}, err
	}
	return FECResult{Direct: ok, Recovered: make([]bool, len(ok))}, nil
}

// fecWork is one DeliverFEC call's working set. A transport pools them, so
// a steady-state delivery allocates nothing and concurrent deliveries never
// share a buffer or a coder (fec.RS decode scratch is single-user).
//
// The slab holds total+1 regions of shardLen bytes: the data shards, each
// a subframe's payload followed by a cleared pad tail (the zero-padded
// truth the byte-true compare reads), the parity shards, and one rebuild
// buffer. air[j] is what subframe j carries on the air and what the ragged
// coder reads: a data payload at its true length, a parity shard in full.
type fecWork struct {
	coders   map[int]*fec.RS
	rs       *fec.RS    // the staged plan's coder
	rng      *rand.Rand // size-only filler stream, reseeded per subframe
	slab     []byte
	shardLen int
	air      [][]byte
	shards   [][]byte         // ReconstructInto's argument
	spans    []mac.SymbolSpan // the plan's subframe spans
	heard    []bool           // DataSubs x total reception matrix
}

// getFECWork takes a working set from a transport's pool (a new one the
// first time); the caller puts it back when the delivery returns.
func getFECWork(pool *sync.Pool) *fecWork {
	if w, ok := pool.Get().(*fecWork); ok {
		return w
	}
	return &fecWork{coders: make(map[int]*fec.RS), rng: rand.New(rand.NewSource(0))}
}

// shard returns slab region j.
func (w *fecWork) shard(j int) []byte {
	return w.slab[j*w.shardLen : (j+1)*w.shardLen : (j+1)*w.shardLen]
}

// stage copies the plan's payloads straight into the slab, clears only the
// pad tails, and encodes the parity over the ragged views.
func (w *fecWork) stage(seed int64, plan *Plan) error {
	k, total := plan.DataSubs, len(plan.Subs)
	key := k<<16 | (total - k)
	if w.rs = w.coders[key]; w.rs == nil {
		rs, err := fec.NewRS(k, total-k)
		if err != nil {
			return err
		}
		w.coders[key], w.rs = rs, rs
	}
	w.shardLen = plan.Subs[k].Bytes
	if need := (total + 1) * w.shardLen; cap(w.slab) < need {
		w.slab = make([]byte, need)
	} else {
		w.slab = w.slab[:need]
	}
	if cap(w.air) < total {
		w.air, w.shards = make([][]byte, total), make([][]byte, total)
		w.spans = make([]mac.SymbolSpan, total)
	}
	if cap(w.heard) < k*total {
		w.heard = make([]bool, k*total)
	}
	w.air, w.shards, w.spans, w.heard = w.air[:total], w.shards[:total], w.spans[:total], w.heard[:k*total]
	for j, sub := range plan.Subs {
		w.spans[j] = mac.SymbolSpan{Start: sub.StartSym, Num: sub.NumSym}
		w.air[j] = w.shard(j)
		if j < k {
			if sub.Bytes > w.shardLen {
				return fmt.Errorf("engine: data subframe %d carries %d bytes, parity only %d", j, sub.Bytes, w.shardLen)
			}
			fillSubframe(w.air[j][:sub.Bytes], w.rng, seed, plan.Seq, j, sub)
			clear(w.air[j][sub.Bytes:])
			w.air[j] = w.air[j][:sub.Bytes]
		}
	}
	return w.rs.EncodeInto(w.air[k:], w.air[:k])
}

// rebuild reports whether the receiver of data subframe i, having heard
// the marked shards, reconstructs its own shard byte-true: only that shard
// is asked of the coder, and it counts only if it equals what was sent.
func (w *fecWork) rebuild(i int, heard []bool) bool {
	for j, ok := range heard {
		w.shards[j] = nil
		if ok {
			w.shards[j] = w.air[j]
		}
	}
	out := w.shard(len(heard))
	w.shards[i] = out
	if err := w.rs.ReconstructInto(w.shards, heard); err != nil {
		return false // unrecoverable for this receiver: retry path
	}
	return bytes.Equal(out, w.shard(i))
}

// PHYTransport drives the full TX→channel→RX pipeline for every plan: it
// also implements FECTransport, building parity subframes into the real
// PHY frame and decoding them end to end (DeliverFEC). It
// builds a real Carpool frame (core.BuildFrame — preamble, coded-Bloom
// A-HDR, per-subframe SIG and DATA symbols), impairs the samples with a
// seed-derived fault scenario, and fans each addressed station's receive
// pipeline (core.ReceiveFrame: sync, A-HDR match, SIG walk, RTE decode)
// across workers via sim.ParallelForCtx. A subframe is delivered when its
// receiver decodes a payload byte-identical to what was sent.
type PHYTransport struct {
	// Seed decorrelates per-transmission impairment draws; the scenario
	// applied to transmission n uses sim.DeriveSeed(Seed, n).
	Seed int64
	// Impair lists the channel impairments applied to every transmission
	// (the Seed field of this template is ignored).
	Impair []faults.Impairment
	// FrameCfg configures frame construction (hashes, side channel).
	FrameCfg core.FrameConfig
	// SoftFEC selects the quantized soft-decision receive path.
	SoftFEC bool

	// work pools DeliverFEC's per-call working sets (see fecWork).
	work sync.Pool
}

var _ FECTransport = (*PHYTransport)(nil)

// Deliver builds, impairs, and decodes one aggregate end to end.
func (t *PHYTransport) Deliver(ctx context.Context, plan *Plan) ([]bool, error) {
	total := 0
	for _, sub := range plan.Subs {
		total += sub.Bytes
	}
	onAir := make([]byte, total) // every subframe's payload, back to back
	subs := make([]core.Subframe, len(plan.Subs))
	for i, sub := range plan.Subs {
		payload := onAir[:sub.Bytes:sub.Bytes]
		onAir = onAir[sub.Bytes:]
		fillSubframe(payload, nil, t.Seed, plan.Seq, i, sub)
		subs[i] = core.Subframe{Receiver: STAMAC(sub.STA), MCS: sub.MCS, Payload: payload}
	}
	frame, err := core.BuildFrame(subs, t.FrameCfg)
	if err != nil {
		return nil, fmt.Errorf("engine: building PHY frame: %w", err)
	}
	sc := faults.Scenario{Seed: sim.DeriveSeed(t.Seed, int(plan.Seq)), Impairments: t.Impair}
	rx := sc.Apply(frame.Samples)

	// Every receiver hears the same samples; decode failures (truncated
	// subframes, sync loss, FEC residue) are delivery failures for that
	// receiver's subframes, never transport errors.
	ok := plan.Verdicts(len(plan.Subs))
	err = sim.ParallelForCtx(ctx, len(plan.Subs), func(i int) error {
		res, rerr := core.ReceiveFrame(rx, core.ReceiverConfig{
			MAC:        subs[i].Receiver,
			UseRTE:     true,
			KnownStart: 0,
			SoftFEC:    t.SoftFEC,
		})
		if rerr != nil || res == nil {
			return nil
		}
		for _, sf := range res.Subframes {
			if sf.Position == i+1 && bytes.Equal(sf.Payload, subs[i].Payload) {
				ok[i] = true
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ok, nil
}

// DeliverFEC transmits an erasure-coded aggregate end to end: the data
// subframes plus RS parity subframes (addressed to the reserved
// ParityMAC slots) travel as one real PHY frame through the fault
// scenario, every receiver decodes the whole frame (core DecodeAll
// mode), and a receiver that loses its own subframe reconstructs it from
// whichever shards it decoded byte-true — data and parity alike.
func (t *PHYTransport) DeliverFEC(ctx context.Context, plan *Plan) (FECResult, error) {
	k := plan.DataSubs
	total := len(plan.Subs)
	if total == k {
		return uncodedResult(t.Deliver(ctx, plan))
	}
	w := getFECWork(&t.work)
	defer t.work.Put(w)
	if err := w.stage(t.Seed, plan); err != nil {
		return FECResult{}, err
	}
	subs := make([]core.Subframe, total)
	for j, sub := range plan.Subs {
		rcv := ParityMAC(j - k)
		if j < k {
			rcv = STAMAC(sub.STA)
		}
		subs[j] = core.Subframe{Receiver: rcv, MCS: sub.MCS, Payload: w.air[j]}
	}
	frame, err := core.BuildFrame(subs, t.FrameCfg)
	if err != nil {
		return FECResult{}, fmt.Errorf("engine: building coded PHY frame: %w", err)
	}
	sc := faults.Scenario{Seed: sim.DeriveSeed(t.Seed, int(plan.Seq)), Impairments: t.Impair}
	rx := sc.Apply(frame.Samples)

	res := plan.fecVerdicts()
	// The working set has one coder and one rebuild buffer: the parallel
	// receivers below rebuild one at a time.
	var rebuildMu sync.Mutex
	err = sim.ParallelForCtx(ctx, k, func(i int) error {
		fr, rerr := core.ReceiveFrame(rx, core.ReceiverConfig{
			MAC:        STAMAC(plan.Subs[i].STA),
			UseRTE:     true,
			KnownStart: 0,
			SoftFEC:    t.SoftFEC,
			DecodeAll:  true,
		})
		if rerr != nil || fr == nil {
			return nil
		}
		// Which shards did this station decode byte-true off the air? A
		// heard shard equals w.air[j], so the rebuild reads it from there.
		heard := make([]bool, total)
		n := 0
		for _, sf := range fr.Subframes {
			j := sf.Position - 1
			if j < 0 || j >= total || heard[j] || !bytes.Equal(sf.Payload, w.air[j]) {
				continue
			}
			heard[j] = true
			n++
		}
		res.Direct[i] = heard[i]
		if heard[i] || n < k {
			return nil
		}
		rebuildMu.Lock()
		res.Recovered[i] = w.rebuild(i, heard)
		rebuildMu.Unlock()
		return nil
	})
	if err != nil {
		return FECResult{}, err
	}
	return res, nil
}

// fillSubframe writes a subframe's on-air bytes into dst (sub.Bytes long):
// the retained frame payloads concatenated when present (mixed retained /
// size-only frames are padded to the accounted size), otherwise
// deterministic pseudo-random filler (size-only ingest). rng, when non-nil,
// is reseeded for the filler in place of a fresh generator.
func fillSubframe(dst []byte, rng *rand.Rand, seed int64, txSeq uint64, subIdx int, sub PlanSub) {
	if len(sub.Payloads) > 0 {
		n := 0
		for _, p := range sub.Payloads {
			n += copy(dst[n:], p)
		}
		for ; n < len(dst); n++ {
			dst[n] = byte(n)
		}
		return
	}
	fill := sim.DeriveSeed(seed, int(txSeq)*bloom.MaxReceivers+subIdx)
	if rng == nil {
		rng = rand.New(rand.NewSource(fill))
	} else {
		rng.Seed(fill)
	}
	rng.Read(dst)
}
