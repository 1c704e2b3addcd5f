package engine

import (
	"time"

	"carpool/internal/mac"
	"carpool/internal/phy"
)

// PlanSub is one receiver's subframe within a planned transmission: the
// retransmission unit. Every contained frame shares the subframe's symbol
// span and fate — one FCS, one sequential-ACK slot (§4.2).
type PlanSub struct {
	// STA is the receiver's station index.
	STA int
	// MCS is the subframe's modulation-and-coding scheme.
	MCS phy.MCS
	// StartSym is the first DATA symbol of the subframe within the whole
	// PHY frame (after the A-HDR and this subframe's SIG); NumSym its DATA
	// length in symbols. Delivery oracles receive this span.
	StartSym, NumSym int
	// Bytes is the summed payload size of the contained frames.
	Bytes int
	// Payloads holds the contained frames' bytes when the engine retains
	// payloads; nil entries (or a nil slice) mean size-only frames.
	Payloads [][]byte
	// Parity marks an erasure-coding parity subframe (StrategyFEC): it
	// carries no station's frames (STA is -1), spans Bytes of
	// Reed-Solomon parity over the data subframes, and consumes no
	// sequential-ACK slot.
	Parity bool
}

// Plan is one aggregate transmission handed to a Transport.
type Plan struct {
	// Seq is the transmission's sequence number, unique per engine run;
	// transports derive per-transmission randomness from it.
	Seq uint64
	// Subs are the subframes in A-HDR slot order.
	Subs []PlanSub
	// Airtime is the data transmission's air occupancy (PLCP + A-HDR +
	// per-subframe SIG and DATA symbols + propagation); ACKTime the
	// sequential-ACK train (one SIFS-separated slot per receiver).
	Airtime time.Duration
	// ACKTime is the sequential-ACK train duration.
	ACKTime time.Duration
	// DataSubs is the number of leading receiver-facing subframes in
	// Subs; entries past it are parity (StrategyFEC). Zero is treated as
	// len(Subs) so retry-mode plans (and hand-built test plans) need not
	// set it.
	DataSubs int

	// verdicts backs Verdicts: with the plan it lives in a worker's
	// scratch, so a steady-state delivery allocates no result slice.
	verdicts []bool
}

// Verdicts returns n cleared delivery verdicts in storage the plan owns —
// what a Transport hands back from Deliver. The slice is good until the
// plan is delivered again or its scratch builds the next plan, which is
// as long as the engine looks at an outcome; one goroutine delivers a
// plan at a time.
func (p *Plan) Verdicts(n int) []bool {
	if cap(p.verdicts) < n {
		p.verdicts = make([]bool, n)
	}
	v := p.verdicts[:n]
	clear(v)
	return v
}

// fecVerdicts is Verdicts for an erasure-coded delivery: Direct and
// Recovered are the two halves of one buffer.
func (p *Plan) fecVerdicts() FECResult {
	k := p.DataSubs
	v := p.Verdicts(2 * k)
	return FECResult{Direct: v[:k:k], Recovered: v[k:]}
}

// pushSub appends sub, handing it the Payloads capacity the slot held in
// an earlier plan built in the same scratch: a bare append would reset it
// to nil and every plan would grow each subframe's slice from nothing.
func (p *Plan) pushSub(sub PlanSub) {
	if n := len(p.Subs); n < cap(p.Subs) {
		sub.Payloads = p.Subs[:n+1][n].Payloads[:0]
	}
	p.Subs = append(p.Subs, sub)
}

// pendingTx pairs the transport-facing plan with the engine-internal
// frames it carries, parallel to plan.Subs. sampled counts the lifecycle-
// sampled frames aboard, so workers skip the delivery-duration clock reads
// entirely when nothing on the transmission is being traced. shard is the
// admission lane every contained STA belongs to — the lock account takes
// to settle the outcome.
type pendingTx struct {
	plan    Plan
	frames  [][]qframe
	sampled int
	shard   int
	// recovered is the FEC transport's per-data-subframe recovery flags
	// (nil outside StrategyFEC), set by the delivery dispatch just before
	// settlement so accounting can split delivered into direct vs rebuilt.
	recovered []bool
}

// planScratch is one worker's reusable plan-building storage: the engine's
// pooled scratch. Exactly one pendingTx per worker is alive at a time; the
// next buildPlanLocked call recycles every slice.
type planScratch struct {
	tx       pendingTx
	subBits  []int  // per-sub cumulative payload bits (16-bit SERVICE included)
	staSlot  []int  // per-STA subframe slot, -1 = none
	rejected []bool // per-STA "no slot left" marker for this plan
}

func (sc *planScratch) reset(numSTAs int) {
	sc.tx.plan.Subs = sc.tx.plan.Subs[:0]
	sc.tx.plan.Airtime, sc.tx.plan.ACKTime = 0, 0
	sc.tx.plan.DataSubs = 0
	sc.tx.frames = sc.tx.frames[:0]
	sc.tx.sampled = 0
	sc.tx.recovered = nil
	sc.subBits = sc.subBits[:0]
	if len(sc.staSlot) < numSTAs {
		sc.staSlot = make([]int, numSTAs)
		sc.rejected = make([]bool, numSTAs)
	}
	for i := 0; i < numSTAs; i++ {
		sc.staSlot[i] = -1
		sc.rejected[i] = false
	}
}

// subSymbols returns a subframe's DATA length in OFDM symbols for the
// accumulated payload bits at the given MCS (SERVICE is already inside
// bits; the 6 tail bits are added here).
func subSymbols(bits int, mcs phy.MCS) int {
	ndbps := mcs.DataBitsPerSymbol()
	return (bits + 6 + ndbps - 1) / ndbps
}

// frameBits is one MAC frame's on-air payload bit cost inside a subframe.
func frameBits(size int) int {
	return 8 * (mac.MACHeaderBytes + size + mac.FCSBytes)
}

// planAirtime converts a total symbol count to air occupancy.
func planAirtime(symbols int) time.Duration {
	return mac.PLCPTime + time.Duration(symbols)*mac.SymbolTime + mac.PropDelay
}

// buildPlanShardLocked pops one shard's queued frames into one aggregate
// transmission. It walks frames in the shard's admission order (cross-STA
// FIFO within the lane, the paper's §8 discipline; with one shard this is
// exactly the old global order) over stations that are non-empty and past
// their retry backoff, grouping frames per station into subframes and
// stopping at the first frame that would breach MaxAggBytes (strict FIFO
// cutoff, matching the MAC simulator's multi-user planner), at a full
// receiver set for a new station (that station is skipped for this plan),
// or at the airtime budget (always admitting at least one frame for
// progress). It returns nil when no eligible station has backlog.
//
// Caller must hold sh.mu (or be single-threaded). The returned pendingTx
// lives in sc until the next call.
func (e *Engine) buildPlanShardLocked(sh *shard, now time.Duration, sc *planScratch) *pendingTx {
	sc.reset(e.cfg.NumSTAs)
	plan := &sc.tx.plan
	totalBytes := 0
	symbols := mac.AHDRSymbols
	stride := len(e.shards)

	// StrategyFEC reserves fecK trailing subframes for erasure parity:
	// they take A-HDR slots, payload bytes (each as long as the largest
	// data subframe), and air symbols at the most robust admitted MCS, so
	// every admission below projects the parity overhead into the same
	// three caps the data subframes answer to.
	fecK := e.fecK
	maxSubBytes := 0
	parityMCS := phy.MCS{}

	for {
		// Next frame in lane admission order among eligible stations: the
		// strided walk visits exactly the shard's stations, and with one
		// shard degenerates to the old full scan in the same order.
		best := -1
		var bestSeq uint64
		for sta := sh.id; sta < e.cfg.NumSTAs; sta += stride {
			q := &e.queues[sta]
			if q.len() == 0 || q.nextEligible > now || sc.rejected[sta] || q.migrating {
				continue
			}
			if s := q.headFrame().seq; best < 0 || s < bestSeq {
				best, bestSeq = sta, s
			}
		}
		if best < 0 {
			break
		}
		q := &e.queues[best]
		f := q.headFrame()
		slot := sc.staSlot[best]
		if slot < 0 && len(plan.Subs) >= e.cfg.MaxReceivers-fecK {
			sc.rejected[best] = true
			continue
		}
		// Project the aggregate's bytes and the parity shard geometry with
		// this frame added: parity shards are as long as the largest
		// subframe and ride the most robust (lowest-rate) admitted MCS.
		mcs := e.cfg.MCS[best]
		projSub := f.size
		if slot >= 0 {
			projSub += plan.Subs[slot].Bytes
		}
		projShard := max(maxSubBytes, projSub)
		projParityMCS := parityMCS
		if len(plan.Subs) == 0 || mcs.DataBitsPerSymbol() < projParityMCS.DataBitsPerSymbol() {
			projParityMCS = mcs
		}
		if len(plan.Subs) > 0 && totalBytes+f.size+fecK*projShard > e.cfg.MaxAggBytes {
			break // strict FIFO cutoff at the aggregate byte ceiling
		}

		// Project the airtime with this frame added.
		newSymbols := symbols
		if slot < 0 {
			newSymbols += mac.SIGSymbols + subSymbols(16+frameBits(f.size), mcs)
		} else {
			newSymbols += subSymbols(sc.subBits[slot]+frameBits(f.size), mcs) -
				subSymbols(sc.subBits[slot], mcs)
		}
		projAll := newSymbols +
			fecK*(mac.SIGSymbols+subSymbols(16+frameBits(projShard), projParityMCS))
		if e.cfg.AirtimeBudget > 0 && len(plan.Subs) > 0 &&
			planAirtime(projAll) > e.cfg.AirtimeBudget {
			break
		}

		fr := q.pop()
		sh.queued--
		e.inflightSTA[best]++
		if fr.sampled {
			// Close the frame's queued stage: the segment since lastTouch
			// splits into time gated by the STA's retry backoff (the part of
			// [lastTouch, now] before nextEligible) and plain queue wait.
			seg := now - fr.lastTouch
			bo := q.nextEligible - fr.lastTouch
			if bo < 0 {
				bo = 0
			} else if bo > seg {
				bo = seg
			}
			fr.backoffAcc += bo
			fr.waitAcc += seg - bo
			fr.lastTouch = now
			sc.tx.sampled++
		}
		if slot < 0 {
			slot = len(plan.Subs)
			sc.staSlot[best] = slot
			plan.pushSub(PlanSub{STA: best, MCS: mcs})
			sc.subBits = append(sc.subBits, 16) // SERVICE field
			// Recycle the inner frame slices across plans.
			if n := len(sc.tx.frames); n < cap(sc.tx.frames) {
				sc.tx.frames = sc.tx.frames[:n+1]
				sc.tx.frames[n] = sc.tx.frames[n][:0]
			} else {
				sc.tx.frames = append(sc.tx.frames, nil)
			}
		}
		sc.subBits[slot] += frameBits(fr.size)
		plan.Subs[slot].Bytes += fr.size
		if fr.payload != nil {
			plan.Subs[slot].Payloads = append(plan.Subs[slot].Payloads, fr.payload)
		}
		sc.tx.frames[slot] = append(sc.tx.frames[slot], fr)
		totalBytes += fr.size
		symbols = newSymbols
		maxSubBytes = projShard
		parityMCS = projParityMCS
	}
	if len(plan.Subs) == 0 {
		return nil
	}
	plan.DataSubs = len(plan.Subs)
	if fecK > 0 {
		// Append the parity subframes the projections above reserved room
		// for: each spans the largest data subframe's bytes at the most
		// robust admitted MCS, so any receiver that can hear data can hear
		// parity.
		for j := 0; j < fecK; j++ {
			plan.pushSub(PlanSub{STA: -1, MCS: parityMCS, Bytes: maxSubBytes, Parity: true})
			sc.subBits = append(sc.subBits, 16+frameBits(maxSubBytes))
		}
	}

	// Lay out symbol spans: A-HDR, then per subframe one SIG + DATA run.
	cursor := mac.AHDRSymbols
	for i := range plan.Subs {
		sub := &plan.Subs[i]
		cursor += mac.SIGSymbols
		sub.StartSym = cursor
		sub.NumSym = subSymbols(sc.subBits[i], sub.MCS)
		cursor += sub.NumSym
	}
	plan.Seq = e.txSeq.Add(1) - 1
	plan.Airtime = planAirtime(cursor)
	plan.ACKTime = time.Duration(plan.DataSubs) * (mac.SIFS + mac.ACKAirtime(e.rates))
	sc.tx.shard = sh.id
	return &sc.tx
}

// buildPlanLocked is the single-threaded planner the deterministic
// runners and tests use: a rotating scan over the shards (the engine-
// level detRot cursor mirrors each worker's private one), returning the
// first lane that yields a plan. With one shard this is byte-identical to
// the pre-shard planner.
func (e *Engine) buildPlanLocked(now time.Duration, sc *planScratch) *pendingTx {
	P := len(e.shards)
	for k := 0; k < P; k++ {
		i := (e.detRot + k) % P
		if tx := e.buildPlanShardLocked(&e.shards[i], now, sc); tx != nil {
			e.detRot = (i + 1) % P
			return tx
		}
	}
	return nil
}
