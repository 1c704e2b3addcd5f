package core

import (
	"runtime"
	"sync"

	"carpool/internal/bloom"
	"carpool/internal/obs"
	"carpool/internal/ofdm"
	"carpool/internal/phy"
	"carpool/internal/sidechannel"
	"carpool/internal/sim"
)

// ReceiverConfig configures one STA's Carpool receiver.
type ReceiverConfig struct {
	// MAC is this station's hardware address, checked against the A-HDR.
	MAC bloom.MAC
	// Hashes must match the AP's Bloom configuration; zero selects
	// bloom.DefaultHashes.
	Hashes int
	// SideChannel must match the AP's; the zero value selects the default
	// scheme. DisableSideChannel turns side-channel decoding (and with it
	// RTE data pilots) off.
	SideChannel        sidechannel.Scheme
	DisableSideChannel bool
	// UseRTE selects Carpool's real-time channel estimation for the
	// station's own subframes; false keeps the standard preamble-only
	// estimate (the MU-Aggregation baseline).
	UseRTE bool
	// KnownStart skips packet detection (negative means "detect").
	KnownStart int
	// SkipFEC stops each subframe at the demapper, for the BER harness.
	SkipFEC bool
	// SoftFEC decodes matched subframes with channel-gain-weighted soft
	// decisions through the quantized int8 Viterbi fast path
	// (fec.SoftDecoder) instead of hard decisions.
	SoftFEC bool
	// DecodeAll walks and decodes every subframe in the frame, not just
	// the A-HDR matches — the erasure-coded (FEC) receive mode, where a
	// station that loses its own subframe rebuilds it from the other data
	// and parity subframes it overheard. The A-HDR gate still applies: a
	// frame matching none of the station's positions is dropped unread.
	DecodeAll bool
}

func (c ReceiverConfig) hashes() int {
	if c.Hashes == 0 {
		return bloom.DefaultHashes
	}
	return c.Hashes
}

func (c ReceiverConfig) scheme() *sidechannel.Scheme {
	if c.DisableSideChannel {
		return nil
	}
	s := c.SideChannel
	if s == (sidechannel.Scheme{}) {
		s = sidechannel.DefaultScheme()
	}
	return &s
}

// SubframeRx is one decoded subframe.
type SubframeRx struct {
	// Position is the 1-based subframe index within the frame.
	Position int
	SIG      phy.SIG
	// StartSymbol is the absolute symbol index of the subframe's SIG.
	StartSymbol int
	// Payload is the FEC-decoded payload (nil with SkipFEC).
	Payload []byte
	// Blocks, SideBits, SymbolOK, PilotPhases mirror phy.Segment.
	Blocks      [][]byte
	SideBits    [][]byte
	SymbolOK    []bool
	PilotPhases []float64
	// RTEUpdates counts the data-pilot calibrations inside this subframe.
	RTEUpdates int
}

// FrameRx is the outcome of one station hearing one Carpool frame.
type FrameRx struct {
	Status phy.RxStatus
	// CFORad is the estimated carrier frequency offset.
	CFORad float64
	// Filter is the decoded A-HDR.
	Filter bloom.Filter
	// Matched lists the subframe positions the A-HDR matched for this
	// station (possibly including false positives).
	Matched []int
	// Dropped is true when the A-HDR matched nothing: the station dropped
	// the frame after two symbols without touching the payload.
	Dropped bool
	// Subframes are the decoded (matched) subframes.
	Subframes []SubframeRx
	// SymbolsHeard is the frame length in symbols the station observed;
	// SymbolsDecoded is how many it actually demodulated (A-HDR + the SIGs
	// it walked + matched payloads) — the energy accounting of §8.
	SymbolsHeard   int
	SymbolsDecoded int
}

// ReceiveFrame runs one station's Carpool receive pipeline (paper §3, §4.1):
// synchronize, decode the A-HDR, drop the frame if no subframe matches,
// otherwise walk the subframes — decoding only SIGs to skip over other
// stations' payloads — and decode every matched subframe, with RTE
// recalibrating the channel estimate inside each one.
func ReceiveFrame(rx []complex128, cfg ReceiverConfig) (*FrameRx, error) {
	obs.Active().Counter("core.frames_rx").Inc()
	src, h, status := phy.Acquire(rx, cfg.KnownStart)
	res := &FrameRx{Status: status, CFORad: src.CFORad}
	if status != phy.StatusOK {
		return res, nil
	}
	return receiveSynced(src, h, cfg, res)
}

// receiveSynced is ReceiveFrame past acquisition. The frame is never copied
// or corrected as a whole: every symbol read below is derotated on its way
// into the FFT, so the station pays for the A-HDR, the SIGs up to its slot
// and its own subframes, and for nothing it skips.
func receiveSynced(src phy.Synced, h []complex128, cfg ReceiverConfig, res *FrameRx) (*FrameRx, error) {
	sink := obs.Active()
	buf := src.Samples

	// A-HDR: two standard-equalized, phase-compensated BPSK symbols. The
	// demodulation scratch lives on the stack; only the slice headers into
	// the flat point buffer reach DecodeAHDR.
	var bins [ofdm.NumSubcarriers]complex128
	var ahdrFlat [AHDRSymbols * ofdm.NumData]complex128
	var ahdrPoints [AHDRSymbols][]complex128
	for s := 0; s < AHDRSymbols; s++ {
		off := ofdm.PreambleLen + s*ofdm.SymbolLen
		if off+ofdm.SymbolLen > len(buf) {
			res.Status = phy.StatusTruncated
			return res, nil
		}
		if err := src.BinsInto(bins[:], off); err != nil {
			return nil, err
		}
		if err := ofdm.Equalize(bins[:], h); err != nil {
			return nil, err
		}
		phase, _ := ofdm.TrackPilotPhase(bins[:], s)
		ofdm.CompensatePhase(bins[:], phase)
		pts := ahdrFlat[s*ofdm.NumData : (s+1)*ofdm.NumData]
		ofdm.ExtractDataInto(pts, bins[:])
		ahdrPoints[s] = pts
	}
	filter, err := DecodeAHDR(ahdrPoints[:])
	if err != nil {
		res.Status = phy.StatusBadSIG
		return res, nil
	}
	res.Filter = filter
	res.SymbolsDecoded = AHDRSymbols
	res.SymbolsHeard = (len(buf) - ofdm.PreambleLen) / ofdm.SymbolLen

	res.Matched = filter.Positions(cfg.MAC, bloom.MaxReceivers, cfg.hashes())
	if len(res.Matched) == 0 {
		// Irrelevant frame: drop after the A-HDR without decoding payload.
		res.Dropped = true
		sink.Counter("core.ahdr_drop").Inc()
		if sink != nil {
			sink.Tracer.Emit(obs.EvAHDRDrop, 0, 0)
		}
		return res, nil
	}
	sink.Counter("core.ahdr_match").Inc()
	if sink != nil {
		sink.Tracer.Emit(obs.EvAHDRMatch, int64(len(res.Matched)), 0)
	}
	maxMatched := res.Matched[len(res.Matched)-1]
	matched := make(map[int]bool, len(res.Matched))
	for _, p := range res.Matched {
		matched[p] = true
	}

	// Phase 1: walk the SIG chain sequentially — each SIG's sample position
	// depends on the previous subframe's length, so locating is inherently
	// serial — recording where every matched subframe's payload lives.
	// Payload decoding is deferred to phase 2 so independent subframes can
	// decode concurrently.
	scheme := cfg.scheme()
	symIdx := AHDRSymbols
	badSIG := false
	var jobs []subframeJob
	for pos := 1; pos <= maxMatched || cfg.DecodeAll; pos++ {
		if cfg.DecodeAll && symIdx >= res.SymbolsHeard {
			break // clean end of frame: no SIG symbol left to walk
		}
		sigOff := ofdm.PreambleLen + symIdx*ofdm.SymbolLen
		sig, sigPhase, err := src.DecodeSIGAt(h, sigOff, symIdx)
		if err != nil {
			// Without a valid SIG the rest of the frame cannot be located.
			badSIG = true
			break
		}
		res.SymbolsDecoded++
		sigSymIdx := symIdx
		symIdx++
		nsym := sig.MCS.NumSymbols(sig.Length)

		if !matched[pos] && !cfg.DecodeAll {
			// Skip the whole subframe; only its SIG was decoded.
			symIdx += nsym
			sink.Counter("core.symbols_skipped").Add(int64(nsym))
			continue
		}
		sink.Counter("core.subframes_decoded").Inc()
		jobs = append(jobs, subframeJob{
			pos: pos, sigSymIdx: sigSymIdx, dataSymIdx: symIdx, nsym: nsym,
			sig: sig, sigPhase: sigPhase,
		})
		if ofdm.PreambleLen+(symIdx+nsym)*ofdm.SymbolLen > len(buf) {
			// The DATA field runs past the buffer. The job still decodes
			// (partially) in phase 2 for its tracker and counter side
			// effects, but the chain cannot be located past the hole.
			break
		}
		symIdx += nsym
	}

	// Phase 2: located subframes are independent — their trackers, side
	// channels and FEC state are all per-subframe — so decode them
	// concurrently, each worker confining writes to its own slot.
	subs := make([]SubframeRx, len(jobs))
	truncs := make([]int, len(jobs))
	errs := make([]error, len(jobs))
	if cfg.SoftFEC && !cfg.SkipFEC && len(jobs) > 1 && runtime.GOMAXPROCS(0) == 1 {
		// Batched soft-FEC fast path: with one usable CPU the parallel loop
		// degenerates to sequential anyway, so demodulate every subframe
		// first and run all their Viterbi walks over one contiguous LLR slab
		// (phy.DecodeDataFieldBatch) — one workspace, no pool churn per
		// subframe. Bit-identical to the per-subframe path; the seq-vs-par
		// conform pair pins this against the parallel decode.
		llrqs := make([][][]int8, len(jobs))
		// The accounting loop below consumes jobs in order and stops at the
		// first error or truncation, so only the clean prefix needs payloads.
		// Every job still demodulates (matching the parallel path's counter
		// and tracker side effects exactly).
		n := len(jobs)
		for i := range jobs {
			subs[i], llrqs[i], truncs[i], errs[i] = demodSubframe(src, h, jobs[i], scheme, cfg)
			if (errs[i] != nil || truncs[i] >= 0) && i < n {
				n = i
			}
		}
		if n > 0 {
			batch := make([]phy.SoftQBatchJob, n)
			for i := range batch {
				batch[i] = phy.SoftQBatchJob{
					Blocks: llrqs[i], MCS: jobs[i].sig.MCS, PayloadLen: jobs[i].sig.Length,
				}
			}
			dec := softQPool.Get().(*phy.SoftQDecoder)
			_, err := dec.DecodeDataFieldBatch(batch)
			softQPool.Put(dec)
			if err != nil {
				return nil, err
			}
			for i := range batch {
				subs[i].Payload = batch[i].Payload
			}
		}
	} else {
		sim.ParallelFor(len(jobs), func(i int) {
			subs[i], truncs[i], errs[i] = decodeSubframe(src, h, jobs[i], scheme, cfg)
		})
	}
	for i := range jobs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if truncs[i] >= 0 {
			// Only the final job can truncate (the walk stops at the hole).
			// The typed error pins which subframe was cut and where, while
			// Status keeps reporting the reception outcome for callers that
			// treat a truncated frame as a loss rather than a fault.
			res.Status = phy.StatusTruncated
			return res, &ErrTruncatedSubframe{Position: jobs[i].pos, Symbol: truncs[i]}
		}
		res.SymbolsDecoded += jobs[i].nsym
		res.Subframes = append(res.Subframes, subs[i])
	}
	if badSIG {
		res.Status = phy.StatusBadSIG
		return res, nil
	}
	res.Status = phy.StatusOK
	return res, nil
}

// subframeJob locates one matched subframe inside a located frame:
// everything phase 2 needs to decode it independently of its neighbors.
type subframeJob struct {
	pos, sigSymIdx, dataSymIdx, nsym int

	sig      phy.SIG
	sigPhase float64
}

// softQPool recycles quantized soft-decode workspaces across subframes and
// frames; each phase-2 worker checks one out for the duration of a decode.
var softQPool = sync.Pool{New: func() any { return new(phy.SoftQDecoder) }}

// demodSubframe demodulates one located subframe without touching FEC,
// returning its quantized per-symbol LLR blocks when the soft chain is
// selected (nil otherwise). It touches only per-call state plus atomic obs
// counters, so distinct jobs demodulate safely in parallel. The int result
// reports truncation: -1 for a complete subframe, otherwise the absolute
// symbol index of the first DATA symbol the buffer ended inside of.
func demodSubframe(src phy.Synced, h []complex128, job subframeJob, scheme *sidechannel.Scheme, cfg ReceiverConfig) (SubframeRx, [][]int8, int, error) {
	var tracker phy.ChannelTracker
	var rte *RTETracker
	if cfg.UseRTE {
		rte = NewRTETracker()
		tracker = rte
	} else {
		tracker = phy.NewStandardTracker()
	}
	tracker.Init(h, job.sig.MCS.Mod)

	dataOff := ofdm.PreambleLen + job.dataSymIdx*ofdm.SymbolLen
	soft := cfg.SoftFEC && !cfg.SkipFEC
	seg, err := src.DecodeDataSymbols(dataOff, job.dataSymIdx, job.nsym,
		job.sig.MCS.Mod, tracker, scheme, job.sigPhase, soft)
	if err != nil {
		return SubframeRx{}, nil, -1, err
	}
	if seg.Truncated {
		return SubframeRx{}, nil, job.dataSymIdx + len(seg.Blocks), nil
	}
	sub := SubframeRx{
		Position:    job.pos,
		SIG:         job.sig,
		StartSymbol: job.sigSymIdx,
		Blocks:      seg.Blocks,
		SideBits:    seg.SideBits,
		SymbolOK:    seg.SymbolOK,
		PilotPhases: seg.PilotPhases,
	}
	if rte != nil {
		sub.RTEUpdates = rte.Updates()
	}
	return sub, seg.LLRQs, -1, nil
}

// decodeSubframe demodulates and (unless SkipFEC) FEC-decodes one located
// subframe; the batched phase-2 path calls demodSubframe directly and
// defers FEC to one slab decode.
func decodeSubframe(src phy.Synced, h []complex128, job subframeJob, scheme *sidechannel.Scheme, cfg ReceiverConfig) (SubframeRx, int, error) {
	sub, llrqs, trunc, err := demodSubframe(src, h, job, scheme, cfg)
	if err != nil || trunc >= 0 {
		return sub, trunc, err
	}
	if !cfg.SkipFEC {
		var payload []byte
		if cfg.SoftFEC {
			dec := softQPool.Get().(*phy.SoftQDecoder)
			payload, err = dec.DecodeDataField(llrqs, job.sig.MCS, job.sig.Length)
			softQPool.Put(dec)
		} else {
			payload, err = phy.DecodeDataField(sub.Blocks, job.sig.MCS, job.sig.Length)
		}
		if err != nil {
			return SubframeRx{}, -1, err
		}
		sub.Payload = payload
	}
	return sub, -1, nil
}
