package phy

import (
	"fmt"

	"carpool/internal/dsp"
	"carpool/internal/modem"
	"carpool/internal/obs"
	"carpool/internal/ofdm"
	"carpool/internal/sidechannel"
)

// RxStatus classifies the outcome of a reception attempt. Losing a frame in
// a lossy channel is a normal outcome, not an error.
type RxStatus int

// Reception outcomes.
const (
	// StatusOK means the full DATA field was demodulated (its bits may
	// still contain errors — check the FCS at the MAC layer).
	StatusOK RxStatus = iota + 1
	// StatusNoPreamble means packet detection failed.
	StatusNoPreamble
	// StatusBadSIG means the PLCP header did not validate.
	StatusBadSIG
	// StatusTruncated means the buffer ended before the DATA field did.
	StatusTruncated
)

// String names the status.
func (s RxStatus) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusNoPreamble:
		return "no-preamble"
	case StatusBadSIG:
		return "bad-sig"
	case StatusTruncated:
		return "truncated"
	default:
		return fmt.Sprintf("RxStatus(%d)", int(s))
	}
}

// RxConfig controls frame reception.
type RxConfig struct {
	// Tracker maintains the channel estimate across DATA symbols. Nil
	// selects the standard preamble-only tracker.
	Tracker ChannelTracker
	// SideChannel must match the transmitter's configuration to decode the
	// symbol-level CRC stream. Nil disables side-channel decoding (and with
	// it, any tracker Observe calls flagged correct).
	SideChannel *sidechannel.Scheme
	// KnownStart skips packet detection when the caller knows the preamble
	// offset (negative means "detect").
	KnownStart int
	// SkipFEC stops after demapping, leaving Payload nil. The BER harness
	// uses this: it compares Blocks against the transmitter's ground truth.
	SkipFEC bool
	// SoftFEC decodes the DATA field with per-bit log-likelihood ratios
	// and the soft-decision Viterbi instead of hard decisions, weighting
	// each subcarrier's confidence by its channel gain. Roughly a 2 dB
	// sensitivity gain over the paper's hard-decision prototype. The
	// default implementation is the quantized int8 fast path
	// (fec.SoftDecoder); see SoftFloat64.
	SoftFEC bool
	// SoftFloat64 selects the float64 soft chain (modem.DemapSoft +
	// fec.ViterbiDecodeSoft) instead of the quantized fast path. It is the
	// reference oracle the quantized path is validated against, and the
	// fallback for inputs outside the quantizer's envelope (e.g. externally
	// supplied LLRs at scales the int8 range cannot represent). Only
	// meaningful with SoftFEC.
	SoftFloat64 bool
}

// RxResult carries everything a reception produced.
type RxResult struct {
	Status RxStatus
	SIG    SIG
	// CFORad is the estimated carrier frequency offset in radians/sample.
	CFORad float64
	// Payload is the decoded DATA payload (nil when SkipFEC or not OK).
	Payload []byte
	// Blocks are the hard-demapped interleaved coded bits per DATA symbol.
	Blocks [][]byte
	// SideBits are the decoded side-channel bits per DATA symbol.
	SideBits [][]byte
	// SymbolOK flags, per DATA symbol, whether its group's side-channel
	// CRC matched (nil when the side channel is off).
	SymbolOK []bool
	// PilotPhases is the tracked common phase per DATA symbol.
	PilotPhases []float64
}

// Synced is a frame located in a receive buffer and measured, but not yet
// corrected: the symbol readers below derotate each symbol as they load
// it, so a receiver pays the carrier correction only for the symbols it
// actually reads (Carpool's stations skip most of a frame) and never
// copies the buffer.
type Synced struct {
	// Samples is the receive buffer from the first preamble sample on,
	// shared with the caller's.
	Samples []complex128
	// CFORad is the carrier frequency offset Samples still carries, in
	// radians per sample; zero for an already corrected buffer.
	CFORad float64
}

// Acquire performs the front half of reception without touching the
// payload: packet detection, CFO estimation, and LTF channel estimation
// from a corrected copy of the two LTF symbols. The status is StatusOK,
// StatusNoPreamble, or StatusTruncated.
func Acquire(rx []complex128, knownStart int) (src Synced, h []complex128, status RxStatus) {
	sink := obs.Active()
	start := knownStart
	if start < 0 {
		var found bool
		start, found = ofdm.DetectPacket(rx)
		if !found {
			sink.Counter("phy.sync_fail").Inc()
			return Synced{}, nil, StatusNoPreamble
		}
	}
	if start+ofdm.PreambleLen+ofdm.SymbolLen > len(rx) {
		sink.Counter("phy.sync_fail").Inc()
		return Synced{}, nil, StatusTruncated
	}
	src = Synced{Samples: rx[start:]}
	src.CFORad = ofdm.EstimateCFO(src.Samples, 0)
	const ltf = ofdm.STFLen + ofdm.LTFGuardLen
	var pre [ofdm.PreambleLen]complex128
	ofdm.CorrectCFOInto(pre[ltf:], src.Samples[ltf:ofdm.PreambleLen], src.CFORad, ltf)
	h, err := ofdm.EstimateChannel(pre[:], 0)
	if err != nil {
		sink.Counter("phy.sync_fail").Inc()
		return src, nil, StatusTruncated
	}
	sink.Counter("phy.sync_ok").Inc()
	return src, h, StatusOK
}

// Sync is Acquire followed by correcting the whole frame: it returns a
// CFO-corrected copy of the sample buffer beginning at the preamble, the
// channel estimate, and the CFO, for callers that read the buffer
// themselves.
func Sync(rx []complex128, knownStart int) (buf []complex128, h []complex128, cfoRad float64, status RxStatus) {
	src, h, status := Acquire(rx, knownStart)
	if status != StatusOK {
		return nil, nil, src.CFORad, status
	}
	buf = make([]complex128, len(src.Samples))
	ofdm.CorrectCFOInto(buf, src.Samples, src.CFORad, 0)
	return buf, h, src.CFORad, StatusOK
}

// BinsInto loads the symbol at sample offset into its 64 frequency-domain
// bins, corrected for the carrier offset.
func (s Synced) BinsInto(bins []complex128, offset int) error {
	return ofdm.SymbolBinsCFOInto(bins, s.Samples[offset:], s.CFORad, offset)
}

// DecodeSIGAt demodulates and decodes one SIG symbol at the given sample
// offset in a synchronized, CFO-corrected buffer, equalizing with h and
// using pilot polarity index symIdx. It returns the SIG and the tracked
// pilot phase of the symbol (the side-channel differential reference for
// the symbols that follow it).
func DecodeSIGAt(buf, h []complex128, offset, symIdx int) (SIG, float64, error) {
	return Synced{Samples: buf}.DecodeSIGAt(h, offset, symIdx)
}

// DecodeSIGAt is the package-level DecodeSIGAt on a located frame.
func (s Synced) DecodeSIGAt(h []complex128, offset, symIdx int) (SIG, float64, error) {
	if offset+ofdm.SymbolLen > len(s.Samples) {
		return SIG{}, 0, fmt.Errorf("phy: buffer ends before SIG symbol")
	}
	var bins [ofdm.NumSubcarriers]complex128
	if err := s.BinsInto(bins[:], offset); err != nil {
		return SIG{}, 0, err
	}
	if err := ofdm.Equalize(bins[:], h); err != nil {
		return SIG{}, 0, err
	}
	phase, _ := ofdm.TrackPilotPhase(bins[:], symIdx)
	ofdm.CompensatePhase(bins[:], phase)
	var dataPoints [ofdm.NumData]complex128
	ofdm.ExtractDataInto(dataPoints[:], bins[:])
	sig, err := decodeSIGSymbol(dataPoints[:])
	return sig, phase, err
}

// Segment is the result of demodulating a run of DATA symbols.
type Segment struct {
	// Blocks are the hard-demapped interleaved coded bits per symbol.
	Blocks [][]byte
	// SideBits per symbol (nil without a side channel).
	SideBits [][]byte
	// SymbolOK per symbol: group CRC verdict (nil without a side channel).
	SymbolOK []bool
	// PilotPhases per symbol.
	PilotPhases []float64
	// LLRs per symbol (interleaved bit order), populated only when
	// requested; each bit's confidence is weighted by its subcarrier's
	// channel gain.
	LLRs [][]float64
	// LLRQs per symbol: quantized int8 LLRs (modem.DemapSoftQ convention,
	// channel-gain weighted), populated only when requested. The fast-path
	// input of fec.SoftDecoder.
	LLRQs [][]int8
	// Truncated is true when the buffer ended early; the slices above then
	// cover only the symbols that fit.
	Truncated bool
}

// DecodeDataSymbols demodulates nsym DATA symbols from a synchronized,
// CFO-corrected buffer. offset is the sample position of the first symbol;
// baseSymIdx its pilot-polarity index (consecutive symbols increment it).
// The tracker supplies (and may recalibrate) the channel estimate; scheme,
// when non-nil, decodes the phase-offset side channel with primePhase (the
// tracked phase of the preceding non-injected symbol) as the differential
// reference.
func DecodeDataSymbols(buf []complex128, offset, baseSymIdx, nsym int, mod modem.Modulation,
	tracker ChannelTracker, scheme *sidechannel.Scheme, primePhase float64) (*Segment, error) {
	return DecodeDataSymbolsOpts(buf, offset, baseSymIdx, nsym, mod, tracker, scheme, primePhase, false)
}

// DecodeDataSymbolsOpts is DecodeDataSymbols with soft-output collection:
// when collectLLRs is set, each symbol's per-bit LLRs (weighted by channel
// gain) are stored in Segment.LLRs for soft FEC decoding.
func DecodeDataSymbolsOpts(buf []complex128, offset, baseSymIdx, nsym int, mod modem.Modulation,
	tracker ChannelTracker, scheme *sidechannel.Scheme, primePhase float64,
	collectLLRs bool) (*Segment, error) {
	return decodeDataSymbols(Synced{Samples: buf}, offset, baseSymIdx, nsym, mod, tracker, scheme, primePhase,
		collectLLRs, false)
}

// DecodeDataSymbolsQ is DecodeDataSymbols collecting quantized int8 LLRs
// (Segment.LLRQs) for the integer soft-decode fast path instead of float64
// LLRs.
func DecodeDataSymbolsQ(buf []complex128, offset, baseSymIdx, nsym int, mod modem.Modulation,
	tracker ChannelTracker, scheme *sidechannel.Scheme, primePhase float64) (*Segment, error) {
	return Synced{Samples: buf}.DecodeDataSymbols(offset, baseSymIdx, nsym, mod, tracker, scheme, primePhase, true)
}

// DecodeDataSymbols is the package-level DecodeDataSymbols on a located
// frame, or with quantized set DecodeDataSymbolsQ.
func (s Synced) DecodeDataSymbols(offset, baseSymIdx, nsym int, mod modem.Modulation,
	tracker ChannelTracker, scheme *sidechannel.Scheme, primePhase float64, quantized bool) (*Segment, error) {
	return decodeDataSymbols(s, offset, baseSymIdx, nsym, mod, tracker, scheme, primePhase, false, quantized)
}

// decodeDataSymbols is the shared DATA-symbol demodulation loop.
//
// All per-symbol storage the Segment retains (coded blocks, side bits, LLRs)
// is carved out of flat buffers sized once up front, and the demodulation
// workspace lives in a scratch struct reused across symbols, so the
// steady-state symbol loop performs zero heap allocations.
func decodeDataSymbols(src Synced, offset, baseSymIdx, nsym int, mod modem.Modulation,
	tracker ChannelTracker, scheme *sidechannel.Scheme, primePhase float64,
	collectLLRs, collectLLRQs bool) (*Segment, error) {
	if tracker == nil {
		return nil, fmt.Errorf("phy: DecodeDataSymbols requires a tracker")
	}
	if !mod.Valid() {
		return nil, fmt.Errorf("phy: invalid modulation %v", mod)
	}
	if nsym < 0 {
		nsym = 0
	}
	// Observability: resolve the hot-loop metrics once per call. With no
	// sink installed every handle is nil and the per-symbol touch points
	// reduce to inlined nil checks — zero allocations, no atomics.
	var (
		ctrSymbols, ctrCRCOK, ctrCRCFail *obs.Counter
		tracer                           *obs.Tracer
	)
	if sink := obs.Active(); sink != nil {
		ctrSymbols = sink.Counter("phy.symbols_decoded")
		ctrCRCOK = sink.Counter("phy.symbols_crc_ok")
		ctrCRCFail = sink.Counter("phy.symbols_crc_fail")
		tracer = sink.Tracer
	}
	ncbps := mod.BitsPerSymbol() * ofdm.NumData
	seg := &Segment{
		Blocks:      make([][]byte, 0, nsym),
		PilotPhases: make([]float64, 0, nsym),
	}
	var sideDecoder *sidechannel.Decoder
	groupSize := 1
	sideBps := 0
	var sideBuf []byte
	if scheme != nil {
		if err := scheme.Validate(); err != nil {
			return nil, err
		}
		var err error
		sideDecoder, err = sidechannel.NewDecoder(scheme.Alphabet)
		if err != nil {
			return nil, err
		}
		sideDecoder.Prime(primePhase)
		groupSize = scheme.GroupSize
		sideBps = scheme.Alphabet.BitsPerSymbol()
		sideBuf = make([]byte, nsym*sideBps)
		seg.SideBits = make([][]byte, 0, nsym)
		seg.SymbolOK = make([]bool, 0, nsym)
	}

	// Flat backing stores for everything the Segment keeps, plus reusable
	// demodulation workspace. rawRing holds one raw-bin buffer per group
	// position: a symbol's raw bins are needed only until its group flushes
	// into tracker.Observe, so groupSize buffers suffice.
	var scratch struct {
		eq      [ofdm.NumSubcarriers]complex128
		points  [ofdm.NumData]complex128
		weights [ofdm.NumData]float64
	}
	blockBuf := make([]byte, nsym*ncbps)
	rawRing := make([]complex128, groupSize*ofdm.NumSubcarriers)
	var llrBuf []float64
	if collectLLRs {
		llrBuf = make([]float64, nsym*ncbps)
		seg.LLRs = make([][]float64, 0, nsym)
	}
	var llrqBuf []int8
	if collectLLRQs {
		llrqBuf = make([]int8, nsym*ncbps)
		seg.LLRQs = make([][]int8, 0, nsym)
	}

	type symRecord struct {
		idx     int
		rawBins []complex128
		phase   float64
		block   []byte
	}
	group := make([]symRecord, 0, groupSize)
	groupBits := make([]byte, 0, groupSize*ncbps)
	flushGroup := func() error {
		if len(group) == 0 {
			return nil
		}
		correct := false
		if sideDecoder != nil {
			sub := *scheme
			sub.GroupSize = len(group)
			groupBits = groupBits[:0]
			for _, r := range group {
				groupBits = append(groupBits, r.block...)
			}
			first, last := group[0].idx, group[len(group)-1].idx
			ok, err := sub.VerifyFlat(groupBits, sideBuf[first*sideBps:(last+1)*sideBps])
			if err != nil {
				return err
			}
			correct = ok
			for range group {
				seg.SymbolOK = append(seg.SymbolOK, ok)
			}
			verdict := int64(0)
			if ok {
				verdict = 1
				ctrCRCOK.Add(int64(len(group)))
			} else {
				ctrCRCFail.Add(int64(len(group)))
			}
			tracer.Emit(obs.EvSideVerdict, int64(group[0].idx), verdict)
		}
		if tracer != nil {
			verdict := int64(0)
			if correct {
				verdict = 1
			}
			for _, r := range group {
				tracer.Emit(obs.EvSymbolDecode, int64(r.idx), verdict)
			}
		}
		for _, r := range group {
			tracker.Observe(r.idx, r.rawBins, r.phase, r.block, correct)
		}
		group = group[:0]
		return nil
	}

	for i := 0; i < nsym; i++ {
		symOff := offset + i*ofdm.SymbolLen
		if symOff+ofdm.SymbolLen > len(src.Samples) {
			seg.Truncated = true
			break
		}
		rawBins := rawRing[len(group)*ofdm.NumSubcarriers:][:ofdm.NumSubcarriers]
		if err := src.BinsInto(rawBins, symOff); err != nil {
			return nil, err
		}
		copy(scratch.eq[:], rawBins)
		if err := ofdm.Equalize(scratch.eq[:], tracker.Estimate()); err != nil {
			return nil, err
		}
		phase, _ := ofdm.TrackPilotPhase(scratch.eq[:], baseSymIdx+i)
		ofdm.CompensatePhase(scratch.eq[:], phase)
		ofdm.ExtractDataInto(scratch.points[:], scratch.eq[:])
		block := blockBuf[i*ncbps : (i+1)*ncbps]
		if err := modem.DemapInto(block, mod, scratch.points[:]); err != nil {
			return nil, err
		}
		seg.Blocks = append(seg.Blocks, block)
		seg.PilotPhases = append(seg.PilotPhases, phase)
		ctrSymbols.Inc()
		if collectLLRs {
			llrs := llrBuf[i*ncbps : (i+1)*ncbps]
			if err := weightedLLRsInto(llrs, mod, scratch.points[:], tracker.Estimate()); err != nil {
				return nil, err
			}
			seg.LLRs = append(seg.LLRs, llrs)
		}
		if collectLLRQs {
			llrqs := llrqBuf[i*ncbps : (i+1)*ncbps]
			channelWeightsInto(scratch.weights[:], tracker.Estimate())
			if err := modem.DemapSoftQWeightedInto(llrqs, mod, scratch.points[:], scratch.weights[:]); err != nil {
				return nil, err
			}
			seg.LLRQs = append(seg.LLRQs, llrqs)
		}
		if sideDecoder != nil {
			sbits := sideBuf[i*sideBps : (i+1)*sideBps]
			if _, err := sideDecoder.NextInto(sbits, phase); err != nil {
				return nil, err
			}
			seg.SideBits = append(seg.SideBits, sbits)
		}
		group = append(group, symRecord{idx: i, rawBins: rawBins, phase: phase, block: block})
		if len(group) == groupSize {
			if err := flushGroup(); err != nil {
				return nil, err
			}
		}
	}
	if err := flushGroup(); err != nil {
		return nil, err
	}
	return seg, nil
}

// Receive synchronizes, equalizes and decodes one legacy-format frame.
func Receive(rx []complex128, cfg RxConfig) (*RxResult, error) {
	buf, h, cfo, status := Sync(rx, cfg.KnownStart)
	if status != StatusOK {
		return &RxResult{Status: status, CFORad: cfo}, nil
	}
	res := &RxResult{CFORad: cfo}

	sig, sigPhase, err := DecodeSIGAt(buf, h, ofdm.PreambleLen, 0)
	if err != nil {
		res.Status = StatusBadSIG
		return res, nil
	}
	res.SIG = sig

	tracker := cfg.Tracker
	if tracker == nil {
		tracker = NewStandardTracker()
	}
	tracker.Init(h, sig.MCS.Mod)

	nsym := sig.MCS.NumSymbols(sig.Length)
	soft := cfg.SoftFEC && !cfg.SkipFEC
	seg, err := decodeDataSymbols(Synced{Samples: buf}, ofdm.PreambleLen+ofdm.SymbolLen, 1, nsym,
		sig.MCS.Mod, tracker, cfg.SideChannel, sigPhase,
		soft && cfg.SoftFloat64, soft && !cfg.SoftFloat64)
	if err != nil {
		return nil, err
	}
	res.Blocks = seg.Blocks
	res.SideBits = seg.SideBits
	res.SymbolOK = seg.SymbolOK
	res.PilotPhases = seg.PilotPhases
	if seg.Truncated {
		res.Status = StatusTruncated
		return res, nil
	}

	res.Status = StatusOK
	if !cfg.SkipFEC {
		var payload []byte
		switch {
		case cfg.SoftFEC && cfg.SoftFloat64:
			payload, err = DecodeDataFieldSoft(seg.LLRs, sig.MCS, sig.Length)
		case cfg.SoftFEC:
			payload, err = DecodeDataFieldSoftQ(seg.LLRQs, sig.MCS, sig.Length)
		default:
			payload, err = DecodeDataField(res.Blocks, sig.MCS, sig.Length)
		}
		if err != nil {
			return nil, err
		}
		res.Payload = payload
	}
	return res, nil
}

// weightedLLRsInto computes per-bit LLRs for one equalized symbol into a
// caller-provided buffer, scaling each subcarrier's confidence by |H|^2:
// post-equalization noise grows as 1/|H|^2, so faded bins contribute
// proportionally weaker opinions to the soft Viterbi. The overall scale is
// irrelevant to the decoder.
func weightedLLRsInto(dst []float64, mod modem.Modulation, dataPoints, h []complex128) error {
	if err := modem.DemapSoftInto(dst, mod, dataPoints, 1); err != nil {
		return err
	}
	bps := mod.BitsPerSymbol()
	for i, k := range ofdm.DataIndices {
		g := h[ofdm.Bin(k)]
		w := real(g)*real(g) + imag(g)*imag(g)
		for j := 0; j < bps; j++ {
			dst[i*bps+j] *= w
		}
	}
	return nil
}

// channelWeightsInto fills dst (length ofdm.NumData) with |H|^2 per data
// subcarrier — the confidence weights the quantized demapper applies before
// saturation, matching weightedLLRsInto's scaling of the float chain.
func channelWeightsInto(dst []float64, h []complex128) {
	for i, k := range ofdm.DataIndices {
		g := h[ofdm.Bin(k)]
		dst[i] = real(g)*real(g) + imag(g)*imag(g)
	}
}

// CompareBlocks counts bit errors between transmitted and received coded
// blocks, per symbol. It returns per-symbol error counts and the number of
// bits per symbol compared.
func CompareBlocks(tx, rx [][]byte) (errsPerSymbol []int, bitsPerSymbol int) {
	n := min(len(tx), len(rx))
	errsPerSymbol = make([]int, n)
	for i := 0; i < n; i++ {
		m := min(len(tx[i]), len(rx[i]))
		if bitsPerSymbol == 0 {
			bitsPerSymbol = m
		}
		for j := 0; j < m; j++ {
			if tx[i][j] != rx[i][j] {
				errsPerSymbol[i]++
			}
		}
	}
	return errsPerSymbol, bitsPerSymbol
}

// PhaseUnwrapDiff returns the wrapped phase difference sequence of tracked
// pilot phases, exposed for diagnostics.
func PhaseUnwrapDiff(phases []float64) []float64 {
	if len(phases) < 2 {
		return nil
	}
	out := make([]float64, len(phases)-1)
	for i := 1; i < len(phases); i++ {
		out[i-1] = dsp.WrapPhase(phases[i] - phases[i-1])
	}
	return out
}
