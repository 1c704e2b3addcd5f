package phy

import (
	"fmt"

	"carpool/internal/fec"
	"carpool/internal/modem"
	"carpool/internal/ofdm"
	"carpool/internal/sidechannel"
)

// TxConfig controls frame transmission.
type TxConfig struct {
	// MCS selects modulation and coding for the DATA field.
	MCS MCS
	// ScramblerSeed is the 7-bit initial scrambler state (0 is coerced to
	// all-ones, as in the fec package).
	ScramblerSeed byte
	// SideChannel, when non-nil, rides symbol-level CRC checksums on the
	// phase-offset side channel. Nil transmits a standard PHY frame.
	SideChannel *sidechannel.Scheme
}

// TxFrame is a transmitted frame plus the ground-truth artifacts that the
// evaluation harness compares against (per-symbol coded bits, side bits).
type TxFrame struct {
	Samples []complex128
	SIG     SIG
	// Blocks holds the interleaved coded bits mapped onto each DATA symbol.
	Blocks [][]byte
	// SideBits holds the side-channel bits injected into each DATA symbol
	// (nil when the side channel is off).
	SideBits [][]byte
}

// NumDataSymbols returns the DATA field length in OFDM symbols.
func (f *TxFrame) NumDataSymbols() int { return len(f.Blocks) }

// AirtimeSeconds returns the frame duration on the air.
func (f *TxFrame) AirtimeSeconds() float64 {
	return float64(len(f.Samples)) / ofdm.SampleRate
}

// EncodeDataField runs payload bytes through the 802.11 DATA-field bit
// pipeline — SERVICE and TAIL insertion, padding, scrambling, convolutional
// encoding, per-symbol interleaving — and returns one coded-bit block per
// OFDM symbol.
func EncodeDataField(payload []byte, mcs MCS, seed byte) ([][]byte, error) {
	if !mcs.Valid() {
		return nil, fmt.Errorf("phy: invalid MCS %v", mcs)
	}
	if len(payload) == 0 {
		return nil, fmt.Errorf("phy: empty payload")
	}
	ndbps := mcs.DataBitsPerSymbol()
	nsym := mcs.NumSymbols(len(payload))
	info := make([]byte, nsym*ndbps)
	copy(info[serviceBits:], BytesToBits(payload))
	// TAIL and pad bits are already zero.
	fec.NewScrambler(seed).Apply(info)
	// Zero the six tail bits after scrambling so the trellis terminates.
	tailStart := serviceBits + 8*len(payload)
	for i := 0; i < fec.TailBits; i++ {
		info[tailStart+i] = 0
	}
	coded, err := fec.ConvEncode(info, mcs.Rate)
	if err != nil {
		return nil, err
	}
	ncbps := mcs.CodedBitsPerSymbol()
	if len(coded) != nsym*ncbps {
		return nil, fmt.Errorf("phy: internal: coded length %d, want %d", len(coded), nsym*ncbps)
	}
	il, err := fec.CachedInterleaver(ncbps, mcs.Mod.BitsPerSymbol())
	if err != nil {
		return nil, err
	}
	blockBuf := make([]byte, nsym*ncbps)
	blocks := make([][]byte, nsym)
	for i := range blocks {
		blocks[i] = blockBuf[i*ncbps : (i+1)*ncbps]
		if err := il.InterleaveInto(blocks[i], coded[i*ncbps:(i+1)*ncbps]); err != nil {
			return nil, err
		}
	}
	return blocks, nil
}

// DecodeDataField inverts EncodeDataField: deinterleaves the per-symbol
// blocks, Viterbi-decodes, recovers the scrambler state from the SERVICE
// field, and returns the payload bytes.
func DecodeDataField(blocks [][]byte, mcs MCS, payloadLen int) ([]byte, error) {
	if !mcs.Valid() {
		return nil, fmt.Errorf("phy: invalid MCS %v", mcs)
	}
	if payloadLen <= 0 {
		return nil, fmt.Errorf("phy: non-positive payload length %d", payloadLen)
	}
	nsym := mcs.NumSymbols(payloadLen)
	if len(blocks) < nsym {
		return nil, fmt.Errorf("phy: %d symbol blocks, need %d for %d bytes", len(blocks), nsym, payloadLen)
	}
	ncbps := mcs.CodedBitsPerSymbol()
	il, err := fec.CachedInterleaver(ncbps, mcs.Mod.BitsPerSymbol())
	if err != nil {
		return nil, err
	}
	coded := make([]byte, nsym*ncbps)
	for i := 0; i < nsym; i++ {
		if err := il.DeinterleaveInto(coded[i*ncbps:(i+1)*ncbps], blocks[i]); err != nil {
			return nil, err
		}
	}
	info, err := fec.ViterbiDecode(coded, mcs.Rate, nsym*mcs.DataBitsPerSymbol())
	if err != nil {
		return nil, err
	}
	// The first 7 SERVICE bits expose the scrambling sequence.
	descrambler := fec.ScramblerFromOutputs(info[:7])
	descrambler.Apply(info[7:])
	payloadBits := info[serviceBits : serviceBits+8*payloadLen]
	return BitsToBytes(payloadBits), nil
}

// DecodeDataFieldSoft is the soft-decision counterpart of DecodeDataField:
// it consumes per-symbol LLR blocks (interleaved order, the
// modem.DemapSoft convention) and decodes with the soft Viterbi. Soft
// decoding buys roughly 2 dB over the paper's hard-decision prototype.
func DecodeDataFieldSoft(llrBlocks [][]float64, mcs MCS, payloadLen int) ([]byte, error) {
	if !mcs.Valid() {
		return nil, fmt.Errorf("phy: invalid MCS %v", mcs)
	}
	if payloadLen <= 0 {
		return nil, fmt.Errorf("phy: non-positive payload length %d", payloadLen)
	}
	nsym := mcs.NumSymbols(payloadLen)
	if len(llrBlocks) < nsym {
		return nil, fmt.Errorf("phy: %d LLR blocks, need %d for %d bytes", len(llrBlocks), nsym, payloadLen)
	}
	ncbps := mcs.CodedBitsPerSymbol()
	il, err := fec.CachedInterleaver(ncbps, mcs.Mod.BitsPerSymbol())
	if err != nil {
		return nil, err
	}
	llrs := make([]float64, nsym*ncbps)
	for i := 0; i < nsym; i++ {
		if err := il.DeinterleaveFloatsInto(llrs[i*ncbps:(i+1)*ncbps], llrBlocks[i]); err != nil {
			return nil, err
		}
	}
	info, err := fec.ViterbiDecodeSoft(llrs, mcs.Rate, nsym*mcs.DataBitsPerSymbol())
	if err != nil {
		return nil, err
	}
	descrambler := fec.ScramblerFromOutputs(info[:7])
	descrambler.Apply(info[7:])
	payloadBits := info[serviceBits : serviceBits+8*payloadLen]
	return BitsToBytes(payloadBits), nil
}

// sideBitsForBlocks computes the per-symbol side-channel bits for a run of
// coded blocks under the given scheme. A trailing partial group uses a
// shortened checksum of the same alphabet. Every symbol's bits are carved
// from one flat buffer, as the receive loop's are.
func sideBitsForBlocks(blocks [][]byte, scheme sidechannel.Scheme) ([][]byte, error) {
	if err := scheme.Validate(); err != nil {
		return nil, err
	}
	bps := scheme.Alphabet.BitsPerSymbol()
	flat := make([]byte, len(blocks)*bps)
	out := make([][]byte, len(blocks))
	var groupBits []byte
	for g := 0; g < len(blocks); g += scheme.GroupSize {
		end := min(g+scheme.GroupSize, len(blocks))
		sub := scheme
		sub.GroupSize = end - g
		groupBits = groupBits[:0]
		for _, b := range blocks[g:end] {
			groupBits = append(groupBits, b...)
		}
		if err := sub.ChecksumFlat(flat[g*bps:end*bps], groupBits); err != nil {
			return nil, err
		}
	}
	for i := range out {
		out[i] = flat[i*bps : (i+1)*bps : (i+1)*bps]
	}
	return out, nil
}

// BuildDataSymbolsInto maps coded-bit blocks onto OFDM DATA symbols,
// writing them into dst, which must hold exactly len(blocks) symbols: a
// frame builder knows its length before the first sample and lays every
// run straight into the frame. baseSymIdx is the pilot-polarity index of
// the first symbol (consecutive symbols increment it). When scheme is
// non-nil, each symbol carries its side-channel CRC bits as an injected
// phase offset; the differential encoder starts from zero, i.e. the symbol
// immediately before the run (a SIG or A-HDR symbol) is the phase
// reference.
func BuildDataSymbolsInto(dst []complex128, blocks [][]byte, mod modem.Modulation, baseSymIdx int,
	scheme *sidechannel.Scheme) (sideBits [][]byte, err error) {
	if len(dst) != len(blocks)*ofdm.SymbolLen {
		return nil, fmt.Errorf("phy: %d symbols need %d samples, got %d",
			len(blocks), len(blocks)*ofdm.SymbolLen, len(dst))
	}
	var encoder *sidechannel.Encoder
	if scheme != nil {
		sideBits, err = sideBitsForBlocks(blocks, *scheme)
		if err != nil {
			return nil, err
		}
		encoder, err = sidechannel.NewEncoder(scheme.Alphabet)
		if err != nil {
			return nil, err
		}
	}
	var points [ofdm.NumData]complex128
	for i, block := range blocks {
		if err := modem.MapInto(points[:], mod, block); err != nil {
			return nil, err
		}
		inject := 0.0
		if encoder != nil {
			inject, err = encoder.Next(sideBits[i])
			if err != nil {
				return nil, err
			}
		}
		sym := dst[i*ofdm.SymbolLen : (i+1)*ofdm.SymbolLen]
		if err := ofdm.AssembleSymbolInto(sym, points[:], baseSymIdx+i, inject); err != nil {
			return nil, err
		}
	}
	return sideBits, nil
}

// Transmit builds a complete legacy-format frame: preamble, SIG, DATA
// symbols, with the side channel injected when configured.
func Transmit(payload []byte, cfg TxConfig) (*TxFrame, error) {
	if len(payload) > maxSIGLen {
		return nil, fmt.Errorf("phy: payload %d bytes exceeds SIG limit %d", len(payload), maxSIGLen)
	}
	sig := SIG{MCS: cfg.MCS, Length: len(payload)}
	blocks, err := EncodeDataField(payload, cfg.MCS, cfg.ScramblerSeed)
	if err != nil {
		return nil, err
	}
	const dataAt = ofdm.PreambleLen + ofdm.SymbolLen
	samples := make([]complex128, dataAt+len(blocks)*ofdm.SymbolLen)
	copy(samples, ofdm.GeneratePreamble())
	sigSym, err := BuildSIGSymbol(sig, 0)
	if err != nil {
		return nil, err
	}
	copy(samples[ofdm.PreambleLen:], sigSym)
	sideBits, err := BuildDataSymbolsInto(samples[dataAt:], blocks, cfg.MCS.Mod, 1, cfg.SideChannel)
	if err != nil {
		return nil, err
	}
	return &TxFrame{Samples: samples, SIG: sig, Blocks: blocks, SideBits: sideBits}, nil
}
