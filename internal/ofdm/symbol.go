package ofdm

import (
	"fmt"

	"carpool/internal/dsp"
)

// AssembleSymbol builds one time-domain OFDM symbol (80 samples including
// the cyclic prefix) from 48 data constellation points. symIndex selects the
// pilot polarity (0 = SIG). An optional extra phase rotation, applied to all
// data AND pilot subcarriers, implements the Carpool phase-offset side
// channel; pass 0 for a standard symbol.
func AssembleSymbol(data []complex128, symIndex int, injectedPhase float64) ([]complex128, error) {
	out := make([]complex128, SymbolLen)
	if err := AssembleSymbolInto(out, data, symIndex, injectedPhase); err != nil {
		return nil, err
	}
	return out, nil
}

// AssembleSymbolInto is AssembleSymbol writing into a caller-provided
// SymbolLen-sample buffer, allocation-free. dst[CyclicPrefixLen:] doubles as
// the IFFT workspace; its previous contents are overwritten.
func AssembleSymbolInto(dst, data []complex128, symIndex int, injectedPhase float64) error {
	if len(dst) != SymbolLen {
		return fmt.Errorf("ofdm: symbol buffer needs %d samples, got %d", SymbolLen, len(dst))
	}
	if len(data) != NumData {
		return fmt.Errorf("ofdm: symbol needs %d data points, got %d", NumData, len(data))
	}
	bins := dst[CyclicPrefixLen:]
	for i := range bins {
		bins[i] = 0
	}
	for i, b := range dataBins {
		bins[b] = data[i]
	}
	pilots := PilotValues(symIndex)
	for i, b := range pilotBins {
		bins[b] = pilots[i]
	}
	if injectedPhase != 0 {
		dsp.Rotate(bins, injectedPhase)
	}
	if err := dsp.IFFT(bins); err != nil {
		return err
	}
	copy(dst[:CyclicPrefixLen], bins[NumSubcarriers-CyclicPrefixLen:])
	return nil
}

// SymbolBins strips the cyclic prefix from one received 80-sample symbol and
// returns its 64 frequency-domain bins.
func SymbolBins(samples []complex128) ([]complex128, error) {
	bins := make([]complex128, NumSubcarriers)
	if err := SymbolBinsInto(bins, samples); err != nil {
		return nil, err
	}
	return bins, nil
}

// SymbolBinsInto is SymbolBins writing into a caller-provided
// NumSubcarriers-bin buffer, allocation-free.
func SymbolBinsInto(bins, samples []complex128) error {
	return SymbolBinsCFOInto(bins, samples, 0, 0)
}

// SymbolBinsCFOInto is SymbolBinsInto for a symbol that still carries a
// carrier offset of eps radians per sample: samples[0] is sample number
// sampleOffset of the buffer the offset was estimated on, and the 64 body
// samples are derotated (CorrectCFOInto) on their way into the FFT input.
// It is the one place the receive chain reads a symbol from.
func SymbolBinsCFOInto(bins, samples []complex128, eps float64, sampleOffset int) error {
	if len(bins) != NumSubcarriers {
		return fmt.Errorf("ofdm: bin buffer needs %d entries, got %d", NumSubcarriers, len(bins))
	}
	if len(samples) < SymbolLen {
		return fmt.Errorf("ofdm: need %d samples per symbol, got %d", SymbolLen, len(samples))
	}
	CorrectCFOInto(bins, samples[CyclicPrefixLen:SymbolLen], eps, sampleOffset+CyclicPrefixLen)
	return dsp.FFT(bins)
}

// ExtractData picks the 48 equalized data points out of 64 bins.
func ExtractData(bins []complex128) []complex128 {
	out := make([]complex128, NumData)
	ExtractDataInto(out, bins)
	return out
}

// ExtractDataInto is ExtractData writing into a caller-provided NumData-point
// buffer, allocation-free. It panics on wrong buffer sizes (programmer
// error, like a slice index).
func ExtractDataInto(dst, bins []complex128) {
	if len(dst) != NumData {
		panic(fmt.Sprintf("ofdm: ExtractDataInto dst needs %d points, got %d", NumData, len(dst)))
	}
	for i, b := range dataBins {
		dst[i] = bins[b]
	}
}

// ExtractPilots picks the 4 received pilot points out of 64 bins.
func ExtractPilots(bins []complex128) [NumPilots]complex128 {
	var out [NumPilots]complex128
	for i, b := range pilotBins {
		out[i] = bins[b]
	}
	return out
}
