package ofdm

import (
	"fmt"
	"math"
	"math/cmplx"

	"carpool/internal/dsp"
)

// Preamble dimensions: the legacy 802.11 PLCP preamble is 8 µs of STF (ten
// repetitions of a 16-sample pattern) followed by 8 µs of LTF (a 32-sample
// guard plus two 64-sample training symbols).
const (
	STFLen      = 160
	LTFGuardLen = 32
	LTFLen      = LTFGuardLen + 2*NumSubcarriers // 160
	PreambleLen = STFLen + LTFLen                // 320 samples, 16 µs
)

// GenerateSTF returns the 160-sample short training field.
func GenerateSTF() []complex128 {
	bins := make([]complex128, NumSubcarriers)
	for k := -26; k <= 26; k++ {
		if v := STFValue(k); v != 0 {
			bins[Bin(k)] = v
		}
	}
	if err := dsp.IFFT(bins); err != nil {
		panic(err) // length 64 is a power of two; cannot fail
	}
	out := make([]complex128, STFLen)
	for i := range out {
		out[i] = bins[i%NumSubcarriers]
	}
	return out
}

// ltfTimeSymbol returns one 64-sample time-domain LTF symbol.
func ltfTimeSymbol() []complex128 {
	bins := make([]complex128, NumSubcarriers)
	for k := -26; k <= 26; k++ {
		bins[Bin(k)] = complex(LTFValue(k), 0)
	}
	if err := dsp.IFFT(bins); err != nil {
		panic(err)
	}
	return bins
}

// GenerateLTF returns the 160-sample long training field: a 32-sample cyclic
// guard followed by two identical 64-sample training symbols.
func GenerateLTF() []complex128 {
	sym := ltfTimeSymbol()
	out := make([]complex128, 0, LTFLen)
	out = append(out, sym[NumSubcarriers-LTFGuardLen:]...)
	out = append(out, sym...)
	out = append(out, sym...)
	return out
}

// GeneratePreamble returns the full 320-sample legacy preamble.
func GeneratePreamble() []complex128 {
	out := make([]complex128, 0, PreambleLen)
	out = append(out, GenerateSTF()...)
	out = append(out, GenerateLTF()...)
	return out
}

// DetectPacket finds the start of a frame in rx by delay-and-correlate over
// the STF's 16-sample periodicity, then refines the preamble start with a
// cross-correlation against the known LTF symbol. It returns the index of
// the first preamble sample, or ok=false when no plateau exceeds the
// normalized threshold (0.5 works well down to ~0 dB SNR).
func DetectPacket(rx []complex128) (start int, ok bool) {
	const lag = 16
	const window = 48
	if len(rx) < PreambleLen {
		return 0, false
	}
	// Locate the autocorrelation plateau.
	plateau := -1
	for n := 0; n+lag+window < len(rx); n++ {
		var corr complex128
		var power float64
		for i := 0; i < window; i++ {
			a := rx[n+i]
			b := rx[n+i+lag]
			corr += a * cmplx.Conj(b)
			power += real(b)*real(b) + imag(b)*imag(b)
		}
		if power <= 0 {
			continue
		}
		if cmplx.Abs(corr)/power > 0.5 {
			plateau = n
			break
		}
	}
	if plateau < 0 {
		return 0, false
	}
	// Refine: cross-correlate with the known LTF time symbol in a window
	// around the plateau to pin down where the LTF's first symbol starts.
	ref := ltfTimeSymbol()
	searchLo := plateau
	searchHi := plateau + STFLen + LTFGuardLen + 2*lag
	if searchHi+NumSubcarriers > len(rx) {
		searchHi = len(rx) - NumSubcarriers
	}
	if searchHi <= searchLo {
		return 0, false
	}
	bestIdx, bestMag := -1, 0.0
	for n := searchLo; n <= searchHi; n++ {
		m := cmplx.Abs(dsp.DotConj(rx[n:n+NumSubcarriers], ref))
		if m > bestMag {
			bestMag, bestIdx = m, n
		}
	}
	if bestIdx < 0 {
		return 0, false
	}
	// The match is the first LTF symbol, which sits STF+guard after the
	// preamble start; it may also have locked on to the second LTF symbol,
	// but the first one always has the larger or equal correlation because
	// both are identical — the earliest peak is returned by strict >.
	start = bestIdx - STFLen - LTFGuardLen
	if start < 0 {
		return 0, false
	}
	return start, true
}

// EstimateCFO estimates the carrier frequency offset, in radians per sample,
// from a preamble located at start. It combines the coarse estimate from the
// STF's 16-sample periodicity with the fine estimate from the LTF's
// 64-sample repetition.
func EstimateCFO(rx []complex128, start int) float64 {
	// Coarse from STF: phase of sum r[n] conj(r[n+16]) measures -16*eps.
	stf := rx[start : start+STFLen]
	var acc complex128
	for n := 0; n+16 < len(stf); n++ {
		acc += cmplx.Conj(stf[n]) * stf[n+16]
	}
	coarse := cmplx.Phase(acc) / 16
	// Fine from LTF (ambiguity ±pi/64 resolved by the coarse estimate).
	ltfStart := start + STFLen + LTFGuardLen
	var accL complex128
	for n := 0; n < NumSubcarriers; n++ {
		accL += cmplx.Conj(rx[ltfStart+n]) * rx[ltfStart+NumSubcarriers+n]
	}
	fine := cmplx.Phase(accL) / NumSubcarriers
	// Unwrap the fine estimate onto the coarse one.
	period := 2 * math.Pi / float64(NumSubcarriers)
	k := math.Round((coarse - fine) / period)
	return fine + k*period
}

// CorrectCFO derotates rx in place by the estimated offset eps (radians per
// sample), with sample index counted from sampleOffset.
func CorrectCFO(rx []complex128, eps float64, sampleOffset int) {
	CorrectCFOInto(rx, rx, eps, sampleOffset)
}

// CorrectCFOInto writes src, derotated by eps, into dst (at least as long;
// it may be src itself). Each sample is turned by its own position counted
// from sampleOffset and by nothing else, so correcting a stretch of a
// buffer when it is read gives the same floats as correcting the whole
// buffer up front. A zero eps is a plain copy.
func CorrectCFOInto(dst, src []complex128, eps float64, sampleOffset int) {
	if eps == 0 {
		copy(dst, src)
		return
	}
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] = x * cmplx.Exp(complex(0, -eps*float64(sampleOffset+i)))
	}
}

// EstimateChannel computes the per-subcarrier channel estimate from the two
// LTF symbols of a preamble that starts at start in rx (after CFO
// correction). Bins outside the occupied -26..26 range are zero.
func EstimateChannel(rx []complex128, start int) ([]complex128, error) {
	ltfStart := start + STFLen + LTFGuardLen
	if ltfStart+2*NumSubcarriers > len(rx) {
		return nil, errShortLTF
	}
	h := make([]complex128, NumSubcarriers)
	for _, off := range []int{0, NumSubcarriers} {
		bins := make([]complex128, NumSubcarriers)
		copy(bins, rx[ltfStart+off:ltfStart+off+NumSubcarriers])
		if err := dsp.FFT(bins); err != nil {
			return nil, err
		}
		for k := -26; k <= 26; k++ {
			l := LTFValue(k)
			if l == 0 {
				continue
			}
			h[Bin(k)] += bins[Bin(k)] / complex(l, 0)
		}
	}
	for i := range h {
		h[i] /= 2
	}
	return h, nil
}

var errShortLTF = fmt.Errorf("ofdm: rx too short for LTF channel estimation")
