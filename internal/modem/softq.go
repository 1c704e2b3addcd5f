package modem

import (
	"fmt"
	"math"

	"carpool/internal/fec"
)

// LLRQScale sets the resolution of the quantized demapper: the squared
// distance of one nearest-neighbor constellation step (4*Kmod^2) maps to
// LLRQScale int8 counts. The soft Viterbi decoder is invariant to positive
// scaling, so the absolute value only trades quantization granularity
// against int8 saturation: 16 leaves ~3 bits of sub-step resolution for
// noisy points while saturating only LLRs more than ~8 steps confident,
// where extra magnitude carries no decision information.
const LLRQScale = 16

// llrqScales[m] is the factor applied to a max-log squared-distance
// difference before saturating to int8. The noise variance the float path
// divides by is folded back in (see DemapSoftQInto), so the factor reduces
// to LLRQScale normalized by the modulation's nearest-neighbor energy.
var llrqScales = buildLLRQScales()

func buildLLRQScales() map[Modulation]float64 {
	out := make(map[Modulation]float64, len(Modulations()))
	for _, m := range Modulations() {
		k := m.Kmod()
		out[m] = LLRQScale / (4 * k * k)
	}
	return out
}

// DemapSoftQ is the quantized counterpart of DemapSoft, emitting saturating
// int8 LLRs ready for fec.SoftDecoder (positive means bit 0, zero is an
// erasure).
//
// The quantizer scale is chosen from noiseVar so that it cancels the float
// demapper's 1/noiseVar confidence normalization: the emitted value is the
// max-log squared-distance difference times LLRQScale/(4*Kmod^2),
// independent of SNR. The decoder is scale-invariant, so this loses nothing
// versus the float chain beyond int8 rounding and saturation, and it keeps
// the quantization step aligned with the constellation geometry at every
// operating point instead of drifting with the noise estimate.
func DemapSoftQ(m Modulation, points []complex128, noiseVar float64) ([]int8, error) {
	bps := m.BitsPerSymbol()
	if bps == 0 {
		return nil, fmt.Errorf("modem: invalid modulation %v", m)
	}
	out := make([]int8, len(points)*bps)
	if err := DemapSoftQInto(out, m, points, noiseVar); err != nil {
		return nil, err
	}
	return out, nil
}

// DemapSoftQInto is DemapSoftQ writing into a caller-provided buffer of
// exactly len(points)*BitsPerSymbol entries, allocation-free.
func DemapSoftQInto(dst []int8, m Modulation, points []complex128, noiseVar float64) error {
	if noiseVar <= 0 {
		return fmt.Errorf("modem: noise variance must be positive, got %v", noiseVar)
	}
	return demapSoftQ(dst, m, points, nil)
}

// DemapSoftQWeightedInto quantizes per-bit LLRs with a per-point positive
// weight applied before saturation — the receive path passes each
// subcarrier's channel gain |H|^2 so faded bins contribute proportionally
// weaker opinions, exactly as the float chain's weighted LLRs do, without
// materializing a float64 LLR slice. len(weights) must equal len(points).
// Non-finite weights degrade gracefully: NaN quantizes to an erasure,
// infinities saturate.
func DemapSoftQWeightedInto(dst []int8, m Modulation, points []complex128, weights []float64) error {
	if len(weights) != len(points) {
		return fmt.Errorf("modem: weight buffer needs %d entries, got %d", len(points), len(weights))
	}
	return demapSoftQ(dst, m, points, weights)
}

// DemapSoftQBatchInto is the multi-symbol batched variant of
// DemapSoftQInto: it demaps K symbols' constellation points back to back
// into one contiguous LLR slab, so a batched decode can hand the whole
// run to fec.SoftDecoder without per-symbol buffer bookkeeping. Symbol s's
// LLRs land immediately after symbol s-1's; len(dst) must equal the summed
// point count times BitsPerSymbol. Allocation-free.
func DemapSoftQBatchInto(dst []int8, m Modulation, symbols [][]complex128, noiseVar float64) error {
	if noiseVar <= 0 {
		return fmt.Errorf("modem: noise variance must be positive, got %v", noiseVar)
	}
	return demapSoftQBatch(dst, m, symbols, nil)
}

// DemapSoftQWeightedBatchInto is DemapSoftQBatchInto with per-point
// channel-gain weights, one weight slice per symbol (the
// DemapSoftQWeightedInto convention applied lane by lane).
func DemapSoftQWeightedBatchInto(dst []int8, m Modulation, symbols [][]complex128, weights [][]float64) error {
	if len(weights) != len(symbols) {
		return fmt.Errorf("modem: weight batch needs %d symbol entries, got %d", len(symbols), len(weights))
	}
	return demapSoftQBatch(dst, m, symbols, weights)
}

func demapSoftQBatch(dst []int8, m Modulation, symbols [][]complex128, weights [][]float64) error {
	bps := m.BitsPerSymbol()
	if bps == 0 {
		return fmt.Errorf("modem: invalid modulation %v", m)
	}
	total := 0
	for _, sym := range symbols {
		total += len(sym)
	}
	if len(dst) != total*bps {
		return fmt.Errorf("modem: LLR slab needs %d entries, got %d", total*bps, len(dst))
	}
	off := 0
	for s, sym := range symbols {
		n := len(sym) * bps
		var w []float64
		if weights != nil {
			w = weights[s]
			if len(w) != len(sym) {
				return fmt.Errorf("modem: symbol %d weight buffer needs %d entries, got %d", s, len(sym), len(w))
			}
		}
		if err := demapSoftQ(dst[off:off+n], m, sym, w); err != nil {
			return err
		}
		off += n
	}
	return nil
}

func demapSoftQ(dst []int8, m Modulation, points []complex128, weights []float64) error {
	bps := m.BitsPerSymbol()
	if bps == 0 {
		return fmt.Errorf("modem: invalid modulation %v", m)
	}
	if len(dst) != len(points)*bps {
		return fmt.Errorf("modem: LLR buffer needs %d entries, got %d", len(points)*bps, len(dst))
	}
	demapSoftQAxes(dst, &axes[m], llrqScales[m], points, weights)
	return nil
}

// sqDist is the squared-distance expression of the quantized demapper. The
// kernel and its test oracle both go through it, so a compiler that fuses
// the multiply-add fuses it the same way in both.
func sqDist(re, im float64) float64 { return re*re + im*im }

// pamAxis is one axis of a Gray QAM constellation, which is two independent
// PAM axes: the top half of a point's bit pattern picks its I level, the
// bottom half its Q level. A level's index is its label, so the levels whose
// axis bit j is b are known without the Gray table.
type pamAxis struct {
	level [8]float64 // the reference points' own coordinates, by label
	bits  int        // label bits: 1<<bits levels, a single one on BPSK's Q axis
}

type axisPair struct{ i, q pamAxis }

// axes[m] splits constellations[m] into its two axes.
var axes = buildAxes()

func buildAxes() (out [QAM64 + 1]axisPair) {
	for _, m := range Modulations() {
		ref := constellations[m]
		bps := m.BitsPerSymbol()
		ax := &out[m]
		ax.i.bits = (bps + 1) / 2 // BPSK: one I bit, a single Q level
		ax.q.bits = bps - ax.i.bits
		for a := 0; a < 1<<ax.i.bits; a++ {
			ax.i.level[a] = real(ref[a<<ax.q.bits])
		}
		for b := 0; b < 1<<ax.q.bits; b++ {
			ax.q.level[b] = imag(ref[b])
		}
		for v, s := range ref {
			if s != complex(ax.i.level[v>>ax.q.bits], ax.q.level[v&(1<<ax.q.bits-1)]) {
				panic(fmt.Sprintf("modem: %v constellation is not separable at pattern %d", m, v))
			}
		}
	}
	return out
}

// axisGaps is one coordinate's distance to its axis: to the nearest level
// of all, and per label bit to the nearest level carrying a 0 and a 1 there.
type axisGaps struct {
	near float64
	bit  [3][2]float64 // bit[j][b], j counted from the label's MSB
}

// scan fills g for coordinate x. Gaps are compared as bit patterns: a
// non-negative float orders as its pattern does, and every NaN pattern
// lies above +Inf's, so clamping each gap to +Inf leaves exactly what the
// scalar kernel's `dist < min` scans from a +Inf sentinel leave when no
// candidate compares — a NaN never wins. A level's index is its label, so
// the levels sharing a label bit pair up the same way at every width and
// the scan is a min tree over the label bits.
func (a *pamAxis) scan(g *axisGaps, x float64) {
	const (
		absMask = 1<<63 - 1
		infBits = 0x7ff0000000000000
	)
	gap := func(k int) uint64 { return min(math.Float64bits(x-a.level[k])&absMask, infBits) }
	f := math.Float64frombits
	switch a.bits {
	case 0:
		g.near = f(gap(0))
	case 1:
		u0, u1 := gap(0), gap(1)
		g.bit[0] = [2]float64{f(u0), f(u1)}
		g.near = f(min(u0, u1))
	case 2:
		u0, u1, u2, u3 := gap(0), gap(1), gap(2), gap(3)
		lo, hi := min(u0, u1), min(u2, u3)
		g.bit[0] = [2]float64{f(lo), f(hi)}
		g.bit[1] = [2]float64{f(min(u0, u2)), f(min(u1, u3))}
		g.near = f(min(lo, hi))
	case 3:
		u0, u1, u2, u3 := gap(0), gap(1), gap(2), gap(3)
		u4, u5, u6, u7 := gap(4), gap(5), gap(6), gap(7)
		p01, p23, p45, p67 := min(u0, u1), min(u2, u3), min(u4, u5), min(u6, u7)
		lo, hi := min(p01, p23), min(p45, p67)
		g.bit[0] = [2]float64{f(lo), f(hi)}
		g.bit[1] = [2]float64{f(min(p01, p45)), f(min(p23, p67))}
		g.bit[2] = [2]float64{f(min(u0, u2, u4, u6)), f(min(u1, u3, u5, u7))}
		g.near = f(min(lo, hi))
	}
}

// demapSoftQAxes is the quantized max-log demapper. sqDist is monotone in
// |re| and in |im| (every rounding step is, fused or not), so the smallest
// of the distances to the points whose bit j is b is sqDist itself at the
// nearest I level with bit j = b and the nearest Q level of all, and
// likewise for a Q bit: two per-axis scans replace a scan of the whole
// constellation. Output bytes equal demapSoftQScalar's for every input,
// NaN, infinite and overflowing coordinates and weights included.
func demapSoftQAxes(dst []int8, ax *axisPair, scale float64, points []complex128, weights []float64) {
	ib, qb := ax.i.bits, ax.q.bits
	var gi, gq axisGaps
	for i, y := range points {
		w := scale
		if weights != nil {
			w *= weights[i]
		}
		ax.i.scan(&gi, real(y))
		ax.q.scan(&gq, imag(y))
		out := dst[i*(ib+qb) : (i+1)*(ib+qb)]
		for j := 0; j < ib; j++ {
			min0, min1 := sqDist(gi.bit[j][0], gq.near), sqDist(gi.bit[j][1], gq.near)
			out[j] = fec.SatLLR8((min1 - min0) * w)
		}
		for j := 0; j < qb; j++ {
			min0, min1 := sqDist(gi.near, gq.bit[j][0]), sqDist(gi.near, gq.bit[j][1])
			out[ib+j] = fec.SatLLR8((min1 - min0) * w)
		}
	}
}

// HardFromLLRQ converts quantized LLRs back to hard bits (LLR > 0 -> 0, as
// in HardFromLLR; an erasure maps to 0 by the same convention).
func HardFromLLRQ(llrs []int8) []byte {
	out := make([]byte, len(llrs))
	for i, l := range llrs {
		if l < 0 {
			out[i] = 1
		}
	}
	return out
}
