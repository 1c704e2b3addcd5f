package fec

import (
	"fmt"
	"math"
	"math/bits"
)

// Quantized soft decoding.
//
// The int8 LLR convention matches modem.DemapSoft: positive means coded bit
// 0 is more likely, magnitude is confidence, and 0 is an erasure (punctured
// positions are re-inserted as zeros). The decoder is invariant to any
// positive scaling of its inputs, so the quantizer upstream is free to pick
// whatever scale fills the int8 range; modem.LLRQScale documents the choice
// the demapper makes.
//
// SoftDecoder replaces the float64 ViterbiDecodeSoft chain on the receive
// hot path. Three things make it fast:
//
//  1. uint16 path metrics with periodic renormalization. Branch metrics are
//     at most 256 per step (|la|+|lb| of two int8 LLRs, and |-128| is 128),
//     and the metric spread across the 64 states is bounded by 6*256 = 1536
//     once every state is reachable (any state is 6 hops from the
//     minimum-metric state). Subtracting the running minimum every
//     renormInterval steps therefore keeps every metric below
//     1536 + 64*256 = 17920, safely inside the < 2^15 headroom the SWAR
//     comparison below requires.
//
//  2. Four states per uint64 (16-bit lanes, 16 words), in a layout that
//     rotates with the trellis. The step from t to t+1 reads predecessors
//     p and p+32 and writes successors 2p and 2p+1, an even/odd interleave
//     that a fixed layout pays for with a shuffle per step. Keeping state
//     s of step t at position rotr6^(t mod 6)(s) — the 6-bit state rotated
//     right once per step — puts 2p exactly where p was and 2p+1 where
//     p+32 was, so every step updates the metrics in place: four
//     butterflies take X (four low predecessors) and Y (their high
//     partners, same lanes) to E = min(X+C, Y+C') in X's place and
//     O = min(X+C', Y+C) in Y's. X and Y are two words whose index differs
//     in bit 3, 2, 1, 0 in phases 0..3; in phases 4 and 5 they are two
//     lanes of one word and Y comes from a 32-bit rotate or an
//     adjacent-lane swap of the word itself.
//
//  3. Branch costs without a per-step table. The K=7 generators both tap
//     the newest and the oldest register bit, so the four branches of a
//     butterfly emit o, ^o, ^o, o: C is the cost of o and C' = total - C.
//     One of a coded bit's two costs is always zero, so
//     C = |la|·[A bit of o contradicts la] + |lb|·[B bit contradicts lb],
//     which for a whole word is two ANDs of a broadcast magnitude with an
//     init-time lane mask (laneA/laneB, by phase, LLR sign and word).
//
// The lane-wise compare/selects resolve in a handful of word ops using the
// high-bit borrow trick. Survivor bits are stored in layout order (bit
// 16*lane+word) and read back through statePos, as is the final metric scan.
//
// Tie-breaking matches ViterbiDecode and ViterbiDecodeSoft: on equal
// metrics the low predecessor (state>>1) wins, so all three decoders walk
// identical survivor paths on identical-decision inputs.
const (
	renormInterval = 64
	// initialMetric handicaps the 63 non-zero start states. It only needs
	// to exceed the largest 6-step path cost (6*256 = 1536) for paths
	// seeded at an invalid state to lose every merge against genuine
	// paths, exactly as the float64 decoder's +Inf initialization does.
	initialMetric = 0x3000
	swarHigh      = 0x8000800080008000
	swarOnes      = 0x0001000100010001
	// numMetricWords is the packed metric array length: 64 states, 4
	// 16-bit lanes per word.
	numMetricWords = numStates / 4
	// numPhases is the layout period: six one-bit rotations of a 6-bit
	// state are the identity.
	numPhases = constraintLen - 1

	// stepLanePairs compares a word with its own lane permutation.
	// tieLanes carries the strict-compare +1 only where the permuted word
	// is the high predecessor (a tie keeps the low one); flipBits inverts
	// the survivor bits of the other lanes, where "permuted word selected"
	// means the low predecessor won.
	tieLanes4 = 0x0000000000010001 // lanes 0,1 hold low predecessors
	tieLanes5 = 0x0000000100000001 // lanes 0,2
	flipBits4 = 0xffffffff00000000 // survivor bits of lanes 2,3
	flipBits5 = 0xffff0000ffff0000 // lanes 1,3
	oddLanes  = 0xffff0000ffff0000
)

// rotr6 rotates a 6-bit state right by n.
func rotr6(s, n int) int {
	n %= numPhases
	return (s>>n | s<<(numPhases-n)) & (numStates - 1)
}

// statePos[ph][s] locates state s in layout phase ph as 16*lane+word: the
// survivor bit it owns, and (split again) its path metric.
var statePos = buildStatePos()

func buildStatePos() (t [numPhases][numStates]uint8) {
	for ph := range t {
		for s := range t[ph] {
			pos := rotr6(s, ph)
			t[ph][s] = uint8(pos&3<<4 | pos>>2)
		}
	}
	return t
}

// laneA[ph][neg][w] marks (0xffff) the lanes of word w in phase ph whose
// butterfly's low-predecessor, input-0 branch emits a coded bit A that
// contradicts an A LLR of the given sign (neg = 1 for a negative LLR, which
// favours coded bit 1); laneB likewise for coded bit B. Both lanes of a
// butterfly carry the same mark.
var laneA, laneB = buildLaneCosts()

func buildLaneCosts() (a, b [numPhases][2][numMetricWords]uint64) {
	// The kernel relies on two symmetries of the generator pair: both
	// polynomials tap the newest bit (input-bit complement) and the oldest
	// bit (high-predecessor complement). They hold for the 802.11 133/171
	// pair; guard against table edits.
	for s := 0; s < numStates; s++ {
		if branchOut[s][1] != branchOut[s][0]^3 {
			panic("fec: branch table lost input-bit complement symmetry")
		}
		if branchOut[s|numStates/2][0] != branchOut[s&^(numStates/2)][0]^3 {
			panic("fec: branch table lost high-predecessor complement symmetry")
		}
	}
	for ph := 0; ph < numPhases; ph++ {
		for pos := 0; pos < numStates; pos++ {
			s := rotr6(pos, numPhases-ph) // the state living at pos
			o := branchOut[s&(numStates/2-1)][0]
			w, lane := pos>>2, uint(pos&3)*16
			// A coded bit of 1 contradicts a non-negative LLR, 0 a negative.
			a[ph][o>>1&1^1][w] |= 0xffff << lane
			b[ph][o&1^1][w] |= 0xffff << lane
		}
	}
	return a, b
}

// selectMin is four add-compare-selects: lane-wise, y where y+tie <= x and
// x elsewhere, plus the lanes (bit 15 of each) where y was taken. Values
// stay below 2^15, so ORing the lane's high bit into x and subtracting
// y+tie cannot borrow across lanes, and the high bit survives exactly when
// x >= y+tie. tie is 1 in lanes where an equal y must lose.
func selectMin(x, y, tie uint64) (sel, took uint64) {
	took = ((x | swarHigh) - (y + tie)) & swarHigh
	return x ^ (x^y)&((took>>15)*0xffff), took
}

// stepWordPairs advances the trellis one step in a phase (0..3) whose
// butterflies pair word i (X) with word i|bit (Y), and returns the step's
// survivor bits. magA and magB are the two LLR magnitudes broadcast to
// every lane, ta and tb the phase's lane masks for their signs.
func stepWordPairs(metric *[numMetricWords]uint64, bit int, magA, magB uint64, ta, tb *[numMetricWords]uint64) (sbits uint64) {
	total := magA + magB
	for base := 0; base < numMetricWords; base += 2 * bit {
		for i := base; i < base+bit; i++ {
			j := i + bit
			x, y := metric[i&15], metric[j&15]
			c := magA&ta[i&15] + magB&tb[i&15]
			cc := total - c
			even, tookE := selectMin(x+c, y+cc, swarOnes)
			odd, tookO := selectMin(x+cc, y+c, swarOnes)
			metric[i&15], metric[j&15] = even, odd
			// Decision bits sit at bit 15 of each lane; word w's belong at
			// bit w, and j = i+bit.
			sbits |= (tookE>>bit | tookO) >> (15 - j&15)
		}
	}
	return sbits
}

// stepLanePairs is the step of phases 4 and 5, whose butterflies pair two
// lanes of one word: the word is compared with its own lane permutation (a
// 32-bit rotate in phase 4, an adjacent-lane swap in phase 5), so half its
// lanes hold a low predecessor's candidate and half a high one's.
func stepLanePairs(metric *[numMetricWords]uint64, swap bool, magA, magB uint64, ta, tb *[numMetricWords]uint64) (sbits uint64) {
	total := magA + magB
	tie, flip := uint64(tieLanes4), uint64(flipBits4)
	if swap {
		tie, flip = tieLanes5, flipBits5
	}
	for w, v := range metric {
		partner := bits.RotateLeft64(v, 32)
		if swap {
			partner = v&oddLanes>>16 | v&^oddLanes<<16
		}
		c := magA&ta[w] + magB&tb[w]
		sel, took := selectMin(v+c, partner+(total-c), tie)
		metric[w] = sel
		sbits = sbits>>1 | took // word w's decisions end up at bit w of each lane
	}
	return sbits ^ flip
}

// SoftDecoder is a reusable quantized soft-decision Viterbi decoder. The
// zero value is ready to use; after the first call of a given frame size,
// DecodeInto performs zero heap allocations. A SoftDecoder must not be
// shared between goroutines (use one per worker, or a sync.Pool).
type SoftDecoder struct {
	survivors []uint64
	scratch   []int8 // depunctured mother stream for rates 2/3 and 3/4
}

// Decode is DecodeInto with an allocated output slice.
func (d *SoftDecoder) Decode(llrs []int8, rate CodeRate, numInfoBits int) ([]byte, error) {
	if numInfoBits <= 0 {
		return nil, fmt.Errorf("fec: numInfoBits must be positive, got %d", numInfoBits)
	}
	out := make([]byte, numInfoBits)
	if err := d.DecodeInto(out, llrs, rate, numInfoBits); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeInto maximum-likelihood-decodes a punctured stream of quantized
// LLRs into dst (one 0/1 byte per information bit, len(dst) ==
// numInfoBits). It is the int8 counterpart of ViterbiDecodeSoft and decodes
// the same path on inputs that quantize without saturation; in steady state
// it allocates nothing.
func (d *SoftDecoder) DecodeInto(dst []byte, llrs []int8, rate CodeRate, numInfoBits int) error {
	if !rate.Valid() {
		return fmt.Errorf("fec: invalid code rate %v", rate)
	}
	if numInfoBits <= 0 {
		return fmt.Errorf("fec: numInfoBits must be positive, got %d", numInfoBits)
	}
	if len(dst) != numInfoBits {
		return fmt.Errorf("fec: output buffer needs %d entries, got %d", numInfoBits, len(dst))
	}
	mother := llrs
	if rate != Rate1_2 {
		need := 2 * numInfoBits
		if cap(d.scratch) < need {
			d.scratch = make([]int8, need)
		}
		mother = d.scratch[:need]
		if err := depunctureQInto(mother, llrs, rate); err != nil {
			return err
		}
	} else if len(llrs) < 2*numInfoBits {
		return fmt.Errorf("fec: LLR stream too short: have %d, need more for %d info bits at rate %v",
			len(llrs), numInfoBits, rate)
	}

	if cap(d.survivors) < numInfoBits {
		d.survivors = make([]uint64, numInfoBits)
	}
	surv := d.survivors[:numInfoBits]

	// Phase 0 is the identity layout: word w holds states 4w..4w+3.
	var metric [numMetricWords]uint64
	metric[0] = initialMetric*swarOnes - initialMetric // state 0 free, 1..3 handicapped
	for i := 1; i < numMetricWords; i++ {
		metric[i] = initialMetric * swarOnes
	}

	ph := 0
	for t := 0; t < numInfoBits; t++ {
		la, lb := int64(mother[2*t]), int64(mother[2*t+1])
		na, nb := la>>63, lb>>63 // 0 or -1
		magA := uint64((la^na)-na) * swarOnes
		magB := uint64((lb^nb)-nb) * swarOnes
		ta, tb := &laneA[ph][na&1], &laneB[ph][nb&1]
		if ph < 4 {
			surv[t] = stepWordPairs(&metric, 8>>ph, magA, magB, ta, tb)
		} else {
			surv[t] = stepLanePairs(&metric, ph == 5, magA, magB, ta, tb)
		}
		if ph++; ph == numPhases {
			ph = 0
		}
		if t%renormInterval == renormInterval-1 {
			renormWords(&metric)
		}
	}

	// The strict compare keeps the lowest state on ties, as the scalar
	// decoders do. ph is now the layout the last step left behind.
	best, bestMetric := 0, uint64(math.MaxUint64)
	for s := 0; s < numStates; s++ {
		at := statePos[ph][s]
		if m := metric[at&15] >> (at >> 4 * 16) & 0xffff; m < bestMetric {
			best, bestMetric = s, m
		}
	}
	state := best
	for t := numInfoBits - 1; t >= 0; t-- {
		// surv[t] is in the layout step t wrote: phase (t+1) mod 6.
		dst[t] = byte(state & 1)
		state = state>>1 | int(surv[t]>>statePos[ph][state]&1)<<5
		if ph--; ph < 0 {
			ph = numPhases - 1
		}
	}
	return nil
}

// renormWords subtracts the minimum path metric from every state, operating
// on the packed word layout: a lane-wise SWAR min folds the 16 words to
// one, a scalar pass folds its 4 lanes, and the broadcast subtraction
// cannot borrow across lanes because every lane is >= the minimum. The
// strict-compare trick requires lanes below 2^15, which the renorm cadence
// guarantees (see the metric-headroom analysis above).
func renormWords(metric *[numMetricWords]uint64) {
	lo := metric[0]
	for i := 1; i < numMetricWords; i++ {
		w := metric[i]
		diff := (lo | swarHigh) - (w + swarOnes)
		m := (diff & swarHigh) >> 15
		mask := m * 0xffff
		lo = (w & mask) | (lo &^ mask)
	}
	min := lo & 0xffff
	for k := 1; k < 4; k++ {
		if l := lo >> (16 * k) & 0xffff; l < min {
			min = l
		}
	}
	bcast := min * swarOnes
	for i := range metric {
		metric[i] -= bcast
	}
}

// ViterbiDecodeSoftQ is a convenience wrapper allocating a throwaway
// SoftDecoder; hot paths should hold a SoftDecoder and call DecodeInto.
func ViterbiDecodeSoftQ(llrs []int8, rate CodeRate, numInfoBits int) ([]byte, error) {
	var d SoftDecoder
	return d.Decode(llrs, rate, numInfoBits)
}

// depunctureQInto re-inserts zero-LLR erasures where bits were punctured,
// filling dst (length 2*numInfoBits) without allocating.
func depunctureQInto(dst, llrs []int8, rate CodeRate) error {
	pattern := rate.puncturePattern()
	src, n := 0, 0
	for n < len(dst) {
		for _, keep := range pattern {
			if n == len(dst) {
				break
			}
			if keep {
				if src >= len(llrs) {
					return fmt.Errorf("fec: LLR stream too short: have %d, need more for %d info bits at rate %v",
						len(llrs), len(dst)/2, rate)
				}
				dst[n] = llrs[src]
				src++
			} else {
				dst[n] = 0
			}
			n++
		}
	}
	return nil
}

// SatLLR8 saturates a float LLR (already multiplied by the caller's chosen
// quantization scale) to the symmetric int8 range [-127, 127]. Non-finite
// inputs quantize to 0 — an erasure — so pathological channel weights
// degrade gracefully instead of poisoning the trellis.
func SatLLR8(v float64) int8 {
	switch {
	case v >= 127:
		return 127
	case v <= -127:
		return -127
	case math.IsNaN(v):
		return 0
	default:
		return int8(math.Round(v))
	}
}

// QuantizeLLRsInto saturates scale*src[i] into dst. len(dst) must equal
// len(src).
func QuantizeLLRsInto(dst []int8, src []float64, scale float64) error {
	if len(dst) != len(src) {
		return fmt.Errorf("fec: quantize buffer needs %d entries, got %d", len(src), len(dst))
	}
	for i, l := range src {
		dst[i] = SatLLR8(l * scale)
	}
	return nil
}
