package sidechannel

import (
	"fmt"

	"carpool/internal/obs"
)

// noteVerdict counts one group CRC check on the global sink, when enabled.
func noteVerdict(ok bool) {
	sink := obs.Active()
	if sink == nil {
		return
	}
	if ok {
		sink.Counter("side.verify_ok").Inc()
	} else {
		sink.Counter("side.verify_fail").Inc()
	}
}

// crcPolys maps a checksum width to its generator polynomial (implicit
// leading term), chosen so every width detects all single-bit errors.
var crcPolys = map[int]uint32{
	1: 0b1,      // parity
	2: 0b11,     // x^2 + x + 1
	3: 0b011,    // x^3 + x + 1
	4: 0b0011,   // x^4 + x + 1
	6: 0b000011, // x^6 + x + 1
}

// CRCK computes a k-bit CRC over a bit slice. Supported widths are the keys
// of crcPolys; other widths return an error.
func CRCK(bits []byte, k int) (uint32, error) {
	poly, ok := crcPolys[k]
	if !ok {
		return 0, fmt.Errorf("sidechannel: unsupported CRC width %d", k)
	}
	if k == 1 {
		var p uint32
		for _, b := range bits {
			p ^= uint32(b & 1)
		}
		return p, nil
	}
	var reg uint32
	top := uint32(1) << (k - 1)
	mask := (uint32(1) << k) - 1
	for _, b := range bits {
		fb := ((reg & top) >> (k - 1)) ^ uint32(b&1)
		reg = (reg << 1) & mask
		if fb != 0 {
			reg ^= poly
		}
	}
	return reg & mask, nil
}

// Scheme describes a symbol-level CRC granularity choice (§5.2): Alphabet
// fixes how many side-channel bits each OFDM symbol carries, and GroupSize
// is how many consecutive symbols share one checksum. The checksum width is
// Alphabet.BitsPerSymbol() * GroupSize.
//
// The paper's measurement concludes that {TwoBit, GroupSize: 1} — a CRC-2
// per symbol — is the best reliability/granularity tradeoff, and Carpool
// uses it by default.
type Scheme struct {
	Alphabet  Alphabet
	GroupSize int
}

// DefaultScheme is the configuration Carpool ships with.
func DefaultScheme() Scheme { return Scheme{Alphabet: TwoBit, GroupSize: 1} }

// Validate checks that the scheme is one of the six studied configurations.
func (s Scheme) Validate() error {
	if !s.Alphabet.Valid() {
		return fmt.Errorf("sidechannel: invalid alphabet %v", s.Alphabet)
	}
	if s.GroupSize < 1 || s.GroupSize > 3 {
		return fmt.Errorf("sidechannel: group size %d outside 1..3", s.GroupSize)
	}
	if _, ok := crcPolys[s.CRCWidth()]; !ok {
		return fmt.Errorf("sidechannel: no CRC polynomial of width %d", s.CRCWidth())
	}
	return nil
}

// CRCWidth returns the checksum width in bits.
func (s Scheme) CRCWidth() int { return s.Alphabet.BitsPerSymbol() * s.GroupSize }

// String names the scheme as it appears in the granularity study.
func (s Scheme) String() string {
	return fmt.Sprintf("%s x %d-symbol group (CRC-%d)", s.Alphabet, s.GroupSize, s.CRCWidth())
}

// Checksum computes the group checksum over the concatenated coded bits of
// one symbol group and splits it into per-symbol side-channel bit chunks,
// most significant chunk first.
func (s Scheme) Checksum(groupBits []byte) ([][]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	flat := make([]byte, s.CRCWidth())
	if err := s.ChecksumFlat(flat, groupBits); err != nil {
		return nil, err
	}
	bps := s.Alphabet.BitsPerSymbol()
	out := make([][]byte, s.GroupSize)
	for i := range out {
		out[i] = flat[i*bps : (i+1)*bps : (i+1)*bps]
	}
	return out, nil
}

// ChecksumFlat is Checksum writing the chunks back to back into dst
// (CRCWidth bits, the layout VerifyFlat reads), allocation-free.
func (s Scheme) ChecksumFlat(dst, groupBits []byte) error {
	if err := s.Validate(); err != nil {
		return err
	}
	w := s.CRCWidth()
	if len(dst) != w {
		return fmt.Errorf("sidechannel: checksum buffer needs %d bits, got %d", w, len(dst))
	}
	crc, err := CRCK(groupBits, w)
	if err != nil {
		return err
	}
	for j := range dst {
		dst[j] = byte((crc >> (w - 1 - j)) & 1)
	}
	return nil
}

// VerifyFlat is Verify for side-channel bits stored contiguously — GroupSize
// chunks of BitsPerSymbol bits each, concatenated most significant chunk
// first (the order Checksum emits). It recomputes nothing but the CRC, so it
// is allocation-free.
func (s Scheme) VerifyFlat(groupBits, sideBits []byte) (bool, error) {
	if err := s.Validate(); err != nil {
		return false, err
	}
	w := s.CRCWidth()
	if len(sideBits) != w {
		return false, fmt.Errorf("sidechannel: got %d side bits, want %d", len(sideBits), w)
	}
	crc, err := CRCK(groupBits, w)
	if err != nil {
		return false, err
	}
	for j := 0; j < w; j++ {
		if byte((crc>>(w-1-j))&1) != sideBits[j]&1 {
			noteVerdict(false)
			return false, nil
		}
	}
	noteVerdict(true)
	return true, nil
}

// Verify recomputes the checksum over received groupBits and compares it to
// the side-channel chunks decoded from the group's symbols.
func (s Scheme) Verify(groupBits []byte, sideChunks [][]byte) (bool, error) {
	want, err := s.Checksum(groupBits)
	if err != nil {
		return false, err
	}
	if len(sideChunks) != len(want) {
		return false, fmt.Errorf("sidechannel: got %d side chunks, want %d", len(sideChunks), len(want))
	}
	for i := range want {
		if len(sideChunks[i]) != len(want[i]) {
			return false, fmt.Errorf("sidechannel: chunk %d has %d bits, want %d",
				i, len(sideChunks[i]), len(want[i]))
		}
		for j := range want[i] {
			if sideChunks[i][j]&1 != want[i][j] {
				noteVerdict(false)
				return false, nil
			}
		}
	}
	noteVerdict(true)
	return true, nil
}
