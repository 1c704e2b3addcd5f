// Packet-level erasure coding across the subframes of one aggregate.
//
// The engine's shared-fate retry path resends a whole aggregate when any
// receiver misses its subframe. The erasure layer here takes the opposite
// approach (Chen & Leith, arXiv:1712.02718): treat the downlink as a
// broadcast channel and code *across* receivers, appending parity
// subframes so a station that loses its own subframe reconstructs it from
// the subframes it overheard plus parity — no retransmission.
//
// Two codes, one implementation:
//
//   - m = 1 parity shard is plain XOR: any single erasure is recovered by
//     XOR-ing the surviving shards. The generator matrix below is built so
//     its first parity row is all ones, making this literally the XOR code.
//   - m >= 2 is a systematic Reed-Solomon code over GF(256) (polynomial
//     0x11d). Any m erasures across the k+m shards are recoverable.
//
// Everything is scratch-based: NewRS preallocates the decode matrices and
// EncodeInto/ReconstructInto perform zero heap allocations per call, so
// the kernels sit beside the SWAR Viterbi on the hot path.
package fec

import (
	"encoding/binary"
	"fmt"
)

// gfPoly is the AES/QR-code reduction polynomial x^8+x^4+x^3+x^2+1.
const gfPoly = 0x11d

var (
	// gfExp[i] = g^i for generator g=2; doubled so gfMul can skip a mod.
	gfExp [512]byte
	// gfLog[x] = log_g(x); gfLog[0] is unused.
	gfLog [256]byte
	// gfMulTab is the flat 64 KiB product table indexed [c<<8|x]. The
	// per-row slice gfMulTab[int(c)<<8:] turns the inner encode loop into
	// one table load per byte with no log/exp arithmetic.
	gfMulTab [65536]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
	for c := 1; c < 256; c++ {
		lc := int(gfLog[c])
		row := gfMulTab[c<<8 : c<<8+256]
		for x := 1; x < 256; x++ {
			row[x] = gfExp[lc+int(gfLog[x])]
		}
	}
}

// gfMul multiplies two GF(256) elements.
func gfMul(a, b byte) byte {
	return gfMulTab[int(a)<<8|int(b)]
}

// gfInv returns the multiplicative inverse; gfInv(0) is undefined and
// returns 0.
func gfInv(a byte) byte {
	if a == 0 {
		return 0
	}
	return gfExp[255-int(gfLog[a])]
}

// mulAddInto computes dst[i] ^= c * src[i] over GF(256) for i < len(src);
// dst may be longer (the tail is src's implicit zero padding and stays as
// it is). c == 0 is a no-op; c == 1 degenerates to the plain XOR. The main
// loop gathers eight table bytes into one word, so dst sees one load, one
// xor and one store per eight bytes instead of eight of each.
func mulAddInto(dst, src []byte, c byte) {
	switch c {
	case 0:
		return
	case 1:
		xorInto(dst, src)
		return
	}
	row := (*[256]byte)(gfMulTab[int(c)<<8:])
	n := len(src)
	dst = dst[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		s, d := src[i:i+8:i+8], dst[i:i+8:i+8]
		v := uint64(row[s[0]]) | uint64(row[s[1]])<<8 |
			uint64(row[s[2]])<<16 | uint64(row[s[3]])<<24 |
			uint64(row[s[4]])<<32 | uint64(row[s[5]])<<40 |
			uint64(row[s[6]])<<48 | uint64(row[s[7]])<<56
		binary.LittleEndian.PutUint64(d, binary.LittleEndian.Uint64(d)^v)
	}
	for ; i < n; i++ {
		dst[i] ^= row[src[i]]
	}
}

// mulInto computes dst = c * src. It only scales decode-matrix rows, a
// handful of bytes each, so it stays a byte loop.
func mulInto(dst, src []byte, c byte) {
	row := (*[256]byte)(gfMulTab[int(c)<<8:])
	dst = dst[:len(src)]
	for i, s := range src {
		dst[i] = row[s]
	}
}

// xorInto computes dst[i] ^= src[i] for i < len(src), 32 bytes per
// iteration.
func xorInto(dst, src []byte) {
	n := len(src)
	dst = dst[:n]
	i := 0
	for ; i+32 <= n; i += 32 {
		d, s := dst[i:i+32:i+32], src[i:i+32:i+32]
		binary.LittleEndian.PutUint64(d[0:], binary.LittleEndian.Uint64(d[0:])^binary.LittleEndian.Uint64(s[0:]))
		binary.LittleEndian.PutUint64(d[8:], binary.LittleEndian.Uint64(d[8:])^binary.LittleEndian.Uint64(s[8:]))
		binary.LittleEndian.PutUint64(d[16:], binary.LittleEndian.Uint64(d[16:])^binary.LittleEndian.Uint64(s[16:]))
		binary.LittleEndian.PutUint64(d[24:], binary.LittleEndian.Uint64(d[24:])^binary.LittleEndian.Uint64(s[24:]))
	}
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:]))
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
}

// XORParity writes the XOR of the data shards into parity — the m=1
// erasure code in its simplest clothing. All shards must share one length.
func XORParity(parity []byte, data [][]byte) {
	for i := range parity {
		parity[i] = 0
	}
	for _, d := range data {
		xorInto(parity, d)
	}
}

// TooManyErasuresError reports a reconstruction attempt with fewer
// surviving shards than data shards. It is a typed error so callers (and
// the fuzzers) can distinguish "unrecoverable" from "wrong bytes".
type TooManyErasuresError struct {
	Have, Need int
}

func (e *TooManyErasuresError) Error() string {
	return fmt.Sprintf("fec: %d shards present, need %d to reconstruct", e.Have, e.Need)
}

// RS is a systematic Reed-Solomon erasure coder over GF(256) for k data
// shards and m parity shards. One coder is good for any shard length; it
// is not safe for concurrent use (the decode scratch is shared).
type RS struct {
	k, m int
	// parity[j][i] is the coefficient of data shard i in parity shard j.
	parity [][]byte
	// Decode scratch, preallocated so ReconstructInto is zero-alloc.
	dec [][]byte // k x k submatrix of the generator, chosen per erasure set
	inv [][]byte // its inverse, built by Gauss-Jordan
	obs [][]byte // the k present shards backing dec's rows
}

// NewRS builds a coder for dataShards + parityShards <= 256 total shards.
//
// The parity matrix is a column-scaled Cauchy construction over the
// points x_j = k+j, y_i = i: P[j][i] = (k XOR i) / ((k+j) XOR i) in
// GF(256). Scaling each column so row 0 is all ones keeps every square
// submatrix of [I ; P] nonsingular (the MDS property, inherited from the
// Cauchy matrix) while making the first parity shard the plain XOR of
// the data shards — so m=1 is exactly the XOR code.
func NewRS(dataShards, parityShards int) (*RS, error) {
	k, m := dataShards, parityShards
	if k <= 0 || m <= 0 {
		return nil, fmt.Errorf("fec: need at least 1 data and 1 parity shard (got %d+%d)", k, m)
	}
	if k+m > 256 {
		return nil, fmt.Errorf("fec: %d total shards exceeds GF(256) limit of 256", k+m)
	}
	r := &RS{k: k, m: m}
	// Cauchy matrix C[j][i] = 1/(x_j ^ y_i) with x_j = k+j, y_i = i; the
	// two point sets are disjoint within [0,256) because k+m <= 256.
	// Column-scale by b_i = x_0 ^ y_i = k^i so row 0 becomes all ones.
	r.parity = make([][]byte, m)
	for j := 0; j < m; j++ {
		r.parity[j] = make([]byte, k)
		for i := 0; i < k; i++ {
			num := byte(k) ^ byte(i)   // x_0 ^ y_i
			den := byte(k+j) ^ byte(i) // x_j ^ y_i, nonzero by disjointness
			r.parity[j][i] = gfMul(num, gfInv(den))
		}
	}
	r.dec = make([][]byte, k)
	r.inv = make([][]byte, k)
	for i := 0; i < k; i++ {
		r.dec[i] = make([]byte, k)
		r.inv[i] = make([]byte, k)
	}
	r.obs = make([][]byte, k)
	return r, nil
}

// DataShards returns k.
func (r *RS) DataShards() int { return r.k }

// ParityShards returns m.
func (r *RS) ParityShards() int { return r.m }

// TotalShards returns k+m.
func (r *RS) TotalShards() int { return r.k + r.m }

// EncodeInto fills parity[0..m) from data[0..k). The parity buffers share
// one length, the shard length, and are overwritten. A data shard may be
// shorter than that: it is read as if zero-padded to the shard length, so
// callers coding payloads of unequal size need not materialize the padding.
// Zero allocations.
func (r *RS) EncodeInto(parity, data [][]byte) error {
	if len(data) != r.k || len(parity) != r.m {
		return fmt.Errorf("fec: EncodeInto got %d data + %d parity shards, coder is %d+%d",
			len(data), len(parity), r.k, r.m)
	}
	n := len(parity[0])
	for _, p := range parity {
		if len(p) != n {
			return fmt.Errorf("fec: parity shard length %d != %d", len(p), n)
		}
	}
	for _, d := range data {
		if len(d) > n {
			return fmt.Errorf("fec: data shard length %d exceeds parity length %d", len(d), n)
		}
	}
	for j, p := range parity {
		combineInto(p, data, r.parity[j])
	}
	return nil
}

// combineInto writes out = sum_i coef[i] * srcs[i], each source read as
// zero-padded to len(out): out is cleared once and every source
// accumulates over its own length.
func combineInto(out []byte, srcs [][]byte, coef []byte) {
	clear(out)
	for i, s := range srcs {
		mulAddInto(out, s, coef[i])
	}
}

// ReconstructInto rebuilds missing shards in place. shards holds all k+m
// shard buffers (data first, then parity); present[idx] reports whether
// shards[idx] survived; present is not modified.
//
// Lengths: every parity buffer and every missing shard's buffer has the
// shard length. A present data shard may be shorter and is read as
// zero-padded, as in EncodeInto; a rebuilt data shard comes back at the
// full shard length, padding included.
//
// A missing shard whose buffer is nil is skipped, so a caller that wants
// one shard back pays for one. Rebuilding a parity shard reads every data
// shard, so asking for one while a missing data shard's buffer is nil is an
// error. Other missing buffers are overwritten with the reconstructed
// bytes; only present shards are read, so a missing shard's buffer may
// alias scratch reused across calls.
//
// If fewer than k shards are present it returns *TooManyErasuresError.
// Every error is returned before any buffer is written.
func (r *RS) ReconstructInto(shards [][]byte, present []bool) error {
	total := r.k + r.m
	if len(shards) != total || len(present) != total {
		return fmt.Errorf("fec: ReconstructInto got %d shards / %d flags, coder is %d+%d",
			len(shards), len(present), r.k, r.m)
	}
	have := 0
	for _, ok := range present {
		if ok {
			have++
		}
	}
	if have < r.k {
		return &TooManyErasuresError{Have: have, Need: r.k}
	}
	// The shard length is set by the buffers that must be full-length:
	// parity, and whatever is to be rebuilt.
	n := -1
	wantData, wantParity, nilData := false, false, -1
	for idx, s := range shards {
		switch {
		case present[idx] && idx < r.k:
			continue // ragged; checked against n below
		case !present[idx] && s == nil:
			if idx < r.k {
				nilData = idx
			}
			continue
		case !present[idx] && idx < r.k:
			wantData = true
		case !present[idx]:
			wantParity = true
		}
		if n < 0 {
			n = len(s)
		} else if len(s) != n {
			return fmt.Errorf("fec: shard %d length %d != %d", idx, len(s), n)
		}
	}
	if !wantData && !wantParity {
		return nil
	}
	for i := 0; i < r.k; i++ {
		if present[i] && len(shards[i]) > n {
			return fmt.Errorf("fec: data shard %d length %d exceeds shard length %d", i, len(shards[i]), n)
		}
	}
	if wantParity && nilData >= 0 {
		return fmt.Errorf("fec: rebuilding parity needs data shard %d, which is missing and has no buffer", nilData)
	}

	if wantData {
		// Pick the first k present shards; their generator rows form the
		// k x k system dec * data = observed.
		nr := 0
		for idx := 0; idx < total && nr < r.k; idx++ {
			if !present[idx] {
				continue
			}
			r.obs[nr] = shards[idx]
			row := r.dec[nr]
			if idx < r.k {
				clear(row)
				row[idx] = 1
			} else {
				copy(row, r.parity[idx-r.k])
			}
			nr++
		}
		if err := r.invert(); err != nil {
			return err
		}
		// data[d] = sum_t inv[d][t] * obs[t].
		for d := 0; d < r.k; d++ {
			if !present[d] && shards[d] != nil {
				combineInto(shards[d], r.obs, r.inv[d])
			}
		}
		clear(r.obs) // hold no caller memory between calls
	}

	// With all data shards in hand, re-encode any wanted missing parity.
	for j := 0; j < r.m; j++ {
		if p := shards[r.k+j]; !present[r.k+j] && p != nil {
			combineInto(p, shards[:r.k], r.parity[j])
		}
	}
	return nil
}

// invert runs Gauss-Jordan on r.dec, leaving the inverse in r.inv. The
// submatrix is guaranteed nonsingular by the Cauchy construction; a
// singular matrix here means memory corruption, reported as an error
// rather than a panic.
func (r *RS) invert() error {
	k := r.k
	for i := 0; i < k; i++ {
		row := r.inv[i]
		for c := 0; c < k; c++ {
			row[c] = 0
		}
		row[i] = 1
	}
	for col := 0; col < k; col++ {
		// Find a pivot at or below col.
		pivot := -1
		for ri := col; ri < k; ri++ {
			if r.dec[ri][col] != 0 {
				pivot = ri
				break
			}
		}
		if pivot < 0 {
			return fmt.Errorf("fec: singular decode matrix at column %d", col)
		}
		if pivot != col {
			r.dec[pivot], r.dec[col] = r.dec[col], r.dec[pivot]
			r.inv[pivot], r.inv[col] = r.inv[col], r.inv[pivot]
		}
		// Scale the pivot row to 1.
		if pv := r.dec[col][col]; pv != 1 {
			inv := gfInv(pv)
			mulInto(r.dec[col], r.dec[col], inv)
			mulInto(r.inv[col], r.inv[col], inv)
		}
		// Eliminate the column everywhere else.
		for ri := 0; ri < k; ri++ {
			if ri == col {
				continue
			}
			if c := r.dec[ri][col]; c != 0 {
				mulAddInto(r.dec[ri], r.dec[col], c)
				mulAddInto(r.inv[ri], r.inv[col], c)
			}
		}
	}
	return nil
}
