package fec

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// naiveGFMul is the shift-and-add reference multiply the table-driven
// kernel must match element for element.
func naiveGFMul(a, b byte) byte {
	var p byte
	for i := 0; i < 8; i++ {
		if b&1 != 0 {
			p ^= a
		}
		hi := a&0x80 != 0
		a <<= 1
		if hi {
			a ^= byte(gfPoly & 0xff)
		}
		b >>= 1
	}
	return p
}

func TestGFTablesMatchNaiveMultiply(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := gfMul(byte(a), byte(b)), naiveGFMul(byte(a), byte(b)); got != want {
				t.Fatalf("gfMul(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
	for a := 1; a < 256; a++ {
		if got := gfMul(byte(a), gfInv(byte(a))); got != 1 {
			t.Fatalf("a * a^-1 = %d for a=%d, want 1", got, a)
		}
	}
}

func TestNewRSValidation(t *testing.T) {
	for _, tc := range [][2]int{{0, 1}, {1, 0}, {-1, 2}, {250, 7}} {
		if _, err := NewRS(tc[0], tc[1]); err == nil {
			t.Errorf("NewRS(%d,%d) accepted", tc[0], tc[1])
		}
	}
	if _, err := NewRS(250, 6); err != nil {
		t.Errorf("NewRS(250,6) rejected: %v", err)
	}
}

// TestSingleParityIsXOR pins the column scaling: with m=1, the parity
// shard must be byte-identical to XORParity over the same data.
func TestSingleParityIsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 2, 3, 7, 16} {
		r, err := NewRS(k, 1)
		if err != nil {
			t.Fatal(err)
		}
		data := randShards(rng, k, 96)
		parity := [][]byte{make([]byte, 96)}
		if err := r.EncodeInto(parity, data); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, 96)
		XORParity(want, data)
		if !bytes.Equal(parity[0], want) {
			t.Fatalf("k=%d: RS single parity differs from XOR parity", k)
		}
	}
}

// TestReconstructAllErasurePatterns sweeps every erasure pattern of size
// <= m for small codes and checks bit-exact recovery of all shards.
func TestReconstructAllErasurePatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, km := range [][2]int{{1, 1}, {2, 1}, {4, 2}, {5, 3}, {6, 4}} {
		k, m := km[0], km[1]
		r, err := NewRS(k, m)
		if err != nil {
			t.Fatal(err)
		}
		data := randShards(rng, k, 64)
		parity := randShards(rng, m, 64) // overwritten
		if err := r.EncodeInto(parity, data); err != nil {
			t.Fatal(err)
		}
		truth := append(append([][]byte{}, data...), parity...)
		total := k + m
		// Every subset of shards to erase, up to m of them.
		for mask := 0; mask < 1<<total; mask++ {
			erased := popcount(mask)
			if erased == 0 || erased > m {
				continue
			}
			shards := make([][]byte, total)
			present := make([]bool, total)
			for i := 0; i < total; i++ {
				if mask&(1<<i) != 0 {
					shards[i] = make([]byte, 64) // scratch for the rebuild
				} else {
					shards[i] = append([]byte(nil), truth[i]...)
					present[i] = true
				}
			}
			if err := r.ReconstructInto(shards, present); err != nil {
				t.Fatalf("k=%d m=%d mask=%b: %v", k, m, mask, err)
			}
			for i := 0; i < total; i++ {
				if !bytes.Equal(shards[i], truth[i]) {
					t.Fatalf("k=%d m=%d mask=%b: shard %d wrong after reconstruct", k, m, mask, i)
				}
			}
		}
	}
}

// TestReconstructTooManyErasures pins the typed-error contract: more
// erasures than parity must return *TooManyErasuresError and never write
// plausible-but-wrong bytes into the missing buffers.
func TestReconstructTooManyErasures(t *testing.T) {
	r, err := NewRS(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	data := randShards(rng, 4, 32)
	parity := randShards(rng, 2, 32)
	if err := r.EncodeInto(parity, data); err != nil {
		t.Fatal(err)
	}
	shards := append(append([][]byte{}, data...), parity...)
	present := []bool{false, false, false, true, true, true}
	canary := []byte{0xa5}
	for i := 0; i < 3; i++ {
		shards[i] = bytes.Repeat(canary, 32)
	}
	err = r.ReconstructInto(shards, present)
	var tme *TooManyErasuresError
	if !errors.As(err, &tme) {
		t.Fatalf("err = %v, want *TooManyErasuresError", err)
	}
	if tme.Have != 3 || tme.Need != 4 {
		t.Fatalf("TooManyErasuresError = %+v, want Have=3 Need=4", tme)
	}
	for i := 0; i < 3; i++ {
		if !bytes.Equal(shards[i], bytes.Repeat(canary, 32)) {
			t.Errorf("missing shard %d written despite unrecoverable erasure set", i)
		}
	}
}

// TestReconstructZeroAlloc pins the hot-path contract beside the SWAR
// Viterbi: encode and reconstruct run without heap allocations.
func TestReconstructZeroAlloc(t *testing.T) {
	r, err := NewRS(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	data := randShards(rng, 8, 1500)
	parity := randShards(rng, 2, 1500)
	shards := append(append([][]byte{}, data...), parity...)
	present := make([]bool, 10)
	if avg := testing.AllocsPerRun(50, func() {
		if err := r.EncodeInto(parity, data); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("EncodeInto allocates %.1f per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(50, func() {
		for i := range present {
			present[i] = i != 1 && i != 5
		}
		if err := r.ReconstructInto(shards, present); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("ReconstructInto allocates %.1f per op, want 0", avg)
	}
}

// TestRaggedMatchesPadded sweeps small codes, ragged length vectors and
// every erasure set of size <= m: encoding and reconstructing with data
// shards at their true length must be byte-identical to the same call with
// each shard explicitly zero-padded; asking for one missing data shard
// (every other missing buffer nil) must return the bytes the full
// reconstruct returns; and asking for a parity shard while a missing data
// shard has no buffer must be an error that writes nothing.
func TestRaggedMatchesPadded(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewSource(23))
	for _, km := range [][2]int{{1, 1}, {2, 1}, {3, 2}, {4, 2}, {6, 2}, {5, 3}} {
		k, m := km[0], km[1]
		total := k + m
		r, err := NewRS(k, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, lens := range [][]int{{n}, {0}, {n, 0, 7}, {1, n - 1, 8, 9, 33}, {17, 17, 40, 3, 0, 24}} {
			padded := make([][]byte, k)
			ragged := make([][]byte, k)
			for i := range padded {
				padded[i] = make([]byte, n)
				ragged[i] = padded[i][:lens[i%len(lens)]]
				rng.Read(ragged[i])
			}
			parity, parityR := randShards(rng, m, n), randShards(rng, m, n)
			if err := r.EncodeInto(parity, padded); err != nil {
				t.Fatal(err)
			}
			if err := r.EncodeInto(parityR, ragged); err != nil {
				t.Fatal(err)
			}
			truth := append(append([][]byte{}, padded...), parity...)
			for j := range parity {
				if !bytes.Equal(parity[j], parityR[j]) {
					t.Fatalf("k=%d m=%d lens=%v: ragged parity %d differs from padded", k, m, lens, j)
				}
			}

			for mask := 1; mask < 1<<total; mask++ {
				if popcount(mask) > m {
					continue
				}
				present := make([]bool, total)
				// view builds a reconstruct argument: present shards ragged,
				// missing ones a canary buffer if wanted, nil otherwise.
				view := func(want func(idx int) bool) [][]byte {
					sh := make([][]byte, total)
					for i := range sh {
						switch {
						case mask&(1<<i) == 0 && i < k:
							present[i] = true
							sh[i] = ragged[i]
						case mask&(1<<i) == 0:
							present[i] = true
							sh[i] = parity[i-k]
						case want(i):
							sh[i] = bytes.Repeat([]byte{0xa5}, n)
						}
					}
					return sh
				}
				full := view(func(int) bool { return true })
				if err := r.ReconstructInto(full, present); err != nil {
					t.Fatalf("k=%d m=%d lens=%v mask=%b: %v", k, m, lens, mask, err)
				}
				for i := range full {
					if !bytes.Equal(full[i], truth[i][:len(full[i])]) {
						t.Fatalf("k=%d m=%d lens=%v mask=%b: ragged reconstruct of shard %d is not the padded truth",
							k, m, lens, mask, i)
					}
				}
				for d := 0; d < total; d++ {
					if mask&(1<<d) == 0 {
						continue
					}
					one := view(func(idx int) bool { return idx == d })
					err := r.ReconstructInto(one, present)
					if d >= k && mask&(1<<k-1) != 0 {
						// A parity rebuild with a data shard missing and nil.
						if err == nil {
							t.Fatalf("k=%d m=%d mask=%b: parity %d rebuilt without data", k, m, mask, d)
						}
						if !bytes.Equal(one[d], bytes.Repeat([]byte{0xa5}, n)) {
							t.Fatalf("k=%d m=%d mask=%b: refused parity rebuild still wrote shard %d", k, m, mask, d)
						}
						continue
					}
					if err != nil {
						t.Fatalf("k=%d m=%d lens=%v mask=%b want=%d: %v", k, m, lens, mask, d, err)
					}
					if !bytes.Equal(one[d], full[d]) {
						t.Fatalf("k=%d m=%d lens=%v mask=%b: nil-skip reconstruct of shard %d differs from full",
							k, m, lens, mask, d)
					}
				}
			}
		}
	}
}

// TestRaggedRejectsBadLengths pins the length contract's error side.
func TestRaggedRejectsBadLengths(t *testing.T) {
	r, err := NewRS(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := func(n int) []byte { return make([]byte, n) }
	if err := r.EncodeInto([][]byte{b(8), b(8)}, [][]byte{b(9), b(1)}); err == nil {
		t.Error("EncodeInto accepted a data shard longer than the parity")
	}
	if err := r.EncodeInto([][]byte{b(8), b(7)}, [][]byte{b(8), b(8)}); err == nil {
		t.Error("EncodeInto accepted parity buffers of unequal length")
	}
	present := []bool{true, false, true, true}
	if err := r.ReconstructInto([][]byte{b(9), b(8), b(8), b(8)}, present); err == nil {
		t.Error("ReconstructInto accepted a present data shard longer than the shard length")
	}
	if err := r.ReconstructInto([][]byte{b(3), b(7), b(8), b(8)}, present); err == nil {
		t.Error("ReconstructInto accepted a rebuild buffer shorter than the parity")
	}
}

// TestKernelsMatchByteLoop checks the word-wide mulAddInto and xorInto
// against one-byte-at-a-time references at every length that mixes their
// 32-, 8- and 1-byte steps, at every source and destination misalignment,
// with a destination longer than the source (the ragged case) left alone
// past len(src).
func TestKernelsMatchByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	srcBuf, dstBuf := make([]byte, 64), make([]byte, 64)
	for n := 0; n <= 40; n++ {
		for so := 0; so < 8; so++ {
			for do := 0; do < 8; do++ {
				for _, c := range []byte{0, 1, 2, 0x53, 0xff} {
					rng.Read(srcBuf)
					rng.Read(dstBuf)
					src := srcBuf[so : so+n]
					dst := dstBuf[do : do+n+3]
					want := append([]byte(nil), dst...)
					for i, s := range src {
						want[i] ^= naiveGFMul(c, s)
					}
					mulAddInto(dst, src, c)
					if !bytes.Equal(dst, want) {
						t.Fatalf("mulAddInto n=%d src+%d dst+%d c=%#x: got %x want %x", n, so, do, c, dst, want)
					}
				}
				rng.Read(dstBuf)
				src := srcBuf[so : so+n]
				dst := dstBuf[do : do+n+3]
				want := append([]byte(nil), dst...)
				for i, s := range src {
					want[i] ^= s
				}
				xorInto(dst, src)
				if !bytes.Equal(dst, want) {
					t.Fatalf("xorInto n=%d src+%d dst+%d: got %x want %x", n, so, do, dst, want)
				}
			}
		}
	}
}

func randShards(rng *rand.Rand, n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		rng.Read(out[i])
	}
	return out
}

func popcount(x int) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
