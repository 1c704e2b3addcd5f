package fec

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzRSRoundTrip drives random (k, m, shard length, payload, erasure
// pattern) tuples through encode + reconstruct. Patterns with at most m
// erasures must reconstruct every shard bit-exactly; patterns with more
// must return *TooManyErasuresError and never fabricate bytes.
//
// Every tuple runs twice over the same bytes: once with each data shard
// explicitly zero-padded to the shard length, once ragged (the shard cut
// at its seed-derived true length, the padding implied). The two must be
// byte-identical in parity and in every rebuilt shard.
func FuzzRSRoundTrip(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint16(64), uint32(0b000101), []byte("carpool parity"))
	f.Add(uint8(1), uint8(1), uint16(1), uint32(0b01), []byte{0xff})
	f.Add(uint8(16), uint8(4), uint16(256), uint32(0xf0001), []byte("erase me"))
	f.Add(uint8(8), uint8(1), uint16(1500), uint32(1<<7), []byte{})
	f.Fuzz(func(t *testing.T, kk, mm uint8, size uint16, eraseMask uint32, seed []byte) {
		k := int(kk)%32 + 1
		m := int(mm)%8 + 1
		n := int(size)%2048 + 1
		r, err := NewRS(k, m)
		if err != nil {
			t.Fatalf("NewRS(%d,%d): %v", k, m, err)
		}
		total := k + m
		data := make([][]byte, k)   // zero-padded to n
		ragged := make([][]byte, k) // the same bytes cut at the true length
		for i := range data {
			trim := i * 53
			if len(seed) > 0 {
				trim = int(seed[i%len(seed)]^byte(i*29)) * 97
			}
			data[i] = make([]byte, n)
			ragged[i] = data[i][:n-trim%(n+1)]
			for b := range ragged[i] {
				v := byte(i*131 + b*29)
				if len(seed) > 0 {
					v ^= seed[(i+b)%len(seed)]
				}
				data[i][b] = v
			}
		}
		parity, parityR := make([][]byte, m), make([][]byte, m)
		for j := range parity {
			parity[j] = make([]byte, n)
			parityR[j] = bytes.Repeat([]byte{0xee}, n)
		}
		if err := r.EncodeInto(parity, data); err != nil {
			t.Fatal(err)
		}
		if err := r.EncodeInto(parityR, ragged); err != nil {
			t.Fatal(err)
		}
		for j := range parity {
			if !bytes.Equal(parity[j], parityR[j]) {
				t.Fatalf("k=%d m=%d: ragged parity %d differs from zero-padded parity", k, m, j)
			}
		}
		truth := append(append([][]byte{}, data...), parity...)

		// shards[0] is the zero-padded call, shards[1] the ragged one.
		var shards [2][][]byte
		shards[0], shards[1] = make([][]byte, total), make([][]byte, total)
		present := make([]bool, total)
		erased := 0
		for i := 0; i < total; i++ {
			if eraseMask&(1<<uint(i%32)) != 0 && i < 32 {
				shards[0][i] = bytes.Repeat([]byte{0xee}, n)
				shards[1][i] = bytes.Repeat([]byte{0xee}, n)
				erased++
				continue
			}
			shards[0][i] = append([]byte(nil), truth[i]...)
			shards[1][i] = shards[0][i]
			if i < k {
				shards[1][i] = shards[0][i][:len(ragged[i])]
			}
			present[i] = true
		}
		for v, sh := range shards {
			err = r.ReconstructInto(sh, present)
			if erased > m {
				var tme *TooManyErasuresError
				if !errors.As(err, &tme) {
					t.Fatalf("k=%d m=%d erased=%d: err = %v, want *TooManyErasuresError", k, m, erased, err)
				}
				if tme.Have != total-erased || tme.Need != k {
					t.Fatalf("TooManyErasuresError = %+v, want Have=%d Need=%d", tme, total-erased, k)
				}
				for i := 0; i < total; i++ {
					if !present[i] && !bytes.Equal(sh[i], bytes.Repeat([]byte{0xee}, n)) {
						t.Fatalf("shard %d written despite unrecoverable erasure set", i)
					}
				}
				continue
			}
			if err != nil {
				t.Fatalf("k=%d m=%d erased=%d ragged=%v: %v", k, m, erased, v == 1, err)
			}
			for i := 0; i < total; i++ {
				if !bytes.Equal(sh[i], truth[i][:len(sh[i])]) {
					t.Fatalf("k=%d m=%d erased=%d ragged=%v: shard %d differs after reconstruct", k, m, erased, v == 1, i)
				}
			}
		}
	})
}

// FuzzRSReconstructAliasing reuses one coder and one scratch arena across
// two reconstructions with different erasure patterns — the engine's
// per-transport usage — and checks stale scratch bytes never leak into a
// recovered shard.
func FuzzRSReconstructAliasing(f *testing.F) {
	f.Add(uint8(5), uint8(3), uint32(0b00101), uint32(0b11000), []byte("alias"))
	f.Add(uint8(2), uint8(1), uint32(0b01), uint32(0b10), []byte{1, 2, 3})
	f.Add(uint8(12), uint8(4), uint32(0x0f), uint32(0xf000), []byte{})
	f.Fuzz(func(t *testing.T, kk, mm uint8, maskA, maskB uint32, seed []byte) {
		k := int(kk)%24 + 1
		m := int(mm)%6 + 1
		n := 128
		r, err := NewRS(k, m)
		if err != nil {
			t.Fatal(err)
		}
		total := k + m
		truth := make([][]byte, total)
		for i := 0; i < k; i++ {
			truth[i] = make([]byte, n)
			for b := range truth[i] {
				v := byte(i*17 + b*3)
				if len(seed) > 0 {
					v ^= seed[(i*7+b)%len(seed)]
				}
				truth[i][b] = v
			}
		}
		for j := 0; j < m; j++ {
			truth[k+j] = make([]byte, n)
		}
		if err := r.EncodeInto(truth[k:], truth[:k]); err != nil {
			t.Fatal(err)
		}

		// One flat scratch arena; missing shards alias slices of it and
		// are NOT cleared between rounds.
		arena := bytes.Repeat([]byte{0x5a}, total*n)
		run := func(mask uint32) {
			shards := make([][]byte, total)
			present := make([]bool, total)
			erased := 0
			for i := 0; i < total; i++ {
				if i < 32 && mask&(1<<uint(i)) != 0 && erased < m {
					shards[i] = arena[i*n : (i+1)*n]
					erased++
				} else {
					shards[i] = truth[i]
					present[i] = true
				}
			}
			if err := r.ReconstructInto(shards, present); err != nil {
				t.Fatalf("mask=%b: %v", mask, err)
			}
			for i := 0; i < total; i++ {
				if !bytes.Equal(shards[i], truth[i]) {
					t.Fatalf("mask=%b: shard %d differs (stale scratch leaked?)", mask, i)
				}
			}
		}
		run(maskA)
		run(maskB)
		run(maskA ^ maskB)
	})
}
