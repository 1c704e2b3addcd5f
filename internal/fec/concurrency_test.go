package fec

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// TestCachedInterleaverConcurrent hammers the package-level interleaver
// cache from many goroutines across overlapping geometries. Run under
// -race, it guards the audit finding that every package-level cache in fec
// (interleaverCache, the init-built branch/cost tables) is either immutable
// after init or synchronized.
func TestCachedInterleaverConcurrent(t *testing.T) {
	geometries := [][2]int{{48, 1}, {96, 2}, {192, 4}, {288, 6}}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for iter := 0; iter < 50; iter++ {
				geo := geometries[(g+iter)%len(geometries)]
				il, err := CachedInterleaver(geo[0], geo[1])
				if err != nil {
					t.Error(err)
					return
				}
				in := make([]byte, geo[0])
				for i := range in {
					in[i] = byte(rng.Intn(2))
				}
				inter, err := il.Interleave(in)
				if err != nil {
					t.Error(err)
					return
				}
				back, err := il.Deinterleave(inter)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(back, in) {
					t.Errorf("geometry %v: cached interleaver round trip corrupted", geo)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSoftDecoderConcurrentInstances runs independent SoftDecoder instances
// in parallel over the shared init-built tables (laneA, laneB, statePos,
// branchOut), the usage pattern of the parallel subframe receive path.
func TestSoftDecoderConcurrentInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	n := 800
	bits := randBits(rng, n)
	coded, err := ConvEncode(bits, Rate3_4)
	if err != nil {
		t.Fatal(err)
	}
	llrs := llrsFromBits(coded, 35)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dec SoftDecoder
			for iter := 0; iter < 20; iter++ {
				got, err := dec.Decode(llrs, Rate3_4, n)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, bits) {
					t.Error("concurrent decode diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
}
