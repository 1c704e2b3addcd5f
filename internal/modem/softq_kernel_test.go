package modem

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"carpool/internal/fec"
)

// demapSoftQScalar is the straight-line reference kernel: one point at a
// time, measuring the distance to every constellation point for every
// output bit. It is the bit-identity oracle the fuzz target and the
// differential tests hold demapSoftQAxes to.
func demapSoftQScalar(dst []int8, ref []complex128, bps int, scale float64, points []complex128, weights []float64) {
	for i, y := range points {
		w := scale
		if weights != nil {
			w *= weights[i]
		}
		for j := 0; j < bps; j++ {
			min0, min1 := math.Inf(1), math.Inf(1)
			for v, s := range ref {
				d := y - s
				dist := sqDist(real(d), imag(d))
				if (v>>(bps-1-j))&1 == 0 {
					if dist < min0 {
						min0 = dist
					}
				} else if dist < min1 {
					min1 = dist
				}
			}
			dst[i*bps+j] = fec.SatLLR8((min1 - min0) * w)
		}
	}
}

// checkAgainstScalar demaps points with the per-axis kernel and with the
// scalar oracle and fails on the first differing output byte.
func checkAgainstScalar(t *testing.T, m Modulation, points []complex128, weights []float64) {
	t.Helper()
	bps := m.BitsPerSymbol()
	got := make([]int8, len(points)*bps)
	want := make([]int8, len(points)*bps)
	demapSoftQAxes(got, &axes[m], llrqScales[m], points, weights)
	demapSoftQScalar(want, constellations[m], bps, llrqScales[m], points, weights)
	for i := range want {
		if got[i] != want[i] {
			w := math.NaN()
			if weights != nil {
				w = weights[i/bps]
			}
			t.Fatalf("%v n=%d point %d %v weight %v bit %d: per-axis %d != scalar %d",
				m, len(points), i/bps, points[i/bps], w, i%bps, got[i], want[i])
		}
	}
}

// hostileWeights are the channel gains a broken estimate can produce.
var hostileWeights = []float64{0, math.NaN(), math.Inf(1), math.Inf(-1), 1e300, 1e-300, -1}

// TestDemapSoftQx4MatchesScalar holds the per-axis kernel byte-identical to
// the scalar oracle for every modulation: noisy points at lengths 0..9 and
// a full 48-point symbol, unweighted and with hostile weights mixed in.
func TestDemapSoftQx4MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, m := range Modulations() {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 48} {
			points := make([]complex128, n)
			weights := make([]float64, n)
			for i := range points {
				points[i] = complex(rng.NormFloat64()*2, rng.NormFloat64()*2)
				if i%5 == 0 {
					weights[i] = hostileWeights[i%len(hostileWeights)]
				} else {
					weights[i] = rng.Float64() * 3
				}
			}
			checkAgainstScalar(t, m, points, nil)
			checkAgainstScalar(t, m, points, weights)
		}
	}
}

// TestDemapSoftQEdgeCoordinates crosses every coordinate the monotonicity
// argument has to survive — exactly on a level, exactly on the midpoint of
// two levels (a tie between them), one ulp either side of both, and NaN,
// ±Inf and magnitudes whose square overflows — on both axes, under every
// hostile weight.
func TestDemapSoftQEdgeCoordinates(t *testing.T) {
	for _, m := range Modulations() {
		ax := &axes[m]
		coords := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
			1e154, -1e154, 1.5e154, 1e200, -1e308, 5e-324}
		for _, a := range []*pamAxis{&ax.i, &ax.q} {
			for k := 0; k < 1<<a.bits; k++ {
				for l := 0; l < 1<<a.bits; l++ {
					mid := (a.level[k] + a.level[l]) / 2 // k == l: the level itself
					coords = append(coords, mid, math.Nextafter(mid, 9), math.Nextafter(mid, -9))
				}
			}
		}
		points := make([]complex128, 0, len(coords)*len(coords))
		for _, re := range coords {
			for _, im := range coords {
				points = append(points, complex(re, im))
			}
		}
		checkAgainstScalar(t, m, points, nil)
		weights := make([]float64, len(points))
		for _, w := range append([]float64{1, 0.37}, hostileWeights...) {
			for i := range weights {
				weights[i] = w
			}
			checkAgainstScalar(t, m, points, weights)
		}
	}
}

// FuzzDemapSoftQ differentially fuzzes the per-axis demap kernel against
// the scalar oracle on arbitrary point soups: any divergence in any output
// byte fails. Bytes decode as float64 pairs (points) plus an optional
// weight stream; non-finite floats are kept, since the kernels must agree
// even on NaN/Inf inputs (a NaN loses every scan on both paths).
func FuzzDemapSoftQ(f *testing.F) {
	seed := make([]byte, 1+16*5)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f}) // +Inf real, QAM16 selector
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mods := Modulations()
		m := mods[int(data[0])%len(mods)]
		data = data[1:]
		weighted := len(data) > 0 && data[0]&1 == 1

		n := len(data) / 16
		if n > 256 {
			n = 256
		}
		points := make([]complex128, n)
		var weights []float64
		for i := 0; i < n; i++ {
			re := math.Float64frombits(binary.LittleEndian.Uint64(data[i*16:]))
			im := math.Float64frombits(binary.LittleEndian.Uint64(data[i*16+8:]))
			points[i] = complex(re, im)
		}
		if weighted {
			weights = make([]float64, n)
			for i := range weights {
				// Derive weights from the same bytes, shifted, so the fuzzer
				// reaches hostile values without a longer input.
				weights[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*16+4:]) ^ 0x5555)
			}
		}
		checkAgainstScalar(t, m, points, weights)
	})
}

// benchDemapKernel measures one demap kernel on a 48-point QAM64 symbol
// with mildly noisy points — the scalar/per-axis pair quantifies what the
// axis split buys at identical output bytes.
func benchDemapKernel(b *testing.B, kernel func(dst []int8, points []complex128)) {
	rng := rand.New(rand.NewSource(3))
	bits := make([]byte, 48*6)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	points, err := Map(QAM64, bits)
	if err != nil {
		b.Fatal(err)
	}
	for i := range points {
		points[i] += complex(rng.NormFloat64()*0.1, rng.NormFloat64()*0.1)
	}
	dst := make([]int8, len(bits))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel(dst, points)
	}
}

func BenchmarkDemapSoftQScalarQAM64(b *testing.B) {
	benchDemapKernel(b, func(dst []int8, points []complex128) {
		demapSoftQScalar(dst, constellations[QAM64], 6, llrqScales[QAM64], points, nil)
	})
}

func BenchmarkDemapSoftQAxesQAM64(b *testing.B) {
	benchDemapKernel(b, func(dst []int8, points []complex128) {
		demapSoftQAxes(dst, &axes[QAM64], llrqScales[QAM64], points, nil)
	})
}
