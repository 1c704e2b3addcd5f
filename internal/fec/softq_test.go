package fec

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func randBits(rng *rand.Rand, n int) []byte {
	bits := make([]byte, n)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	// Terminate the trellis like the PHY does.
	for i := n - TailBits; i < n; i++ {
		if i >= 0 {
			bits[i] = 0
		}
	}
	return bits
}

// llrsFromBits maps coded bits to strong int8 LLRs (bit 0 -> +amp,
// bit 1 -> -amp), the noiseless quantized channel.
func llrsFromBits(coded []byte, amp int8) []int8 {
	llrs := make([]int8, len(coded))
	for i, b := range coded {
		if b == 0 {
			llrs[i] = amp
		} else {
			llrs[i] = -amp
		}
	}
	return llrs
}

func TestSoftDecoderNoiselessAllRates(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var dec SoftDecoder
	for _, rate := range []CodeRate{Rate1_2, Rate2_3, Rate3_4} {
		for _, n := range []int{TailBits + 1, 40, 97, 300, 1000} {
			bits := randBits(rng, n)
			coded, err := ConvEncode(bits, rate)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dec.Decode(llrsFromBits(coded, 25), rate, n)
			if err != nil {
				t.Fatalf("rate %v n=%d: %v", rate, n, err)
			}
			if !bytes.Equal(got, bits) {
				t.Fatalf("rate %v n=%d: noiseless quantized decode diverged", rate, n)
			}
		}
	}
}

// TestSoftDecoderMatchesFloatOnIntegerLLRs feeds both decoders the same
// integer-valued LLRs (noisy, including zeros and saturating magnitudes).
// Metrics and tie-breaks must coincide, so the decoded paths must be
// bit-identical even when the decode is wrong.
func TestSoftDecoderMatchesFloatOnIntegerLLRs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var dec SoftDecoder
	for _, rate := range []CodeRate{Rate1_2, Rate2_3, Rate3_4} {
		for trial := 0; trial < 40; trial++ {
			n := TailBits + 1 + rng.Intn(400)
			bits := randBits(rng, n)
			coded, err := ConvEncode(bits, rate)
			if err != nil {
				t.Fatal(err)
			}
			llrs := make([]int8, len(coded))
			fllrs := make([]float64, len(coded))
			for i, b := range coded {
				clean := 12
				if b == 1 {
					clean = -12
				}
				// Heavy integer noise, with occasional erasures and rails.
				v := clean + rng.Intn(41) - 20
				switch rng.Intn(10) {
				case 0:
					v = 0
				case 1:
					v = 127
				case 2:
					v = -127
				}
				if v > 127 {
					v = 127
				} else if v < -127 {
					v = -127
				}
				llrs[i] = int8(v)
				fllrs[i] = float64(v)
			}
			got, err := dec.Decode(llrs, rate, n)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ViterbiDecodeSoft(fllrs, rate, n)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("rate %v n=%d trial %d: quantized and float decoders walked different paths", rate, n, trial)
			}
		}
	}
}

// TestSoftDecoderRenormLongInput pushes far past several renormalization
// intervals with worst-case branch costs to exercise the uint16 headroom.
func TestSoftDecoderRenormLongInput(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := 6000
	bits := randBits(rng, n)
	coded, err := ConvEncode(bits, Rate1_2)
	if err != nil {
		t.Fatal(err)
	}
	llrs := llrsFromBits(coded, 127)
	// Flip a sprinkle of rail-to-rail errors.
	for i := 0; i < len(llrs); i += 97 {
		llrs[i] = -llrs[i]
	}
	var dec SoftDecoder
	got, err := dec.Decode(llrs, Rate1_2, n)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bits) {
		t.Fatal("long-input decode with rail-to-rail noise diverged")
	}
}

// TestSoftDecoderLayoutPhases walks the rotating metric layout through
// every way it can end and renormalize: lengths leaving the final scan and
// traceback in each of the six layout phases, both short and just past a
// renormalization (after steps 63, 127, 191, ...: phases 3, 1, 5, all the
// 64-step cadence reaches), at all three rates, on streams that mix
// saturated LLRs, -128 (whose magnitude is 128), erasures and ties. The
// survivor path must equal the float64 decoder's on the same integers.
func TestSoftDecoderLayoutPhases(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	var lengths []int
	for n := 1; n <= 13; n++ {
		lengths = append(lengths, n)
	}
	for k := 1; k <= numPhases; k++ {
		for d := -1; d < numPhases; d++ {
			lengths = append(lengths, k*renormInterval+d)
		}
	}
	alphabet := []int8{-128, -127, 127, 0, 0, 1, -1, 64, -64, 5, -5}
	var dec SoftDecoder
	for _, rate := range []CodeRate{Rate1_2, Rate2_3, Rate3_4} {
		phases := map[int]bool{}
		for _, n := range lengths {
			llrs := make([]int8, 2*n)
			fllrs := make([]float64, len(llrs))
			for i := range llrs {
				llrs[i] = alphabet[rng.Intn(len(alphabet))]
				if rng.Intn(3) == 0 {
					llrs[i] = int8(rng.Intn(256) - 128)
				}
				fllrs[i] = float64(llrs[i])
			}
			got, err := dec.Decode(llrs, rate, n)
			if err != nil {
				t.Fatalf("rate %v n=%d: %v", rate, n, err)
			}
			want, err := ViterbiDecodeSoft(fllrs, rate, n)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("rate %v n=%d (final phase %d): quantized and float decoders walked different paths",
					rate, n, n%numPhases)
			}
			phases[n%numPhases] = true
		}
		if len(phases) != numPhases {
			t.Fatalf("rate %v: lengths cover final phases %v, want all %d", rate, phases, numPhases)
		}
	}
}

func TestSoftDecoderReuseAcrossSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var dec SoftDecoder
	for _, n := range []int{500, 20, 900, 64, 128} {
		for _, rate := range []CodeRate{Rate3_4, Rate1_2} {
			bits := randBits(rng, n)
			coded, _ := ConvEncode(bits, rate)
			got, err := dec.Decode(llrsFromBits(coded, 30), rate, n)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, bits) {
				t.Fatalf("reuse n=%d rate %v: decode diverged", n, rate)
			}
		}
	}
}

func TestSoftDecoderErrors(t *testing.T) {
	var dec SoftDecoder
	out := make([]byte, 8)
	if err := dec.DecodeInto(out, make([]int8, 16), CodeRate(0), 8); err == nil {
		t.Error("invalid rate accepted")
	}
	if err := dec.DecodeInto(out, make([]int8, 16), Rate1_2, 0); err == nil {
		t.Error("zero numInfoBits accepted")
	}
	if err := dec.DecodeInto(out[:4], make([]int8, 16), Rate1_2, 8); err == nil {
		t.Error("short output accepted")
	}
	if err := dec.DecodeInto(out, make([]int8, 15), Rate1_2, 8); err == nil {
		t.Error("short rate-1/2 stream accepted")
	}
	if err := dec.DecodeInto(out, make([]int8, 10), Rate3_4, 8); err == nil {
		t.Error("short punctured stream accepted")
	}
	if _, err := ViterbiDecodeSoftQ(make([]int8, 16), Rate1_2, 0); err == nil {
		t.Error("wrapper accepted zero numInfoBits")
	}
}

func TestSoftDecoderDecodeIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 1200
	bits := randBits(rng, n)
	for _, rate := range []CodeRate{Rate1_2, Rate3_4} {
		coded, _ := ConvEncode(bits, rate)
		llrs := llrsFromBits(coded, 40)
		var dec SoftDecoder
		dst := make([]byte, n)
		if err := dec.DecodeInto(dst, llrs, rate, n); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := dec.DecodeInto(dst, llrs, rate, n); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("rate %v: DecodeInto allocates %.1f/op in steady state, want 0", rate, allocs)
		}
	}
}

func TestSatLLR8(t *testing.T) {
	cases := []struct {
		in   float64
		want int8
	}{
		{0, 0}, {0.4, 0}, {0.6, 1}, {-0.6, -1},
		{126.7, 127}, {127, 127}, {1e9, 127},
		{-126.7, -127}, {-1e9, -127},
		{math.Inf(1), 127}, {math.Inf(-1), -127}, {math.NaN(), 0},
	}
	for _, c := range cases {
		if got := SatLLR8(c.in); got != c.want {
			t.Errorf("SatLLR8(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestQuantizeLLRsInto(t *testing.T) {
	src := []float64{1.2, -3.7, 1000, math.NaN()}
	dst := make([]int8, 4)
	if err := QuantizeLLRsInto(dst, src, 2); err != nil {
		t.Fatal(err)
	}
	want := []int8{2, -7, 127, 0}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("dst[%d] = %d, want %d", i, dst[i], want[i])
		}
	}
	if err := QuantizeLLRsInto(dst[:2], src, 1); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestDeinterleaveLLRInto(t *testing.T) {
	il, err := NewInterleaver(48, 1)
	if err != nil {
		t.Fatal(err)
	}
	bits := make([]byte, 48)
	llrs := make([]int8, 48)
	rng := rand.New(rand.NewSource(1))
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
		if bits[i] == 0 {
			llrs[i] = int8(1 + rng.Intn(100))
		} else {
			llrs[i] = int8(-1 - rng.Intn(100))
		}
	}
	inter, err := il.Interleave(bits)
	if err != nil {
		t.Fatal(err)
	}
	interLLR := make([]int8, 48)
	for i, b := range inter {
		// Re-derive the interleaved LLR stream from the interleaved bits so
		// the deinterleaved signs must reproduce the original bit order.
		if b == 0 {
			interLLR[i] = 1
		} else {
			interLLR[i] = -1
		}
	}
	out := make([]int8, 48)
	if err := il.DeinterleaveLLRInto(out, interLLR); err != nil {
		t.Fatal(err)
	}
	for i, b := range bits {
		got := byte(0)
		if out[i] < 0 {
			got = 1
		}
		if got != b {
			t.Fatalf("bit %d: deinterleaved LLR sign %d does not match bit %d", i, out[i], b)
		}
	}
	if err := il.DeinterleaveLLRInto(out[:10], interLLR); err == nil {
		t.Error("short output accepted")
	}
	if err := il.DeinterleaveLLRInto(out, interLLR[:10]); err == nil {
		t.Error("short input accepted")
	}
}

// FuzzSoftDecoderMatchesFloat cross-checks the SWAR kernel against the
// float64 oracle on arbitrary integer LLR streams.
func FuzzSoftDecoderMatchesFloat(f *testing.F) {
	f.Add([]byte{0x10, 0x90, 0x7f, 0x81, 0x00, 0x20, 0xe0, 0x05, 0x3c, 0xc4, 0x01, 0xff, 0x40, 0xbf}, uint8(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18}, uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, rateRaw uint8) {
		rate := CodeRate(rateRaw%3) + Rate1_2
		llrs := make([]int8, len(raw))
		fllrs := make([]float64, len(raw))
		for i, b := range raw {
			v := int8(b)
			if v == -128 {
				v = -127 // keep |l| within the documented saturation range
			}
			llrs[i] = v
			fllrs[i] = float64(v)
		}
		// Largest info-bit count the stream supports at this rate.
		n := int(float64(len(llrs)) * rate.Ratio())
		if n < 1 {
			t.Skip()
		}
		var dec SoftDecoder
		got, err := dec.Decode(llrs, rate, n)
		if err != nil {
			t.Skip()
		}
		want, err := ViterbiDecodeSoft(fllrs, rate, n)
		if err != nil {
			t.Fatalf("float oracle rejected what quantized accepted: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("rate %v n=%d: quantized path diverged from float oracle", rate, n)
		}
	})
}
