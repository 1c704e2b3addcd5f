package carpool

// The benchmark suite regenerates every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`). Figure benchmarks
// execute the corresponding experiment harness at Quick scale and report
// the headline quantity as a custom metric; micro-benchmarks cover the hot
// paths (FFT, Viterbi, frame construction, MAC simulation). Ablation
// benchmarks quantify the design choices called out in DESIGN.md §5.

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"carpool/internal/bloom"
	"carpool/internal/core"
	"carpool/internal/dsp"
	"carpool/internal/engine"
	"carpool/internal/experiments"
	"carpool/internal/fec"
	"carpool/internal/mac"
	"carpool/internal/modem"
	"carpool/internal/obs"
	"carpool/internal/phy"
	"carpool/internal/sidechannel"
	"carpool/internal/traffic"
)

// ---------------------------------------------------------------------------
// Figure and table benchmarks (one per evaluation artifact).

func BenchmarkFig1TrafficStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stats := experiments.Fig1()
		if len(stats) != 2 {
			b.Fatal("expected two traces")
		}
		b.ReportMetric(stats[0].DownlinkRatio*100, "downlink-%")
	}
}

func BenchmarkFig3BERBias(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig3(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		// Report the bias: tail BER over head BER.
		n := len(rows)
		head, tail := meanBER(rows[:n/4]), meanBER(rows[3*n/4:])
		if head > 0 {
			b.ReportMetric(tail/head, "tail/head-BER")
		}
	}
}

func meanBER(rows []experiments.Fig3Row) float64 {
	var s float64
	for _, r := range rows {
		s += r.BER
	}
	return s / float64(len(rows))
}

func BenchmarkTable1PhaseModulation(b *testing.B) {
	// Table 1 is a specification: benchmark the encode/decode round trip
	// of the full alphabet at symbol rate.
	enc, err := sidechannel.NewEncoder(sidechannel.TwoBit)
	if err != nil {
		b.Fatal(err)
	}
	dec, err := sidechannel.NewDecoder(sidechannel.TwoBit)
	if err != nil {
		b.Fatal(err)
	}
	dec.Prime(0)
	bits := []byte{1, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off, err := enc.Next(bits)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dec.Next(off); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11SideChannelImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig11(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		for _, r := range rows {
			if r.BERStandard > 1e-4 && r.RelativeDelta > worst {
				worst = r.RelativeDelta
			}
		}
		b.ReportMetric(worst*100, "worst-rel-delta-%")
	}
}

func BenchmarkFig12SideChannelReliability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig12(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		better := 0
		for _, r := range rows {
			if r.SideBER <= r.DataBER {
				better++
			}
		}
		b.ReportMetric(float64(better)/float64(len(rows))*100, "side<=data-%")
	}
}

func BenchmarkFig13RTEBias(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig13(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		var stdTail, rteTail float64
		var n int
		for _, r := range rows {
			if r.SymbolIndex > 100 {
				stdTail += r.BERStandard
				rteTail += r.BERRTE
				n++
			}
		}
		if n > 0 && rteTail > 0 {
			b.ReportMetric(stdTail/rteTail, "std/RTE-tail-BER")
		}
	}
}

func BenchmarkFig14RTEModulations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig14(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		var gain float64
		for _, r := range rows {
			if r.Modulation.String() == "QAM64" && r.Power == 0.2 && r.BERRTE > 0 {
				gain = r.BERStandard / r.BERRTE
			}
		}
		b.ReportMetric(gain, "QAM64-std/RTE")
	}
}

// macLab is shared across the MAC figure benchmarks: trace collection is
// the expensive offline step and the figures all replay the same traces.
var (
	macLabOnce sync.Once
	macLab     *experiments.MACLab
	macLabErr  error
)

func sharedLab(b *testing.B) *experiments.MACLab {
	b.Helper()
	macLabOnce.Do(func() {
		macLab, macLabErr = experiments.NewMACLab(experiments.Quick)
	})
	if macLabErr != nil {
		b.Fatal(macLabErr)
	}
	return macLab
}

func BenchmarkFig15VoIP(b *testing.B) {
	lab := sharedLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := lab.Fig15()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(carpoolOverLegacy(rows), "carpool/802.11-goodput")
	}
}

func BenchmarkFig16Background(b *testing.B) {
	lab := sharedLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := lab.Fig16()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(carpoolOverLegacy(rows), "carpool/802.11-goodput")
	}
}

func carpoolOverLegacy(rows []experiments.MACRow) float64 {
	var cp, lg float64
	for _, r := range rows {
		if r.NumSTAs != 30 {
			continue
		}
		switch r.Protocol {
		case mac.Carpool:
			cp = r.GoodputMbps
		case mac.Legacy80211:
			lg = r.GoodputMbps
		}
	}
	if lg == 0 {
		return 0
	}
	return cp / lg
}

func BenchmarkFig17aLatencyBound(b *testing.B) {
	lab := sharedLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := lab.Fig17a()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Gain, "gain-at-10ms")
	}
}

func BenchmarkFig17bFrameSize(b *testing.B) {
	lab := sharedLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := lab.Fig17b()
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		if last.AMPDU > 0 {
			b.ReportMetric(last.Carpool/last.AMPDU, "gain-at-1500B")
		}
	}
}

func BenchmarkBloomFalsePositives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.BloomStudy(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].MeasuredFP*100, "FP-at-8rx-%")
	}
}

func BenchmarkEnergyStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.EnergyStudy()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].NodeOverhead*100, "node-overhead-%")
	}
}

func BenchmarkGranularityStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Granularity(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(rows)), "schemes")
	}
}

// ---------------------------------------------------------------------------
// Ablation benchmarks (DESIGN.md §5).

func BenchmarkAblationRTEUpdateRule(b *testing.B) {
	for _, rule := range []core.UpdateRule{core.RuleHalving, core.RuleReplace, core.RuleEMA25} {
		rule := rule
		b.Run(rule.String(), func(b *testing.B) {
			scheme := sidechannel.DefaultScheme()
			rng := rand.New(rand.NewSource(9))
			payload := make([]byte, 3000)
			rng.Read(payload)
			var tailErr, tailBits int
			for i := 0; i < b.N; i++ {
				frame, err := TransmitPHY(payload, PHYTxConfig{MCS: MCS48, SideChannel: &scheme})
				if err != nil {
					b.Fatal(err)
				}
				ch, err := NewChannel(ChannelConfig{
					SNRdB: 30, NumTaps: 3, RicianK: 15, TapDecay: 3,
					CoherenceSymbols: 800, CFOHz: 400, Seed: int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := ReceivePHY(ch.Transmit(frame.Samples), PHYRxConfig{
					KnownStart: 0, SkipFEC: true, SideChannel: &scheme,
					Tracker: core.NewRTETrackerWithRule(rule),
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Status != phy.StatusOK {
					continue
				}
				errs, bits := phy.CompareBlocks(frame.Blocks, res.Blocks)
				for k := 3 * len(errs) / 4; k < len(errs); k++ {
					tailErr += errs[k]
					tailBits += bits
				}
			}
			if tailBits > 0 {
				b.ReportMetric(float64(tailErr)/float64(tailBits)*1e6, "tail-BER-ppm")
			}
		})
	}
}

func BenchmarkAblationBloomHashes(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	for _, h := range []int{1, 2, 4, 6, 8} {
		h := h
		b.Run(hashName(h), func(b *testing.B) {
			hits, probes := 0, 0
			for i := 0; i < b.N; i++ {
				macs := make([]bloom.MAC, 8)
				for j := range macs {
					rng.Read(macs[j][:])
				}
				f, err := bloom.Build(macs, h)
				if err != nil {
					b.Fatal(err)
				}
				var foreign bloom.MAC
				rng.Read(foreign[:])
				for pos := 1; pos <= 8; pos++ {
					probes++
					if f.Match(foreign, pos, h) {
						hits++
					}
				}
			}
			b.ReportMetric(float64(hits)/float64(probes)*100, "FP-%")
		})
	}
}

func hashName(h int) string {
	return "h=" + string(rune('0'+h))
}

func BenchmarkAblationSideChannelGranularity(b *testing.B) {
	for _, alpha := range []sidechannel.Alphabet{sidechannel.OneBit, sidechannel.TwoBit} {
		for g := 1; g <= 3; g++ {
			scheme := sidechannel.Scheme{Alphabet: alpha, GroupSize: g}
			b.Run(scheme.String(), func(b *testing.B) {
				rng := rand.New(rand.NewSource(11))
				payload := make([]byte, 2000)
				rng.Read(payload)
				var okSyms, syms int
				for i := 0; i < b.N; i++ {
					frame, err := TransmitPHY(payload, PHYTxConfig{MCS: MCS48, SideChannel: &scheme})
					if err != nil {
						b.Fatal(err)
					}
					ch, err := NewChannel(ChannelConfig{
						SNRdB: 28, NumTaps: 3, RicianK: 15, TapDecay: 3,
						CoherenceSymbols: 2000, Seed: int64(i),
					})
					if err != nil {
						b.Fatal(err)
					}
					res, err := ReceivePHY(ch.Transmit(frame.Samples), PHYRxConfig{
						KnownStart: 0, SkipFEC: true, SideChannel: &scheme,
						Tracker: NewRTETracker(),
					})
					if err != nil {
						b.Fatal(err)
					}
					for _, ok := range res.SymbolOK {
						syms++
						if ok {
							okSyms++
						}
					}
				}
				if syms > 0 {
					b.ReportMetric(float64(okSyms)/float64(syms)*100, "data-pilot-%")
				}
			})
		}
	}
}

func BenchmarkAblationSequentialACK(b *testing.B) {
	for _, simultaneous := range []bool{false, true} {
		name := "sequential"
		if simultaneous {
			name = "simultaneous"
		}
		b.Run(name, func(b *testing.B) {
			var goodput float64
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(12))
				const n = 25
				down := make([][]traffic.Arrival, n)
				for j := range down {
					down[j] = traffic.CBRFlow(rng, 120, 10*time.Millisecond, 3*time.Second)
				}
				res, err := RunMAC(MACConfig{
					Protocol: CarpoolMAC, NumSTAs: n, Duration: 3 * time.Second,
					Seed: int64(i), Downlink: down, SaturatedUplink: true,
					SimultaneousACK: simultaneous,
				})
				if err != nil {
					b.Fatal(err)
				}
				goodput = res.DownlinkGoodputMbps
			}
			b.ReportMetric(goodput, "goodput-Mbps")
		})
	}
}

func BenchmarkAblationMaxReceivers(b *testing.B) {
	for _, maxRx := range []int{2, 4, 8} {
		maxRx := maxRx
		b.Run(rxName(maxRx), func(b *testing.B) {
			var goodput float64
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(13))
				const n = 30
				down := make([][]traffic.Arrival, n)
				for j := range down {
					down[j] = traffic.CBRFlow(rng, 120, 10*time.Millisecond, 3*time.Second)
				}
				res, err := RunMAC(MACConfig{
					Protocol: CarpoolMAC, NumSTAs: n, Duration: 3 * time.Second,
					Seed: int64(i), Downlink: down, SaturatedUplink: true,
					MaxReceivers: maxRx,
				})
				if err != nil {
					b.Fatal(err)
				}
				goodput = res.DownlinkGoodputMbps
			}
			b.ReportMetric(goodput, "goodput-Mbps")
		})
	}
}

func rxName(n int) string {
	return "rx=" + string(rune('0'+n))
}

func BenchmarkAblationSoftVsHardViterbi(b *testing.B) {
	// The future-work extension: soft-decision decoding vs the paper's
	// hard-decision prototype, at an Eb/N0 where hard decoding struggles.
	for _, soft := range []bool{false, true} {
		name := "hard"
		if soft {
			name = "soft"
		}
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(19))
			info := make([]byte, 2406)
			for i := range info {
				info[i] = byte(rng.Intn(2))
			}
			coded, err := fec.ConvEncode(info, fec.Rate1_2)
			if err != nil {
				b.Fatal(err)
			}
			fails := 0
			for i := 0; i < b.N; i++ {
				const sigma = 0.75 // ~3.5 dB Eb/N0: the hard decoder's waterfall
				llrs := make([]float64, len(coded))
				hard := make([]byte, len(coded))
				for j, c := range coded {
					y := 1.0 - 2.0*float64(c) + rng.NormFloat64()*sigma
					llrs[j] = 2 * y / (sigma * sigma)
					if y < 0 {
						hard[j] = 1
					}
				}
				var dec []byte
				if soft {
					dec, err = fec.ViterbiDecodeSoft(llrs, fec.Rate1_2, len(info))
				} else {
					dec, err = fec.ViterbiDecode(hard, fec.Rate1_2, len(info))
				}
				if err != nil {
					b.Fatal(err)
				}
				for j := range info {
					if dec[j] != info[j] {
						fails++
						break
					}
				}
			}
			b.ReportMetric(float64(fails)/float64(b.N)*100, "FER-%")
		})
	}
}

// ---------------------------------------------------------------------------
// Hot-path micro-benchmarks.

func BenchmarkFFT64(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	x := make([]complex128, 64)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dsp.FFT(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkViterbiDecode1500B(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	info := make([]byte, 12000)
	for i := range info {
		info[i] = byte(rng.Intn(2))
	}
	coded, err := fec.ConvEncode(info, fec.Rate1_2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fec.ViterbiDecode(coded, fec.Rate1_2, len(info)); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(1500)
}

// softBenchLLRs builds the shared input of the soft-decode benchmarks: a
// 1500-byte MPDU's worth of rate-1/2 coded bits as mildly noisy LLRs.
func softBenchLLRs(b *testing.B) ([]float64, int) {
	b.Helper()
	rng := rand.New(rand.NewSource(15))
	info := make([]byte, 12000)
	for i := range info {
		info[i] = byte(rng.Intn(2))
	}
	coded, err := fec.ConvEncode(info, fec.Rate1_2)
	if err != nil {
		b.Fatal(err)
	}
	const sigma = 0.35 // ~high SNR; the decode cost is data-independent
	llrs := make([]float64, len(coded))
	for j, c := range coded {
		y := 1.0 - 2.0*float64(c) + rng.NormFloat64()*sigma
		llrs[j] = 2 * y / (sigma * sigma)
	}
	return llrs, len(info)
}

func BenchmarkViterbiDecodeSoft1500B(b *testing.B) {
	llrs, numInfo := softBenchLLRs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fec.ViterbiDecodeSoft(llrs, fec.Rate1_2, numInfo); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(1500)
}

func BenchmarkViterbiDecodeSoftQ1500B(b *testing.B) {
	llrs, numInfo := softBenchLLRs(b)
	qllrs := make([]int8, len(llrs))
	fec.QuantizeLLRsInto(qllrs, llrs, 1)
	var dec fec.SoftDecoder
	dst := make([]byte, numInfo)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dec.DecodeInto(dst, qllrs, fec.Rate1_2, numInfo); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(1500)
}

// benchPHYSoftReceive measures the soft-decision receive of a full
// 1500-byte frame at the top rate, either through the float64 oracle chain
// or the quantized int8 fast path (the SoftFEC default).
func benchPHYSoftReceive(b *testing.B, float64Oracle bool) {
	rng := rand.New(rand.NewSource(19))
	payload := make([]byte, 1500)
	rng.Read(payload)
	frame, err := phy.Transmit(payload, phy.TxConfig{MCS: phy.MCS54})
	if err != nil {
		b.Fatal(err)
	}
	ch, err := NewChannel(ChannelConfig{
		SNRdB: 30, NumTaps: 3, RicianK: 15, TapDecay: 3, Seed: 19,
	})
	if err != nil {
		b.Fatal(err)
	}
	rx := ch.Transmit(frame.Samples)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := phy.Receive(rx, phy.RxConfig{
			KnownStart: 0, SoftFEC: true, SoftFloat64: float64Oracle,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Status != phy.StatusOK {
			b.Fatal("reception failed")
		}
	}
	b.SetBytes(1500)
}

func BenchmarkPHYReceiveSoftFloat1500B(b *testing.B) { benchPHYSoftReceive(b, true) }

func BenchmarkPHYReceiveSoftQ1500B(b *testing.B) { benchPHYSoftReceive(b, false) }

func BenchmarkCarpoolFrameBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	subs := make([]Subframe, 4)
	for i := range subs {
		payload := make([]byte, 400)
		rng.Read(payload)
		subs[i] = Subframe{
			Receiver: MAC{2, 0, 0, 0, 0, byte(i)}, MCS: MCS48, Payload: payload,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildFrame(subs, FrameConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCarpoolFrameReceive(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	subs := make([]Subframe, 4)
	for i := range subs {
		payload := make([]byte, 400)
		rng.Read(payload)
		subs[i] = Subframe{
			Receiver: MAC{2, 0, 0, 0, 0, byte(i)}, MCS: MCS48, Payload: payload,
		}
	}
	frame, err := BuildFrame(subs, FrameConfig{})
	if err != nil {
		b.Fatal(err)
	}
	ch, err := NewChannel(ChannelConfig{
		SNRdB: 30, NumTaps: 3, RicianK: 15, TapDecay: 3, Seed: 17,
	})
	if err != nil {
		b.Fatal(err)
	}
	rx := ch.Transmit(frame.Samples)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ReceiveFrame(rx, ReceiverConfig{
			MAC: subs[2].Receiver, UseRTE: true, KnownStart: 0,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Status != phy.StatusOK {
			b.Fatal("reception failed")
		}
	}
}

func BenchmarkMACSimulationSecond(b *testing.B) {
	rng := rand.New(rand.NewSource(18))
	const n = 30
	down := make([][]traffic.Arrival, n)
	for j := range down {
		down[j] = traffic.CBRFlow(rng, 120, 10*time.Millisecond, time.Second)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunMAC(MACConfig{
			Protocol: CarpoolMAC, NumSTAs: n, Duration: time.Second,
			Seed: int64(i), Downlink: down, SaturatedUplink: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Real-time engine benchmarks (internal/engine, behind cmd/carpoold).

// BenchmarkEngineDeterministicSecond replays one simulated second of
// 8-station Poisson downlink (≈40k frames) through the deterministic
// engine — admission, aggregation planning, oracle delivery, retry and
// latency accounting — end to end.
func BenchmarkEngineDeterministicSecond(b *testing.B) {
	flows := make([][]traffic.Arrival, 8)
	for sta := range flows {
		rng := rand.New(rand.NewSource(int64(sta) + 1))
		flows[sta] = traffic.PoissonFlow(rng, 5000, 1200, time.Second)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := RunEngineDeterministic(context.Background(), EngineConfig{
			NumSTAs:  8,
			QueueCap: 1 << 16,
		}, flows)
		if err != nil {
			b.Fatal(err)
		}
		if st.Pending != 0 {
			b.Fatal("deterministic run left backlog")
		}
	}
}

// BenchmarkEngineSubmitDrain10k measures the concurrent serving path: 10k
// size-only frames admitted through the mutex-guarded ingest, aggregated
// and delivered by the worker pool, then drained.
func BenchmarkEngineSubmitDrain10k(b *testing.B) {
	const frames = 10_000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := NewEngine(EngineConfig{NumSTAs: 8, QueueCap: 1 << 14, Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Start(context.Background()); err != nil {
			b.Fatal(err)
		}
		for k := 0; k < frames; k++ {
			if err := e.SubmitSize(k%8, 1200); err != nil {
				b.Fatal(err)
			}
		}
		if err := e.Drain(context.Background()); err != nil {
			b.Fatal(err)
		}
		if st := e.Stats(); st.Delivered != frames {
			b.Fatalf("delivered %d of %d", st.Delivered, frames)
		}
	}
	b.ReportMetric(float64(frames), "frames/op")
}

// BenchmarkEngineBatchSubmitDrain10k is BenchmarkEngineSubmitDrain10k
// through the batched admission path: the same 10k frames arrive as
// slab-sized SubmitBatch calls — one lock acquisition and at most one
// worker wakeup per group instead of per frame.
func BenchmarkEngineBatchSubmitDrain10k(b *testing.B) {
	const frames = 10_000
	const group = 512
	items := make([]EngineBatchItem, frames)
	for k := range items {
		items[k] = EngineBatchItem{STA: k % 8, Size: 1200}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := NewEngine(EngineConfig{NumSTAs: 8, QueueCap: 1 << 14, Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Start(context.Background()); err != nil {
			b.Fatal(err)
		}
		for base := 0; base < frames; base += group {
			n, err := e.SubmitBatch(items[base:min(base+group, frames)])
			if err != nil || n != min(group, frames-base) {
				b.Fatalf("batch at %d: accepted %d, err %v", base, n, err)
			}
		}
		if err := e.Drain(context.Background()); err != nil {
			b.Fatal(err)
		}
		if st := e.Stats(); st.Delivered != frames {
			b.Fatalf("delivered %d of %d", st.Delivered, frames)
		}
	}
	b.ReportMetric(float64(frames), "frames/op")
}

// BenchmarkWireBatchRoundtrip measures the full batched serving path over
// loopback TCP: 10k size-only records leave the client in 512-record
// grouped writes, the server's slab reads parse them in place and admit
// each slab as one engine batch, and the op ends with the drain handshake
// confirming all 10k delivered.
func BenchmarkWireBatchRoundtrip(b *testing.B) {
	const frames = 10_000
	const group = 512
	var stream []byte
	groups := make([][]byte, 0, frames/group+1)
	for k := 0; k < frames; k++ {
		if k%group == 0 && k > 0 {
			groups = append(groups, stream)
			stream = nil
		}
		stream = engine.AppendSizeRecord(stream, k%8, 1200)
	}
	groups = append(groups, stream)
	drain := engine.AppendControlRecord(nil, engine.RecDrain)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := NewEngine(EngineConfig{NumSTAs: 8, QueueCap: 1 << 14, Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		if err := e.Start(ctx); err != nil {
			b.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		srv := NewEngineServer(e)
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ctx, ln) }()

		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		for _, g := range groups {
			if _, err := conn.Write(g); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := conn.Write(drain); err != nil {
			b.Fatal(err)
		}
		st, err := engine.ReadStatsReply(conn)
		if err != nil {
			b.Fatal(err)
		}
		if st.Delivered != frames {
			b.Fatalf("delivered %d of %d", st.Delivered, frames)
		}
		conn.Close()
		cancel()
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(frames), "frames/op")
}

// BenchmarkEngineDeterministicSampled is BenchmarkEngineDeterministicSecond
// with 1-in-8 frame-lifecycle sampling enabled — the observability-overhead
// arm benchdiff tracks against the unsampled baseline (sampling must not
// change Stats; this pins what it costs in time).
func BenchmarkEngineDeterministicSampled(b *testing.B) {
	flows := make([][]traffic.Arrival, 8)
	for sta := range flows {
		rng := rand.New(rand.NewSource(int64(sta) + 1))
		flows[sta] = traffic.PoissonFlow(rng, 5000, 1200, time.Second)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := RunEngineDeterministic(context.Background(), EngineConfig{
			NumSTAs:     8,
			QueueCap:    1 << 16,
			SampleEvery: 8,
		}, flows)
		if err != nil {
			b.Fatal(err)
		}
		if st.Pending != 0 {
			b.Fatal("deterministic run left backlog")
		}
	}
}

// BenchmarkEngineStats measures one Stats snapshot on a populated engine:
// the counters and latency-bucket copy happen under the engine lock, the
// quantile walks outside it, so this bounds the lock hold a telemetry
// subscriber or health monitor imposes per sample on the serving path.
func BenchmarkEngineStats(b *testing.B) {
	const frames = 20_000
	e, err := NewEngine(EngineConfig{NumSTAs: 32, QueueCap: 1 << 14, Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Start(context.Background()); err != nil {
		b.Fatal(err)
	}
	for k := 0; k < frames; k++ {
		if err := e.SubmitSize(k%32, 1200); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.Drain(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := e.Stats(); st.Delivered != frames {
			b.Fatalf("delivered %d of %d", st.Delivered, frames)
		}
	}
}

// benchEngineParallelSubmit drives a fixed 16,384-frame, 64-station
// workload through `conns` concurrent submitters, each batch-submitting
// its own station stripe — the contention profile of `conns` carpoolload
// connections hitting one carpoold. The engine, station count, and total
// work are identical across the family, so the 1→4→16 conns progression
// isolates admission-path scalability: with per-STA-shard admission
// lanes the stripes land on disjoint shards and the submitters stop
// serializing on a single engine mutex. The mutex-profile CI leg runs
// the 16-conn member and fails if SubmitBatch still dominates
// contention.
func benchEngineParallelSubmit(b *testing.B, conns int) {
	const totalFrames = 16_384
	const numSTAs = 64
	const group = 256
	perConn := totalFrames / conns
	staPerConn := numSTAs / conns
	items := make([][]EngineBatchItem, conns)
	for c := range items {
		items[c] = make([]EngineBatchItem, perConn)
		for k := range items[c] {
			items[c][k] = EngineBatchItem{STA: c*staPerConn + k%staPerConn, Size: 1200}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := NewEngine(EngineConfig{NumSTAs: numSTAs, QueueCap: 1 << 13, Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Start(context.Background()); err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func(it []EngineBatchItem) {
				defer wg.Done()
				for base := 0; base < len(it); base += group {
					end := min(base+group, len(it))
					n, err := e.SubmitBatch(it[base:end])
					if err != nil || n != end-base {
						b.Errorf("batch at %d: accepted %d of %d, err %v", base, n, end-base, err)
						return
					}
				}
			}(items[c])
		}
		wg.Wait()
		if b.Failed() {
			b.FailNow()
		}
		if err := e.Drain(context.Background()); err != nil {
			b.Fatal(err)
		}
		if st := e.Stats(); st.Delivered != totalFrames {
			b.Fatalf("delivered %d of %d", st.Delivered, totalFrames)
		}
	}
	b.ReportMetric(totalFrames, "frames/op")
}

func BenchmarkEngineParallelSubmit1Conns(b *testing.B)  { benchEngineParallelSubmit(b, 1) }
func BenchmarkEngineParallelSubmit4Conns(b *testing.B)  { benchEngineParallelSubmit(b, 4) }
func BenchmarkEngineParallelSubmit16Conns(b *testing.B) { benchEngineParallelSubmit(b, 16) }

// BenchmarkDemapSoftQ64QAM measures the quantized QAM64 soft demapper on
// one OFDM symbol's 48 data points — the serving path's per-symbol demap
// cost through the per-axis kernel.
func BenchmarkDemapSoftQ64QAM(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	bits := make([]byte, 48*6)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	points, err := modem.Map(modem.QAM64, bits)
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
		if err := modem.DemapSoftQInto(dst, modem.QAM64, points, 0.5); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(points)), "points/op")
}

// BenchmarkTracerEmit measures one ring-tracer event emission — the
// per-event cost every sampled lifecycle span and health transition pays.
func BenchmarkTracerEmit(b *testing.B) {
	tr := obs.NewTracer(1 << 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.EmitAt(int64(i), obs.EvFrameDeliver, 3, int64(i))
	}
	if tr.Len() == 0 {
		b.Fatal("tracer recorded nothing")
	}
}

// ---------------------------------------------------------------------------
// Erasure-coding kernels (DESIGN.md §15). The scratch-based RS codec over
// GF(256) runs on the transmit path of every StrategyFEC aggregate and on
// the receive path of every parity recovery, so benchdiff gates both
// kernels at 0 allocs/op.

func benchRSEncode(b *testing.B, k int) {
	const m, shardLen = 2, 1500
	rs, err := fec.NewRS(k, m)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, shardLen)
		rng.Read(data[i])
	}
	parity := make([][]byte, m)
	for j := range parity {
		parity[j] = make([]byte, shardLen)
	}
	b.SetBytes(int64(k * shardLen))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rs.EncodeInto(parity, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRSEncode4Sub encodes parity over a typical 4-subframe
// aggregate; BenchmarkRSEncode16Sub over a deep 16-subframe one.
func BenchmarkRSEncode4Sub(b *testing.B)  { benchRSEncode(b, 4) }
func BenchmarkRSEncode16Sub(b *testing.B) { benchRSEncode(b, 16) }

// BenchmarkRSReconstruct rebuilds two erased data shards of an 8+2 code —
// the worst admissible loss for that geometry, paying the Gauss-Jordan
// inversion plus two row-combine passes per op.
func BenchmarkRSReconstruct(b *testing.B) {
	const k, m, shardLen = 8, 2, 1500
	rs, err := fec.NewRS(k, m)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	shards := make([][]byte, k+m)
	for i := range shards {
		shards[i] = make([]byte, shardLen)
		if i < k {
			rng.Read(shards[i])
		}
	}
	if err := rs.EncodeInto(shards[k:], shards[:k]); err != nil {
		b.Fatal(err)
	}
	want2, want5 := append([]byte(nil), shards[2]...), append([]byte(nil), shards[5]...)
	present := make([]bool, k+m)
	for i := range present {
		present[i] = i != 2 && i != 5
	}
	b.SetBytes(2 * shardLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rs.ReconstructInto(shards, present); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if !bytes.Equal(shards[2], want2) || !bytes.Equal(shards[5], want5) {
		b.Fatal("reconstruction is not byte-true")
	}
}

// raggedShardLens is one fec_payload_sat aggregate's data subframes as the
// end-to-end benchmark's profile found them: 6.9 kB on average, the
// longest — which sets the parity length — 11.6 kB.
var raggedShardLens = [6]int{11600, 8400, 7200, 6000, 4800, 3400}

// BenchmarkRSEncodeRagged6x2 encodes two parity shards over six data shards
// of unequal length passed at their true length: the coder reads 41.4 kB
// where zero-padding every shard to the longest would feed it 69.6 kB.
func BenchmarkRSEncodeRagged6x2(b *testing.B) {
	rs, err := fec.NewRS(len(raggedShardLens), 2)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	data := make([][]byte, len(raggedShardLens))
	total := 0
	for i, n := range raggedShardLens {
		data[i] = make([]byte, n)
		rng.Read(data[i])
		total += n
	}
	parity := [][]byte{make([]byte, raggedShardLens[0]), make([]byte, raggedShardLens[0])}
	b.SetBytes(int64(total))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rs.EncodeInto(parity, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodedDeliverFEC is one coded delivery on the oracle transport,
// shaped like fec_payload_sat: six data subframes of retained 1200-byte
// frames (the ragged profile above, rounded to whole frames), two parity
// subframes, every shard reception erased with probability 0.1. An op
// stages the payloads, encodes, and rebuilds whatever the erasures call
// for; steady state allocates the two result slices only.
func BenchmarkCodedDeliverFEC(b *testing.B) {
	const frameBytes, plans = 1200, 16
	rng := rand.New(rand.NewSource(42))
	frame := func() []byte {
		p := make([]byte, frameBytes)
		rng.Read(p)
		return p
	}
	batch := make([]*engine.Plan, plans)
	dataBytes := 0
	for s := range batch {
		p := &engine.Plan{Seq: uint64(s), DataSubs: len(raggedShardLens)}
		maxBytes := 0
		for i, n := range raggedShardLens {
			sub := engine.PlanSub{STA: (s + i) % 16, MCS: phy.MCS48}
			for ; sub.Bytes+frameBytes <= n+frameBytes/2; sub.Bytes += frameBytes {
				sub.Payloads = append(sub.Payloads, frame())
			}
			maxBytes = max(maxBytes, sub.Bytes)
			dataBytes += sub.Bytes
			p.Subs = append(p.Subs, sub)
		}
		for j := 0; j < 2; j++ {
			p.Subs = append(p.Subs, engine.PlanSub{STA: -1, MCS: phy.MCS48, Bytes: maxBytes, Parity: true})
		}
		batch[s] = p
	}
	tr := &engine.CodedOracleTransport{
		ErasePattern: func(seq uint64, sta, shard int, _ bool) bool {
			h := (seq+1)*0x9e3779b97f4a7c15 ^ uint64(sta+1)*0xbf58476d1ce4e5b9 ^ uint64(shard+1)*0x94d049bb133111eb
			h ^= h >> 31
			return h%10 == 0
		},
	}
	ctx := context.Background()
	recovered := 0
	b.SetBytes(int64(dataBytes / plans))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := tr.DeliverFEC(ctx, batch[i%plans])
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res.Recovered {
			if r {
				recovered++
			}
		}
	}
	if b.N >= plans && recovered == 0 {
		b.Fatal("no shard was rebuilt; the benchmark exercises no reconstruct")
	}
}

// BenchmarkPHYDeliver8x300B is one phy_sat transmission end to end on
// PHYTransport: a full eight-receiver plan of thirteen retained 300-byte
// frames (what a lane of eight stations fits under the 4095 B PLCP limit)
// is built into a real frame, passed through the clean channel, and
// received by all eight stations on the quantized soft path, each payload
// compared byte-true.
func BenchmarkPHYDeliver8x300B(b *testing.B) {
	const frameBytes, frames = 300, 13
	rng := rand.New(rand.NewSource(8))
	plan := &engine.Plan{Seq: 1, Subs: make([]engine.PlanSub, bloom.MaxReceivers)}
	for f := 0; f < frames; f++ {
		p := make([]byte, frameBytes)
		rng.Read(p)
		sub := &plan.Subs[f%len(plan.Subs)]
		sub.STA, sub.MCS = f%len(plan.Subs), phy.MCS48
		sub.Payloads = append(sub.Payloads, p)
		sub.Bytes += frameBytes
	}
	tr := &engine.PHYTransport{Seed: 1, SoftFEC: true}
	ctx := context.Background()
	b.SetBytes(frameBytes * frames)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := tr.Deliver(ctx, plan)
		if err != nil {
			b.Fatal(err)
		}
		for j, v := range ok {
			if !v {
				b.Fatalf("subframe %d lost on a clean channel", j)
			}
		}
	}
}

// benchClusterSubmitDrain measures the multi-AP serving path: 10k
// size-only frames striped over 32 stations, routed to their APs by the
// lock-free STA→AP map, delivered by each AP's own worker, then drained
// cluster-wide. The AP count scales the routing fan-out and the number
// of independent worker pools contending for the machine.
func benchClusterSubmitDrain(b *testing.B, aps int) {
	const (
		frames  = 10_000
		numSTAs = 32
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := NewCluster(ClusterConfig{
			APs:    aps,
			Engine: EngineConfig{NumSTAs: numSTAs, QueueCap: 1 << 14, Workers: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Start(context.Background()); err != nil {
			b.Fatal(err)
		}
		for k := 0; k < frames; k++ {
			if err := c.SubmitSize(k%numSTAs, 1200); err != nil {
				b.Fatal(err)
			}
		}
		if err := c.Drain(context.Background()); err != nil {
			b.Fatal(err)
		}
		if st := c.Stats(); st.Delivered != frames {
			b.Fatalf("delivered %d of %d", st.Delivered, frames)
		}
	}
	b.ReportMetric(float64(frames), "frames/op")
}

func BenchmarkClusterSubmitDrain4AP(b *testing.B)  { benchClusterSubmitDrain(b, 4) }
func BenchmarkClusterSubmitDrain16AP(b *testing.B) { benchClusterSubmitDrain(b, 16) }

// BenchmarkBanditSchedulerStep measures one Pick/Observe cycle of the
// learning spatial-reuse scheduler on an 8-AP, two-channel cluster —
// the per-slot coordination overhead the deterministic runner pays.
func BenchmarkBanditSchedulerStep(b *testing.B) {
	channel := []int{0, 1, 0, 1, 0, 1, 0, 1}
	p := NewClusterBandit(channel, ClusterBanditConfig{Epsilon: 0.08, Seed: 7})
	bytesPerAP := make([]int64, len(channel))
	for a := range bytesPerAP {
		bytesPerAP[a] = int64(40_000 + 1_000*a)
	}
	const candidates = uint64(0xff)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := p.Pick(candidates)
		p.Observe(set, bytesPerAP, 2*time.Millisecond)
	}
}
