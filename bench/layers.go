package main

import (
	"context"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"carpool/internal/bloom"
	"carpool/internal/cluster"
	"carpool/internal/core"
	"carpool/internal/dsp"
	"carpool/internal/engine"
	"carpool/internal/faults"
	"carpool/internal/fec"
	"carpool/internal/mac"
	"carpool/internal/modem"
	"carpool/internal/ofdm"
	"carpool/internal/phy"
	"carpool/internal/sidechannel"
	"carpool/internal/traffic"
)

// The layers phase times calls into each package's public functions on
// the shapes the workloads use — 8 subframes of 300 B at MCS48 for the
// PHY rows, 512-item batches for the engine rows — so a per-layer row
// means the same thing in every run. Each row is the median of layerCalls
// calls; a row that slow that 200 calls overrun layerBudget stops there
// (never under minLayerCalls).
const (
	layerCalls    = 200
	minLayerCalls = 5
	layerBudget   = 400 * time.Millisecond
	// sampleFloor is the shortest interval worth timing on its own; a
	// faster function is called in a loop until a sample spans it.
	sampleFloor = 20 * time.Microsecond
)

// timeCalls returns the median duration of one call of fn, in ns.
func timeCalls(fn func()) float64 {
	fn() // first use builds lazily initialised tables and fills pools
	t0 := time.Now()
	fn()
	inner := int(sampleFloor/max(time.Since(t0), 1)) + 1
	samples := make([]float64, 0, layerCalls)
	deadline := time.Now().Add(layerBudget)
	for len(samples) < layerCalls {
		t0 := time.Now()
		for i := 0; i < inner; i++ {
			fn()
		}
		samples = append(samples, float64(time.Since(t0))/float64(inner))
		if len(samples) >= minLayerCalls && time.Now().After(deadline) {
			break
		}
	}
	return median(samples)
}

// must stops the benchmark on a fixture that cannot be built: that is a
// bug in this file, not a measurement.
func must(err error) {
	if err != nil {
		panic("bench: layers fixture: " + err.Error())
	}
}

// runLayers measures every row that does not need a running workload.
func runLayers() values {
	v := values{}
	phyLayers(v)
	codecLayers(v)
	engineLayers(v)
	otherLayers(v)
	return v
}

// phyFixture is one phy_sat transmission: what PHYTransport builds for a
// full eight-receiver plan on a clean channel.
type phyFixture struct {
	subs  []core.Subframe
	frame *core.Frame
	rx    []complex128
}

func newPHYFixture() *phyFixture {
	rng := rand.New(rand.NewSource(1))
	f := &phyFixture{subs: make([]core.Subframe, bloom.MaxReceivers)}
	for i := range f.subs {
		p := make([]byte, 300)
		rng.Read(p)
		f.subs[i] = core.Subframe{Receiver: engine.STAMAC(i), MCS: phy.MCS48, Payload: p}
	}
	var err error
	f.frame, err = core.BuildFrame(f.subs, core.FrameConfig{})
	must(err)
	f.rx = faults.Scenario{Seed: 1}.Apply(f.frame.Samples)
	return f
}

func phyLayers(v values) {
	f := newPHYFixture()
	v["core.build_frame_us"] = timeCalls(func() {
		_, err := core.BuildFrame(f.subs, core.FrameConfig{})
		must(err)
	}) / 1e3
	v["faults.apply_us"] = timeCalls(func() { faults.Scenario{Seed: 1}.Apply(f.frame.Samples) }) / 1e3

	receive := func(slot int) func() {
		cfg := core.ReceiverConfig{MAC: engine.STAMAC(slot), UseRTE: true, KnownStart: 0, SoftFEC: true}
		return func() {
			res, err := core.ReceiveFrame(f.rx, cfg)
			must(err)
			for _, sf := range res.Subframes {
				if sf.Position == slot+1 {
					return
				}
			}
			panic("bench: layers fixture: receiver did not decode its subframe")
		}
	}
	v["core.receive_frame_us_slot1"] = timeCalls(receive(0)) / 1e3
	last := receive(bloom.MaxReceivers - 1)
	v["core.receive_frame_us_slot8"] = timeCalls(last) / 1e3
	const allocCalls = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocCalls; i++ {
		last()
	}
	runtime.ReadMemStats(&after)
	v["core.receive_allocs"] = float64(after.Mallocs-before.Mallocs) / allocCalls
	v["core.receive_alloc_bytes"] = float64(after.TotalAlloc-before.TotalAlloc) / allocCalls

	// A-HDR and Bloom filter.
	macs := make([]bloom.MAC, len(f.subs))
	for i := range macs {
		macs[i] = f.subs[i].Receiver
	}
	v["bloom.build_ns"] = timeCalls(func() {
		_, err := bloom.Build(macs, bloom.DefaultHashes)
		must(err)
	})
	var hit bool
	v["bloom.match_ns"] = timeCalls(func() { hit = f.frame.Filter.Match(macs[3], 4, bloom.DefaultHashes) })
	if !hit {
		panic("bench: layers fixture: A-HDR does not match its own receiver")
	}
	v["core.ahdr_build_ns"] = timeCalls(func() {
		_, err := core.BuildAHDR(f.frame.Filter)
		must(err)
	})
	ahdr, err := core.BuildAHDR(f.frame.Filter)
	must(err)
	points := make([][]complex128, core.AHDRSymbols)
	for s := range points {
		bins, err := ofdm.SymbolBins(ahdr[s*ofdm.SymbolLen:])
		must(err)
		points[s] = ofdm.ExtractData(bins)
	}
	v["core.ahdr_decode_ns"] = timeCalls(func() {
		_, err := core.DecodeAHDR(points)
		must(err)
	})

	// The receive chain's stages, on the first subframe.
	v["phy.sync_us"] = timeCalls(func() { phy.Sync(f.rx, 0) }) / 1e3
	buf, h, _, status := phy.Sync(f.rx, 0)
	if status != phy.StatusOK {
		panic("bench: layers fixture: sync failed")
	}
	sigOff := ofdm.PreambleLen + core.AHDRSymbols*ofdm.SymbolLen
	v["phy.decode_sig_us"] = timeCalls(func() {
		_, _, err := phy.DecodeSIGAt(buf, h, sigOff, core.AHDRSymbols)
		must(err)
	}) / 1e3
	sig, sigPhase, err := phy.DecodeSIGAt(buf, h, sigOff, core.AHDRSymbols)
	must(err)
	nsym := sig.MCS.NumSymbols(sig.Length)
	scheme := sidechannel.DefaultScheme()
	demod := func() *phy.Segment {
		tracker := core.NewRTETracker()
		tracker.Init(h, sig.MCS.Mod)
		seg, err := phy.DecodeDataSymbolsQ(buf, sigOff+ofdm.SymbolLen, core.AHDRSymbols+1, nsym,
			sig.MCS.Mod, tracker, &scheme, sigPhase)
		must(err)
		return seg
	}
	v["phy.demod_q_us_per_sym"] = timeCalls(func() { demod() }) / 1e3 / float64(nsym)
	seg := demod()
	var dec phy.SoftQDecoder
	v["phy.decode_field_softq_us"] = timeCalls(func() {
		_, err := dec.DecodeDataField(seg.LLRQs, sig.MCS, sig.Length)
		must(err)
	}) / 1e3
	v["phy.encode_field_us"] = timeCalls(func() {
		_, err := phy.EncodeDataField(f.subs[0].Payload, phy.MCS48, 0x5d)
		must(err)
	}) / 1e3

	// One OFDM symbol's worth of the inner kernels.
	sym := buf[sigOff+ofdm.SymbolLen:]
	bins := make([]complex128, ofdm.NumSubcarriers)
	v["ofdm.symbol_bins_ns"] = timeCalls(func() { must(ofdm.SymbolBinsInto(bins, sym)) })
	raw := append([]complex128(nil), bins...)
	v["ofdm.equalize_ns"] = timeCalls(func() {
		copy(bins, raw)
		must(ofdm.Equalize(bins, h))
	})
	x := make([]complex128, 64)
	v["dsp.fft64_ns"] = timeCalls(func() {
		copy(x, raw)
		must(dsp.FFT(x))
	})
	data := ofdm.ExtractData(bins)
	llrq := make([]int8, len(data)*modem.QAM64.BitsPerSymbol())
	v["modem.demap_softq_ns_per_sym"] = timeCalls(func() { must(modem.DemapSoftQInto(llrq, modem.QAM64, data, 0.01)) })
	bits := make([]byte, len(llrq))
	for i := range bits {
		bits[i] = byte(i * 7 & 1)
	}
	v["modem.map_ns_per_sym"] = timeCalls(func() { must(modem.MapInto(data, modem.QAM64, bits)) })
	side, err := sidechannel.NewDecoder(scheme.Alphabet)
	must(err)
	sideBits := make([]byte, scheme.Alphabet.BitsPerSymbol())
	phase := 0.0
	v["sidechannel.decode_ns_per_sym"] = timeCalls(func() {
		phase += 1.5707963
		_, err := side.NextInto(sideBits, phase)
		must(err)
	})
}

func codecLayers(v values) {
	// Viterbi: a 1500 B MPDU at MCS48's rate.
	rng := rand.New(rand.NewSource(15))
	info := make([]byte, 12000)
	for i := range info {
		info[i] = byte(rng.Intn(2))
	}
	coded, err := fec.ConvEncode(info, fec.Rate2_3)
	must(err)
	llrs := make([]float64, len(coded))
	for i, c := range coded {
		llrs[i] = (1 - 2*float64(c)) * 8
	}
	qllrs := make([]int8, len(llrs))
	must(fec.QuantizeLLRsInto(qllrs, llrs, 1))
	var dec fec.SoftDecoder
	dst := make([]byte, len(info))
	v["fec.viterbi_softq_ns_per_bit"] = timeCalls(func() {
		must(dec.DecodeInto(dst, qllrs, fec.Rate2_3, len(info)))
	}) / float64(len(info))
	v["fec.viterbi_hard_ns_per_bit"] = timeCalls(func() {
		_, err := fec.ViterbiDecode(coded, fec.Rate2_3, len(info))
		must(err)
	}) / float64(len(info))

	// Reed-Solomon: fec_payload_sat's six data and two parity subframes.
	const k, m, shard = 6, 2, 1200
	rs, err := fec.NewRS(k, m)
	must(err)
	shards := make([][]byte, k+m)
	for i := range shards {
		shards[i] = make([]byte, shard)
		if i < k {
			rng.Read(shards[i])
		}
	}
	ns := timeCalls(func() { must(rs.EncodeInto(shards[k:], shards[:k])) })
	v["fec.rs_encode_mb_s"] = float64(k*shard) / ns * 1e3
	present := []bool{true, false, true, true, false, true, true, true}
	v["fec.rs_reconstruct_us"] = timeCalls(func() { must(rs.ReconstructInto(shards, present)) }) / 1e3
}

// batchItems draws one 512-item batch the way the rings do.
func batchItems(rng *rand.Rand, stas, n, payload int) []engine.BatchItem {
	items := make([]engine.BatchItem, n)
	for i := range items {
		items[i] = engine.BatchItem{STA: rng.Intn(stas), Size: 1200}
		if payload > 0 {
			items[i].Payload = make([]byte, payload)
			rng.Read(items[i].Payload)
		}
	}
	return items
}

// stepEngine times SubmitBatch on an engine that is never started, and
// empties it between batches through a Stepper, which also yields the
// plan and settle rows: the same code the workers run, one call at a time.
func stepEngine(cfg engine.Config, items []engine.BatchItem) (submit, plan, settle float64) {
	e, err := engine.New(cfg)
	must(err)
	defer e.Close()
	st := engine.NewStepper(e)
	ctx := context.Background()
	began := time.Now()
	var submits, plans, settles []float64
	for len(submits) < layerCalls {
		t0 := time.Now()
		n, err := e.SubmitBatch(items)
		submits = append(submits, float64(time.Since(t0))/float64(len(items)))
		if err != nil || n != len(items) {
			panic("bench: layers fixture: batch not admitted")
		}
		for {
			now := time.Since(began)
			t1 := time.Now()
			tx := st.BuildPlan(now)
			t2 := time.Now()
			if tx == nil {
				break
			}
			must(st.Deliver(ctx, tx))
			t3 := time.Now()
			st.Settle(tx, now+tx.Airtime())
			plans = append(plans, float64(t2.Sub(t1)))
			settles = append(settles, float64(time.Since(t3)))
		}
	}
	return median(submits), median(plans), median(settles)
}

func engineLayers(v values) {
	rng := rand.New(rand.NewSource(7))
	base := engine.Config{NumSTAs: 16, QueueCap: 16384, AdmissionShards: 2}
	v["engine.submit_ns_per_frame"], v["engine.plan_ns_per_tx"], v["engine.settle_ns_per_tx"] =
		stepEngine(base, batchItems(rng, 16, 512, 0))
	retain := base
	retain.RetainPayloads = true
	v["engine.submit_payload_ns_per_frame"], _, _ = stepEngine(retain, batchItems(rng, 16, 512, 1200))

	// Stats() on a loaded engine: what every poll of the closed loop costs
	// the server.
	loaded, err := engine.New(base)
	must(err)
	defer loaded.Close()
	items := batchItems(rng, 16, 512, 0)
	for i := 0; i < 128; i++ {
		_, err := loaded.SubmitBatch(items)
		must(err)
	}
	v["engine.stats_us"] = timeCalls(func() { loaded.Stats() }) / 1e3

	v["engine.direct_cpu_ns_per_frame"] = directCPUPerFrame(base, items)

	cl, err := cluster.New(cluster.Config{APs: 16, Engine: engine.Config{NumSTAs: 32, QueueCap: 16384, AdmissionShards: 1}})
	must(err)
	defer cl.Close()
	citems := batchItems(rng, 32, 512, 0)
	var csub []float64
	for len(csub) < layerCalls {
		t0 := time.Now()
		n, err := cl.SubmitBatch(citems)
		csub = append(csub, float64(time.Since(t0))/float64(len(citems)))
		if err != nil || n != len(citems) {
			panic("bench: layers fixture: cluster batch not admitted")
		}
	}
	v["cluster.submit_ns_per_frame"] = median(csub)
	idle, err := cluster.New(cluster.Config{APs: 16, Engine: engine.Config{NumSTAs: 32, AdmissionShards: 1}})
	must(err)
	defer idle.Close()
	ap := 0
	v["cluster.roam_us"] = timeCalls(func() {
		ap = (ap + 1) % 16
		must(idle.Roam(5, ap))
	}) / 1e3
}

// directCPUPerFrame runs oracle_sat's engine without the wire: the same
// size-only batches go straight into SubmitBatch under the same window,
// and the process CPU per delivered frame is what the engine costs when
// nothing is parsed, written or polled over TCP.
func directCPUPerFrame(cfg engine.Config, items []engine.BatchItem) float64 {
	cfg.Workers = 2
	e, err := engine.New(cfg)
	must(err)
	must(e.Start(context.Background()))
	defer e.Close()
	const window = 65536
	var sent, seen int64
	cpu0 := rusage(syscall.RUSAGE_SELF)
	for end := time.Now().Add(time.Second); time.Now().Before(end); {
		if sent-seen > window {
			if seen = settled(e.Stats()); sent-seen > window {
				time.Sleep(2 * time.Millisecond)
			}
			continue
		}
		n, _ := e.SubmitBatch(items)
		sent += int64(n)
	}
	must(e.Drain(context.Background()))
	cpu := rusage(syscall.RUSAGE_SELF) - cpu0
	return perFrame(float64(cpu), e.Stats().Delivered)
}

func otherLayers(v values) {
	rng := rand.New(rand.NewSource(18))
	const n = 8
	down := make([][]traffic.Arrival, n)
	for j := range down {
		down[j] = traffic.CBRFlow(rng, 120, 10*time.Millisecond, time.Second)
	}
	v["mac.sim_second_ms"] = timeCalls(func() {
		_, err := mac.Run(mac.Config{
			Protocol: mac.Carpool, NumSTAs: n, Duration: time.Second, Seed: 1,
			Downlink: down, SaturatedUplink: true,
		})
		must(err)
	}) / 1e6
}

// deriveBudget fills the rows that combine a traced run with the layers
// phase: what the wire costs on oracle_sat, and how much of each regime's
// CPU per frame the measured rows explain. The coverage is reported, not
// gated: closing the rest needs spans inside the program.
func deriveBudget(r *runResult, v values) {
	plain, tr := r.tracedPair()
	if plain == nil || tr == nil {
		return
	}
	cpuNs := plain.cpuPerFrameUs() * 1e3
	fpt, rpt := v["engine.frames_per_tx"], v["engine.receivers_per_tx"]
	if cpuNs <= 0 || fpt <= 0 {
		return
	}
	engineRows := (v["engine.plan_ns_per_tx"] + v["engine.settle_ns_per_tx"]) / fpt
	generator := v["loadgen.cpu_share"] * cpuNs
	switch r.w.name {
	case "oracle_sat":
		v["engine.wire_overhead_ns_per_frame"] = cpuNs - v["engine.direct_cpu_ns_per_frame"]
		deliver := v["transport.busy_share"] * float64(r.cfg.Workers) * 1e9 / tr.deliveredFPS()
		v["budget.coverage_oracle"] = (v["engine.submit_ns_per_frame"] + engineRows + deliver + generator) / cpuNs
	case "phy_sat":
		receive := (v["core.receive_frame_us_slot1"] + v["core.receive_frame_us_slot8"]) / 2
		perTx := (v["core.build_frame_us"] + v["faults.apply_us"] + rpt*receive) * 1e3
		v["budget.coverage_phy"] = (perTx/fpt + v["engine.submit_payload_ns_per_frame"] + engineRows + generator) / cpuNs
	}
}
