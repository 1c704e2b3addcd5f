package main

import (
	"fmt"
	"sort"
)

// metricDef names one number the benchmark reports. The same tables are
// written to BENCHMARK.json; bench_test.go fails when the two differ.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Floor is an absolute difference below which -selfcheck does not call
	// two readings different, in the metric's unit: a 3 ms set-up or 0.02
	// allocations per frame moves by a large share and a negligible amount.
	// BENCHMARK.json has no field for it; the driver applies Bound alone.
	Floor float64 `json:"-"`
	// Doc says how the number is measured. It goes to the results file
	// and the README, not to BENCHMARK.json.
	Doc string `json:"-"`
}

// endToEnd are the numbers a user of the serving stack would see, each
// defined on every workload, with the share of the parent's median by
// which it may worsen before a change counts as a regression. On
// paced_open they describe the 20k frames/s phase; the 12k phase is
// reported beside them (paced.* in perLayer).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, 0.2,
		"workload start to first record written: engine, listener, connection, pre-encoded input; median of 5 to 201 set-ups"},
	{"delivered_fps", "frames/s", "higher", 0.25, 0,
		"frames the engine reports Delivered per second; closed loop: median over one-second windows; open loop: measured frames delivered / phase time"},
	{"cpu_us_per_frame", "us", "lower", 0.25, 0,
		"process user+sys CPU (getrusage) over the measured span / frames delivered in it, generator included"},
	{"allocs_per_frame", "count", "lower", 0.15, 0.05,
		"heap objects allocated over the measured span / frames delivered in it"},
	{"alloc_bytes_per_frame", "B", "lower", 0.15, 16,
		"heap bytes allocated over the measured span / frames delivered in it"},
	{"airtime_goodput_mbps", "Mbit/s", "higher", 0.03, 0,
		"delivered payload bits / virtual air time over the measured span: the paper's efficiency"},
	{"delivered_share", "ratio", "higher", 0.001, 0,
		"frames delivered / frames offered over the whole run, warm-up included; 1 − failed_share"},
	{"lat_p50_ms", "ms", "lower", 0.25, 0,
		"frame latency, median over one-second windows of each window's median; open loop: settle − due time, exact per frame; closed loop: write to first stats reply that covers the batch"},
	{"lat_p99_ms", "ms", "lower", 0.25, 0,
		"the same with each window's 99th percentile"},
}

// perLayer are the numbers of single layers, named after the repo's
// packages. They have no bound: they say which layer moved.
var perLayer = []metricDef{
	{Name: "engine.submit_ns_per_frame", Unit: "ns", Better: "lower", Doc: "Engine.SubmitBatch, 512 size-only items, per item"},
	{Name: "engine.submit_payload_ns_per_frame", Unit: "ns", Better: "lower", Doc: "Engine.SubmitBatch, 512 items of 1200 B retained, per item"},
	{Name: "engine.plan_ns_per_tx", Unit: "ns", Better: "lower", Doc: "Stepper.BuildPlan over deep size-only queues, 16 stations, 2 lanes"},
	{Name: "engine.settle_ns_per_tx", Unit: "ns", Better: "lower", Doc: "Stepper.Settle of the same plans"},
	{Name: "engine.gap_ns_per_tx", Unit: "ns", Better: "lower", Doc: "traced: median of Deliver return to the same worker's next Deliver entry (settle + plan + wake)"},
	{Name: "engine.direct_cpu_ns_per_frame", Unit: "ns", Better: "lower", Doc: "process CPU per frame with oracle_sat's batches submitted in-process under the same window: no wire"},
	{Name: "engine.wire_overhead_ns_per_frame", Unit: "ns", Better: "lower", Doc: "oracle_sat only: untraced CPU/frame − CPU/frame of the same frames submitted and drained in-process"},
	{Name: "engine.receivers_per_tx", Unit: "count", Better: "higher", Doc: "traced span: Δsubframes / Δtransmissions"},
	{Name: "engine.frames_per_tx", Unit: "count", Better: "higher", Doc: "traced span: Δdelivered / Δtransmissions"},
	{Name: "engine.retries_per_frame", Unit: "ratio", Better: "lower", Doc: "traced span: Δretries / Δdelivered"},
	{Name: "engine.rejected_share", Unit: "ratio", Better: "lower", Doc: "drain: rejected / offered"},
	{Name: "engine.fec_recovered_share", Unit: "ratio", Better: "higher", Doc: "drain: recovered / (recovered + decode failures)"},
	{Name: "engine.stage.queue_wait_ms_p50", Unit: "ms", Better: "lower", Doc: "paced_open traced, SampleEvery 8: StageStats().QueueWait.P50Ms"},
	{Name: "engine.stage.air_ms_p50", Unit: "ms", Better: "lower", Doc: "same: Air.P50Ms"},
	{Name: "engine.stage.decode_ms_p50", Unit: "ms", Better: "lower", Doc: "same: Decode.P50Ms"},
	{Name: "engine.stats_us", Unit: "us", Better: "lower", Doc: "Engine.Stats() on an engine holding 64k frames"},
	{Name: "transport.deliver_us_p50", Unit: "us", Better: "lower", Doc: "traced: Deliver call duration, median"},
	{Name: "transport.deliver_us_p99", Unit: "us", Better: "lower", Doc: "traced: Deliver call duration, 99th percentile"},
	{Name: "transport.busy_share", Unit: "ratio", Better: "lower", Doc: "traced: Σ Deliver time / (time spans were on × workers)"},
	{Name: "core.build_frame_us", Unit: "us", Better: "lower", Doc: "core.BuildFrame, 8 × 300 B at MCS48"},
	{Name: "core.receive_frame_us_slot1", Unit: "us", Better: "lower", Doc: "core.ReceiveFrame soft, receiver of subframe 1"},
	{Name: "core.receive_frame_us_slot8", Unit: "us", Better: "lower", Doc: "core.ReceiveFrame soft, receiver of subframe 8 (walks 7 SIGs first)"},
	{Name: "core.receive_allocs", Unit: "count", Better: "lower", Doc: "heap objects per core.ReceiveFrame, slot 8"},
	{Name: "core.receive_alloc_bytes", Unit: "B", Better: "lower", Doc: "heap bytes per core.ReceiveFrame, slot 8"},
	{Name: "core.ahdr_build_ns", Unit: "ns", Better: "lower", Doc: "core.BuildAHDR"},
	{Name: "core.ahdr_decode_ns", Unit: "ns", Better: "lower", Doc: "core.DecodeAHDR"},
	{Name: "bloom.build_ns", Unit: "ns", Better: "lower", Doc: "bloom.Build, 8 receivers"},
	{Name: "bloom.match_ns", Unit: "ns", Better: "lower", Doc: "Filter.Match, one receiver and position"},
	{Name: "phy.sync_us", Unit: "us", Better: "lower", Doc: "phy.Sync on the 8 × 300 B frame, known start"},
	{Name: "phy.decode_sig_us", Unit: "us", Better: "lower", Doc: "phy.DecodeSIGAt"},
	{Name: "phy.demod_q_us_per_sym", Unit: "us", Better: "lower", Doc: "phy.DecodeDataSymbolsQ over one subframe, per OFDM symbol"},
	{Name: "phy.decode_field_softq_us", Unit: "us", Better: "lower", Doc: "SoftQDecoder.DecodeDataField, 300 B at MCS48"},
	{Name: "phy.encode_field_us", Unit: "us", Better: "lower", Doc: "phy.EncodeDataField, 300 B at MCS48"},
	{Name: "fec.viterbi_softq_ns_per_bit", Unit: "ns", Better: "lower", Doc: "SoftDecoder.DecodeInto, 1500 B rate 2/3, per information bit"},
	{Name: "fec.viterbi_hard_ns_per_bit", Unit: "ns", Better: "lower", Doc: "fec.ViterbiDecode, same input hard-sliced"},
	{Name: "fec.rs_encode_mb_s", Unit: "MB/s", Better: "higher", Doc: "RS.EncodeInto, 6+2 shards of 1200 B, data bytes per second"},
	{Name: "fec.rs_reconstruct_us", Unit: "us", Better: "lower", Doc: "RS.ReconstructInto, same shape, 2 erasures"},
	{Name: "modem.demap_softq_ns_per_sym", Unit: "ns", Better: "lower", Doc: "modem.DemapSoftQInto, QAM64 × 48 points"},
	{Name: "modem.map_ns_per_sym", Unit: "ns", Better: "lower", Doc: "modem.MapInto, QAM64 × 48 points"},
	{Name: "dsp.fft64_ns", Unit: "ns", Better: "lower", Doc: "dsp.FFT, 64 points"},
	{Name: "ofdm.symbol_bins_ns", Unit: "ns", Better: "lower", Doc: "ofdm.SymbolBinsInto"},
	{Name: "ofdm.equalize_ns", Unit: "ns", Better: "lower", Doc: "ofdm.Equalize"},
	{Name: "sidechannel.decode_ns_per_sym", Unit: "ns", Better: "lower", Doc: "Decoder.NextInto"},
	{Name: "faults.apply_us", Unit: "us", Better: "lower", Doc: "Scenario.Apply on the built frame, no impairments: the simulated channel, not product cost"},
	{Name: "cluster.submit_ns_per_frame", Unit: "ns", Better: "lower", Doc: "Cluster.SubmitBatch, 16 APs, 512 size-only items, per item"},
	{Name: "cluster.roam_us", Unit: "us", Better: "lower", Doc: "Cluster.Roam of a station with an empty queue"},
	{Name: "mac.sim_second_ms", Unit: "ms", Better: "lower", Doc: "mac.Run, one simulated second, 8 stations, Carpool protocol"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower", Doc: "open loop: write time − due time, 99th percentile"},
	{Name: "loadgen.polls", Unit: "count", Better: "lower", Doc: "stats requests sent inside the traced span"},
	{Name: "loadgen.cpu_share", Unit: "ratio", Better: "lower", Doc: "traced span: generator thread CPU / process CPU"},
	{Name: "budget.coverage_phy", Unit: "ratio", Better: "higher", Doc: "phy_sat only: Σ(layer row × calls per frame) / cpu_us_per_frame"},
	{Name: "budget.coverage_oracle", Unit: "ratio", Better: "higher", Doc: "oracle_sat only: the same sum over the engine rows"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Doc: "1 − delivered_fps with spans on / off: alternate one-second windows of a closed loop, two passes of an open one"},
	{Name: "trace.spans", Unit: "count", Better: "higher", Doc: "Deliver spans recorded"},
	{Name: "paced.lat_p50_ms_r12k", Unit: "ms", Better: "lower", Doc: "paced_open at 12k frames/s: settle − due, median"},
	{Name: "paced.lat_p99_ms_r12k", Unit: "ms", Better: "lower", Doc: "paced_open at 12k frames/s: 99th percentile"},
	{Name: "paced.lat_p50_ms_r20k", Unit: "ms", Better: "lower", Doc: "paced_open at 20k frames/s: median"},
	{Name: "paced.lat_p99_ms_r20k", Unit: "ms", Better: "lower", Doc: "paced_open at 20k frames/s: 99th percentile"},
	{Name: "paced.slo_miss_share_r20k", Unit: "ratio", Better: "lower", Doc: "paced_open at 20k frames/s: frames not delivered within 50 ms of due time / offered"},
}

// defsFor returns the table a run's mode reports: the end-to-end metrics
// of a timed run, the per-layer ones of a traced run.
func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// values maps metric names to measurements.
type values map[string]float64

// metricJSON is one measurement in the result line and the results file.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the object a single-workload run prints last.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func withUnits(defs []metricDef, v values) map[string]metricJSON {
	out := make(map[string]metricJSON, len(defs))
	for _, d := range defs {
		out[d.Name] = metricJSON{Value: v[d.Name], Unit: d.Unit}
	}
	return out
}

func perFrame(total float64, frames int64) float64 {
	if frames <= 0 {
		return 0
	}
	return total / float64(frames)
}

func ratio(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// airtimeGoodput is delivered payload bits over virtual air time between
// two stats snapshots, in Mbit/s.
func (r *segResult) airtimeGoodput() float64 {
	busy := r.end.stats.AirtimeBusy - r.begin.stats.AirtimeBusy
	if busy <= 0 {
		return 0
	}
	bits := float64(r.end.stats.DeliveredBytes-r.begin.stats.DeliveredBytes) * 8
	return bits / busy.Seconds() / 1e6
}

// deliveredFPS is the segment's throughput, always on frames the engine
// delivered.
func (r *segResult) deliveredFPS() float64 {
	if r.rate > 0 {
		return float64(r.offered-r.undelivered) / r.seconds()
	}
	if len(r.windows) > 0 {
		return median(r.windows)
	}
	return float64(r.delivered()) / r.seconds() // a span too short for windows with spans off
}

// framesIn is the number of delivered frames a segment's per-frame costs
// divide by.
func (r *segResult) framesIn() int64 {
	if r.rate > 0 {
		return r.offered - r.undelivered
	}
	return r.delivered()
}

func (r *segResult) cpuPerFrameUs() float64 {
	return perFrame(float64(r.end.cpu-r.begin.cpu)/1e3, r.framesIn())
}

// gated is the segment the end-to-end metrics describe: the only one of a
// closed loop, the highest rate of an open one.
func (r *runResult) gated() *segResult {
	var g *segResult
	for _, s := range r.segs {
		if !s.seg.traced {
			g = s
		}
	}
	return g
}

// endToEndValues computes every end-to-end metric from a timed run.
func (r *runResult) endToEndValues() values {
	g := r.gated()
	n := g.framesIn()
	return values{
		"setup_s":               median(r.setups),
		"delivered_fps":         g.deliveredFPS(),
		"cpu_us_per_frame":      g.cpuPerFrameUs(),
		"allocs_per_frame":      perFrame(float64(g.end.mallocs-g.begin.mallocs), n),
		"alloc_bytes_per_frame": perFrame(float64(g.end.bytes-g.begin.bytes), n),
		"airtime_goodput_mbps":  g.airtimeGoodput(),
		"delivered_share":       ratio(r.final.Delivered, r.sent),
		"lat_p50_ms":            g.latQ(0.50),
		"lat_p99_ms":            g.latQ(0.99),
	}
}

// tracedPair returns the segments of a traced run that measured its gated
// load point with spans off and with spans on. An alternating closed loop
// is both.
func (r *runResult) tracedPair() (plain, traced *segResult) {
	for _, s := range r.segs {
		if s.seg.traced {
			traced = s
		}
		if !s.seg.traced || s.seg.alternate {
			plain = s
		}
	}
	return plain, traced
}

// tracedFPS is the throughput of the stretches that recorded spans.
func (r *segResult) tracedFPS() float64 {
	if r.seg.alternate {
		return median(r.windowsTraced)
	}
	return r.deliveredFPS()
}

// traceValues computes the per-layer metrics a traced run observes from
// outside the engine; the layers phase supplies the rest.
func (r *runResult) traceValues() values {
	v := values{}
	plain, tr := r.tracedPair()
	if plain == nil || tr == nil {
		return v
	}
	b, e := tr.begin.stats, tr.end.stats
	tx := e.Transmissions - b.Transmissions
	v["engine.receivers_per_tx"] = ratio(e.Subframes-b.Subframes, tx)
	v["engine.frames_per_tx"] = ratio(tr.delivered(), tx)
	v["engine.retries_per_frame"] = ratio(e.Retries-b.Retries, tr.delivered())
	v["engine.rejected_share"] = ratio(r.final.Rejected, r.sent)
	v["engine.fec_recovered_share"] = ratio(r.final.FECRecovered, r.final.FECRecovered+r.final.FECDecodeFail)
	if r.stages.SampleEvery > 0 {
		v["engine.stage.queue_wait_ms_p50"] = r.stages.QueueWait.P50Ms
		v["engine.stage.air_ms_p50"] = r.stages.Air.P50Ms
		v["engine.stage.decode_ms_p50"] = r.stages.Decode.P50Ms
	}

	// Spans: every lane's calls inside the traced segment. A gap is the
	// time from one call's return to the same worker's next entry; the rare
	// long ones are stretches with recording off or nothing to send.
	const idleGap = 100e6
	lo := tr.begin.at.Sub(r.epoch).Nanoseconds()
	hi := tr.end.at.Sub(r.epoch).Nanoseconds()
	var durs, gaps []float64
	var busy float64
	for _, lane := range r.spans {
		prevEnd := int64(-1)
		for _, sp := range lane {
			if sp.start < lo || sp.end > hi {
				continue
			}
			durs = append(durs, float64(sp.end-sp.start)/1e3)
			busy += float64(sp.end - sp.start)
			if gap := float64(sp.start - prevEnd); prevEnd >= 0 && gap < idleGap {
				gaps = append(gaps, gap)
			}
			prevEnd = sp.end
		}
	}
	sort.Float64s(durs)
	v["trace.spans"] = float64(len(durs))
	v["transport.deliver_us_p50"] = quantile(durs, 0.50)
	v["transport.deliver_us_p99"] = quantile(durs, 0.99)
	if tr.tracedTime > 0 {
		v["transport.busy_share"] = busy / (float64(tr.tracedTime) * float64(r.cfg.Workers))
	}
	if len(r.spans) < maxLanes {
		v["engine.gap_ns_per_tx"] = median(gaps)
	}
	if p := plain.deliveredFPS(); p > 0 {
		v["trace.overhead_share"] = 1 - tr.tracedFPS()/p
	}

	v["loadgen.polls"] = float64(tr.polls)
	v["loadgen.late_p99_ms"] = quantile(tr.late, 0.99)
	if cpu := tr.end.cpu - tr.begin.cpu; cpu > 0 {
		v["loadgen.cpu_share"] = float64(tr.end.gen-tr.begin.gen) / float64(cpu)
	}

	// Every open-loop load point, from the traced segments.
	for _, s := range r.segs {
		if !s.seg.traced || s.rate == 0 {
			continue
		}
		suffix := rateSuffix(s.rate)
		v["paced.lat_p50_ms_"+suffix] = s.latQ(0.50)
		v["paced.lat_p99_ms_"+suffix] = s.latQ(0.99)
		if s == tr {
			v["paced.slo_miss_share_"+suffix] = ratio(s.missed, s.offered)
		}
	}
	return v
}

// rateSuffix names an open-loop load point: 12000 frames/s is "r12k".
func rateSuffix(rate float64) string {
	return fmt.Sprintf("r%dk", int(rate/1000+0.5))
}
