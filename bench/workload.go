package main

import (
	"math/rand"
	"time"

	"carpool/internal/engine"
	"carpool/internal/phy"
)

// workload is one traffic regime: an engine configuration, a record
// shape, and the loop that offers it. Engine sizes are explicit (workers,
// admission lanes) so a bigger host runs the same program; they are sized
// for two cores.
type workload struct {
	name string
	why  string

	stas       int
	frameBytes int
	payload    bool // RecData with real bytes; false sends size-only records
	batch      int  // records per pre-encoded write (closed loop)
	ring       int  // pre-encoded batches, replayed cyclically

	// Closed loop: write while sent − settled ≤ window, otherwise ask for
	// stats and wait, asking again no sooner than pollEvery.
	window    int
	pollEvery time.Duration
	warm      time.Duration

	// Open loop: one seeded Poisson phase per rate, in order. Empty for
	// the closed-loop workloads.
	rates []float64
	// latLimit is the latency an open-loop frame must meet, timed from
	// its due time; a frame that fails or is refused misses it.
	latLimit time.Duration

	// transport builds the workload's real transport; config the engine
	// around the wrapped one. sample is Config.SampleEvery: set only on
	// the traced run of the workload that reads stage latencies.
	transport func() engine.Transport
	config    func(tr engine.Transport, sample int) engine.Config
}

func (w *workload) open() bool { return len(w.rates) > 0 }

var workloads = []*workload{
	{
		name: "oracle_sat",
		why:  "size-only records over a lossless oracle: wire parse, admit, plan and settle do all the work and the PHY none",
		stas: 16, frameBytes: 1200, batch: 512, ring: 256,
		window: 65536, pollEvery: 2 * time.Millisecond, warm: 3 * time.Second,
		transport: func() engine.Transport { return &engine.OracleTransport{} },
		config: func(tr engine.Transport, _ int) engine.Config {
			return engine.Config{
				NumSTAs: 16, QueueCap: 16384, Workers: 2, AdmissionShards: 2,
				Transport: tr,
			}
		},
	},
	{
		name: "fec_payload_sat",
		why:  "real 1200 B payloads, 2 parity subframes, 10% shard erasures: arena copies, RS encode and reconstruct, retry and backoff",
		stas: 16, frameBytes: 1200, payload: true, batch: 512, ring: 32,
		window: 65536, pollEvery: 2 * time.Millisecond, warm: 3 * time.Second,
		transport: func() engine.Transport {
			return &engine.CodedOracleTransport{ErasePattern: eraseShard}
		},
		config: func(tr engine.Transport, _ int) engine.Config {
			return engine.Config{
				NumSTAs: 16, QueueCap: 16384, Workers: 2, AdmissionShards: 2,
				RetainPayloads: true, Strategy: engine.StrategyFEC, FECParity: 2,
				Transport: tr,
			}
		},
	},
	{
		name: "phy_sat",
		why:  "real 300 B payloads through the full TX, channel and 8-receiver RX pipeline: core, phy, fec, modem and ofdm do nearly all the work",
		stas: 16, frameBytes: 300, payload: true, batch: 32, ring: 64,
		// One transmission takes about 10 ms here, so asking for stats every
		// 2 ms would only add the harness's own allocations to a workload
		// that delivers under a thousand frames a second.
		window: 256, pollEvery: 10 * time.Millisecond, warm: 3 * time.Second,
		transport: func() engine.Transport {
			return &engine.PHYTransport{Seed: 1, SoftFEC: true}
		},
		config: func(tr engine.Transport, _ int) engine.Config {
			return engine.Config{
				NumSTAs: 16, QueueCap: 16384, Workers: 2, AdmissionShards: 2,
				RetainPayloads: true, MaxAggBytes: phy.MaxPayloadBytes,
				Transport: tr,
			}
		},
	},
	{
		name: "paced_open",
		why:  "seeded Poisson arrivals at 12k then 20k frames/s, workers paced by air time: the delay a WLAN user feels at a fixed offered load, set by the channel and not the CPU",
		stas: 16, frameBytes: 200, payload: true,
		warm:  1500 * time.Millisecond,
		rates: []float64{12000, 20000}, latLimit: 50 * time.Millisecond,
		pollEvery: time.Millisecond,
		transport: func() engine.Transport { return &engine.OracleTransport{} },
		config: func(tr engine.Transport, sample int) engine.Config {
			return engine.Config{
				NumSTAs: 16, QueueCap: 4096, Workers: 1, AdmissionShards: 1,
				RetainPayloads: true, PaceAirtime: true, SampleEvery: sample,
				Transport: tr,
			}
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ring is a closed-loop workload's pre-encoded input: batches of wire
// records with the station drawn uniformly per frame, written cyclically
// so the timed loop does nothing but write.
type ring struct {
	batches [][]byte
}

func buildRing(w *workload, seed int64) *ring {
	rng := rand.New(rand.NewSource(seed))
	r := &ring{batches: make([][]byte, w.ring)}
	var body []byte
	if w.payload {
		body = make([]byte, w.frameBytes)
	}
	for b := range r.batches {
		var buf []byte
		for i := 0; i < w.batch; i++ {
			sta := rng.Intn(w.stas)
			if w.payload {
				rng.Read(body)
				buf = engine.AppendDataRecord(buf, sta, body)
			} else {
				buf = engine.AppendSizeRecord(buf, sta, w.frameBytes)
			}
		}
		r.batches[b] = buf
	}
	return r
}

// openPhase is one open-loop phase's pre-encoded input: a Poisson
// schedule of stamped records laid out back to back in due order, so any
// run of consecutive frames leaves in one write.
type openPhase struct {
	rate float64
	due  []time.Duration // per frame, since phase start
	off  []int           // record i occupies buf[off[i]:off[i+1]]
	buf  []byte
	// first is the ordinal of the first measured frame: those due before
	// it are the phase's warm-up.
	first int
}

func buildOpenPhase(w *workload, seed int64, phase int, rate float64, warm, span time.Duration) *openPhase {
	rng := rand.New(rand.NewSource(seed + int64(phase)*0x5851f42d4c957f2d))
	p := &openPhase{rate: rate, first: -1}
	body := make([]byte, w.frameBytes)
	rng.Read(body)
	expect := int(rate*(warm+span).Seconds()*1.02) + 64
	p.due = make([]time.Duration, 0, expect)
	p.off = make([]int, 0, expect+1)
	p.buf = make([]byte, 0, expect*(w.frameBytes+7))
	at := time.Duration(0)
	for {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= warm+span {
			break
		}
		if p.first < 0 && at >= warm {
			p.first = len(p.due)
		}
		putStamp(body, phase, len(p.due))
		p.off = append(p.off, len(p.buf))
		p.buf = engine.AppendDataRecord(p.buf, rng.Intn(w.stas), body)
		p.due = append(p.due, at)
	}
	p.off = append(p.off, len(p.buf))
	if p.first < 0 {
		p.first = len(p.due)
	}
	return p
}

// input is everything a run offers, built from the seed during set-up.
type input struct {
	ring   *ring
	phases []*openPhase
}

// segment is one measured stretch of a run. A timed run measures each
// load point once with span recording off. A traced run has to tell what
// recording costs on a host whose speed drifts by a fifth over seconds, so
// it compares like with like: a closed loop alternates, one window with
// spans off, the next with spans on; an open loop, whose rate does not
// respond to cost, runs each load point twice at half length, off then on.
type segment struct {
	phase     int // index into workload.rates; -1 for the closed loop
	warm      time.Duration
	span      time.Duration
	traced    bool // spans recorded
	alternate bool // closed loop: recording flips at every window edge
}

func (w *workload) segments(span time.Duration, traced bool) []segment {
	if !w.open() {
		return []segment{{phase: -1, warm: min(w.warm, span/4), span: span, traced: traced, alternate: traced}}
	}
	per := span / time.Duration(len(w.rates))
	warm := min(w.warm, per/4) // a short run (the tests) warms up in proportion
	passes := []bool{false}
	if traced {
		passes = []bool{false, true}
	}
	var segs []segment
	for _, on := range passes {
		for i := range w.rates {
			segs = append(segs, segment{phase: i, warm: warm, span: per / time.Duration(len(passes)), traced: on})
		}
	}
	return segs
}

func buildInput(w *workload, seed int64, segs []segment) *input {
	in := &input{}
	if !w.open() {
		in.ring = buildRing(w, seed)
		return in
	}
	for i, s := range segs {
		in.phases = append(in.phases, buildOpenPhase(w, seed, i, w.rates[s.phase], s.warm, s.span))
	}
	return in
}
