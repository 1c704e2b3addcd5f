package engine

import (
	"context"
	"testing"
	"time"

	"carpool/internal/core"
	"carpool/internal/faults"
	"carpool/internal/fec"
	"carpool/internal/ofdm"
)

// buildFECPlan spins an FEC engine with one 300B frame queued per
// station and returns the planner's first coded plan (Seq 0).
func buildFECPlan(t *testing.T, numSTAs, fecK int, tr *PHYTransport) (*Engine, *Plan) {
	t.Helper()
	e, err := New(Config{
		NumSTAs:   numSTAs,
		Strategy:  StrategyFEC,
		FECParity: fecK,
		Transport: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	for sta := 0; sta < numSTAs; sta++ {
		if err := e.submitLocked(sta, 300, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	sc := &planScratch{}
	tx := e.buildPlanLocked(0, sc)
	if tx == nil {
		t.Fatal("planner produced no transmission")
	}
	return e, &tx.plan
}

// codedFrame rebuilds, outside the transport, exactly the PHY frame
// PHYTransport.DeliverFEC puts on the air for plan: deterministic data
// payloads, RS parity over the zero-padded shards, parity subframes on
// the reserved MACs. The test uses its symbol geometry to aim
// impairments at specific subframes.
func codedFrame(t *testing.T, tr *PHYTransport, plan *Plan) *core.Frame {
	t.Helper()
	k, total := plan.DataSubs, len(plan.Subs)
	shardLen := plan.Subs[k].Bytes
	padded := make([][]byte, total)
	subs := make([]core.Subframe, total)
	for i := 0; i < k; i++ {
		p := make([]byte, plan.Subs[i].Bytes)
		fillSubframe(p, nil, tr.Seed, plan.Seq, i, plan.Subs[i])
		subs[i] = core.Subframe{Receiver: STAMAC(plan.Subs[i].STA), MCS: plan.Subs[i].MCS, Payload: p}
		if len(p) < shardLen {
			pp := make([]byte, shardLen)
			copy(pp, p)
			p = pp
		}
		padded[i] = p
	}
	for j := k; j < total; j++ {
		padded[j] = make([]byte, shardLen)
	}
	rs, err := fec.NewRS(k, total-k)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.EncodeInto(padded[k:], padded[:k]); err != nil {
		t.Fatal(err)
	}
	for j := k; j < total; j++ {
		subs[j] = core.Subframe{Receiver: ParityMAC(j - k), MCS: plan.Subs[j].MCS, Payload: padded[j]}
	}
	frame, err := core.BuildFrame(subs, tr.FrameCfg)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// dataSpan returns the sample window of subframe i's DATA symbols (SIG
// excluded) inside the built frame.
func dataSpan(frame *core.Frame, i int) (start, length int) {
	sub := frame.Subframes[i]
	start = ofdm.PreambleLen + (sub.StartSymbol+1)*ofdm.SymbolLen
	return start, len(sub.Blocks) * ofdm.SymbolLen
}

// TestFECDeliverTargetedImpairments aims sample-exact faults at
// individual subframes of one coded PHY transmission and checks the
// erasure layer's verdicts. A Recovered verdict is by construction a
// byte-identity claim — the transport only sets it when the rebuilt
// shard equals the lossless payload — so these checks pin that the full
// burst→decode→reconstruct chain lands byte-true, parity-row math
// included.
func TestFECDeliverTargetedImpairments(t *testing.T) {
	const numSTAs, fecK = 4, 2
	mkTransport := func() *PHYTransport { return &PHYTransport{Seed: 7} }
	_, plan := buildFECPlan(t, numSTAs, fecK, mkTransport())
	frame := codedFrame(t, mkTransport(), plan)
	if len(frame.Subframes) != numSTAs+fecK {
		t.Fatalf("coded frame has %d subframes, want %d", len(frame.Subframes), numSTAs+fecK)
	}

	ctx := context.Background()
	run := func(imps ...faults.Impairment) FECResult {
		t.Helper()
		tr := mkTransport()
		tr.Impair = imps
		res, err := tr.DeliverFEC(ctx, plan)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	t.Run("clean", func(t *testing.T) {
		res := run()
		for i := range res.Direct {
			if !res.Direct[i] || res.Recovered[i] {
				t.Errorf("clean channel sub %d: direct=%v recovered=%v", i, res.Direct[i], res.Recovered[i])
			}
		}
	})

	t.Run("burst-on-data-recovers", func(t *testing.T) {
		start, n := dataSpan(frame, 1)
		res := run(faults.Burst{Start: start, Len: n, GainDB: 12})
		if res.Direct[1] {
			t.Fatal("burst over subframe 1's whole DATA field still decoded directly")
		}
		if !res.Recovered[1] {
			t.Error("subframe 1 not rebuilt byte-true from overheard shards + parity")
		}
		for i := range res.Direct {
			if i != 1 && !res.Direct[i] {
				t.Errorf("untargeted subframe %d lost", i)
			}
		}
	})

	t.Run("burst-on-parity-harmless", func(t *testing.T) {
		// Both parity subframes destroyed: all data arrives directly, so
		// nobody needs them.
		p0start, p0len := dataSpan(frame, numSTAs)
		p1start, p1len := dataSpan(frame, numSTAs+1)
		res := run(
			faults.Burst{Start: p0start, Len: p0len, GainDB: 12},
			faults.Burst{Start: p1start, Len: p1len, GainDB: 12},
		)
		for i := range res.Direct {
			if !res.Direct[i] || res.Recovered[i] {
				t.Errorf("sub %d: direct=%v recovered=%v with only parity impaired",
					i, res.Direct[i], res.Recovered[i])
			}
		}
	})

	t.Run("burst-on-data-and-parity-still-recovers", func(t *testing.T) {
		// Two bursts: one over the last data subframe, one over the final
		// parity subframe (SIG included — the walk past it has nothing left
		// to lose). The victim still holds k shards: three data plus the
		// surviving first parity, so RS reconstruction must repair it.
		dstart, dlen := dataSpan(frame, numSTAs-1)
		p1start, p1len := dataSpan(frame, numSTAs+1)
		res := run(
			faults.Burst{Start: dstart, Len: dlen, GainDB: 12},
			faults.Burst{Start: p1start - ofdm.SymbolLen, Len: p1len + ofdm.SymbolLen, GainDB: 12},
		)
		if res.Direct[numSTAs-1] {
			t.Fatal("burst over the last data subframe still decoded directly")
		}
		if !res.Recovered[numSTAs-1] {
			t.Error("victim not rebuilt from 3 data shards + surviving parity shard")
		}
	})

	t.Run("truncate-tail-drops-parity-only", func(t *testing.T) {
		// Cut the frame just before the parity region: data decodes, parity
		// is gone, nothing needed it.
		p0start, _ := dataSpan(frame, numSTAs)
		res := run(faults.Truncate{At: p0start - ofdm.SymbolLen})
		for i := range res.Direct {
			if !res.Direct[i] {
				t.Errorf("data subframe %d lost to a parity-only truncation", i)
			}
		}
	})

	t.Run("dropout-on-data-recovers", func(t *testing.T) {
		start, n := dataSpan(frame, 2)
		res := run(faults.Dropout{Start: start, Len: n})
		if res.Direct[2] {
			t.Fatal("zeroed subframe 2 still decoded directly")
		}
		if !res.Recovered[2] {
			t.Error("subframe 2 not rebuilt after a full dropout")
		}
	})
}

// TestFECEngineUnderFaultsMatrix runs the erasure-coded engine end to end
// (PHY transport, virtual clock) under one scenario per impairment kind —
// burst, dropout, and truncation placed to straddle data and parity
// subframes — and differentially checks every run against the lossless
// twin: a station never delivers more than its lossless bytes, a run
// without drops reproduces the lossless accounting exactly (recovered
// payloads are byte-checked in the transport, so a recovery that
// reconstructed wrong bytes would surface here as drops), raw air losses
// telescope into recovered + decode-failed, and the matrix as a whole
// must exercise the recovery path.
func TestFECEngineUnderFaultsMatrix(t *testing.T) {
	const numSTAs, fecK = 4, 2
	flows := cbrFlows(numSTAs, 3, 300, time.Millisecond)
	cfg := func(tr Transport) Config {
		return Config{
			NumSTAs:   numSTAs,
			Strategy:  StrategyFEC,
			FECParity: fecK,
			// Parity shards project into the byte cap too: 4 data + 2
			// parity at 300 B each. Full aggregates share the probe
			// frame's geometry, so the aimed faults below land.
			MaxAggBytes: 1800,
			RetryLimit:  3,
			Transport:   tr,
		}
	}

	lossless, err := RunDeterministic(context.Background(), cfg(&PHYTransport{Seed: 7}), flows)
	if err != nil {
		t.Fatal(err)
	}
	if lossless.Delivered != int64(numSTAs*3) || lossless.Dropped != 0 {
		t.Fatalf("lossless PHY baseline: delivered=%d dropped=%d, want %d/0",
			lossless.Delivered, lossless.Dropped, numSTAs*3)
	}

	// Sample geometry of the (identical) first aggregate, for the aimed
	// burst/dropout/trunc scenarios.
	_, plan := buildFECPlan(t, numSTAs, fecK, &PHYTransport{Seed: 7})
	frame := codedFrame(t, &PHYTransport{Seed: 7}, plan)
	d3start, d3len := dataSpan(frame, numSTAs-1)
	p0start, p0len := dataSpan(frame, numSTAs)
	p1start, p1len := dataSpan(frame, numSTAs+1)

	cases := []struct {
		name         string
		imps         []faults.Impairment
		wantRecovery bool // the aimed fault must force parity recovery
	}{
		{"awgn", []faults.Impairment{faults.AWGN{SNRdB: 26}}, false},
		{"cfo", []faults.Impairment{faults.CFO{EpsRad: 0.002, Phase0: 0.3}}, false},
		{"clip", []faults.Impairment{faults.Clip{Level: 1.8}}, false},
		{"phasejitter", []faults.Impairment{faults.PhaseJitter{SigmaRad: 0.02}}, false},
		{"symnoise", []faults.Impairment{faults.SymbolNoise{Sym: 2, Count: 1, Amp: 0.15}}, false},
		{"burst-data", []faults.Impairment{faults.Burst{Start: d3start, Len: d3len, GainDB: 12}}, true},
		{"burst-parity", []faults.Impairment{faults.Burst{Start: p0start, Len: p0len, GainDB: 12}}, false},
		{"burst-data-and-parity", []faults.Impairment{
			faults.Burst{Start: d3start, Len: d3len, GainDB: 12},
			faults.Burst{Start: p1start - ofdm.SymbolLen, Len: p1len + ofdm.SymbolLen, GainDB: 12}}, true},
		{"dropout-data", []faults.Impairment{faults.Dropout{Start: d3start, Len: d3len}}, true},
		{"dropout-parity", []faults.Impairment{faults.Dropout{Start: p1start, Len: p1len}}, false},
		{"trunc-parity-tail", []faults.Impairment{faults.Truncate{At: p0start - ofdm.SymbolLen}}, false},
		{"trunc-mid-data", []faults.Impairment{faults.Truncate{At: d3start + d3len/2}}, false},
	}

	var totalRecovered int64
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ct := &countingFECTransport{inner: &PHYTransport{Seed: 7, Impair: tc.imps}}
			st, err := RunDeterministic(context.Background(), cfg(ct), flows)
			if err != nil {
				t.Fatal(err)
			}
			if st.Pending != 0 {
				t.Errorf("run left %d frames pending", st.Pending)
			}
			if st.Delivered+st.Dropped+st.Expired != st.Accepted {
				t.Errorf("inconsistent accounting: %+v", st)
			}
			if got := st.FECRecovered + st.FECDecodeFail; got != ct.lostDirect {
				t.Errorf("recovered(%d) + decode_fail(%d) = %d, want raw air losses %d",
					st.FECRecovered, st.FECDecodeFail, got, ct.lostDirect)
			}
			for sta := range st.DeliveredBytesPerSTA {
				if st.DeliveredBytesPerSTA[sta] > lossless.DeliveredBytesPerSTA[sta] {
					t.Errorf("station %d delivered %d bytes, more than lossless %d",
						sta, st.DeliveredBytesPerSTA[sta], lossless.DeliveredBytesPerSTA[sta])
				}
			}
			if st.Dropped == 0 && st.Expired == 0 {
				for sta := range st.DeliveredBytesPerSTA {
					if st.DeliveredBytesPerSTA[sta] != lossless.DeliveredBytesPerSTA[sta] {
						t.Errorf("station %d delivered %d bytes under %s, lossless run delivered %d",
							sta, st.DeliveredBytesPerSTA[sta], tc.name, lossless.DeliveredBytesPerSTA[sta])
					}
				}
			}
			if tc.wantRecovery && st.FECRecovered == 0 {
				t.Error("aimed fault did not force a parity recovery (geometry drift?)")
			}
			totalRecovered += st.FECRecovered
			t.Logf("delivered=%d dropped=%d recovered=%d decode_fail=%d raw_lost=%d",
				st.Delivered, st.Dropped, st.FECRecovered, st.FECDecodeFail, ct.lostDirect)
		})
	}
	if totalRecovered == 0 {
		t.Error("no scenario in the matrix exercised parity recovery")
	}
}
