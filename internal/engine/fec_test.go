package engine

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"carpool/internal/mac"
	"carpool/internal/phy"
	"carpool/internal/sim"
	"carpool/internal/traffic"
)

// fecWorkload is equivWorkload with a knob for the offered window, so the
// goodput tests can compress arrivals and make drain time dominate.
func fecWorkload(seed int64, numSTAs int, window time.Duration) [][]traffic.Arrival {
	flows := make([][]traffic.Arrival, numSTAs)
	for sta := range flows {
		rng := rand.New(rand.NewSource(sim.DeriveSeed(seed, sta)))
		flows[sta] = traffic.PoissonFlow(rng, 400, 600, window)
	}
	return flows
}

// TestFECPlanShape drives the planner directly under StrategyFEC and
// checks the coded plan's invariants: parity subframes ride at the tail,
// sized to the largest data shard at the slowest admitted MCS, inside the
// receiver / byte / airtime caps, with ACK slots for data subframes only.
func TestFECPlanShape(t *testing.T) {
	const numSTAs, fecK = 10, 2
	mcs := make([]phy.MCS, numSTAs)
	for i := range mcs {
		mcs[i] = phy.MCS48
	}
	mcs[2] = phy.MCS12 // slowest admitted rate must carry the parity
	e, err := New(Config{
		NumSTAs:      numSTAs,
		Strategy:     StrategyFEC,
		FECParity:    fecK,
		MaxReceivers: 8,
		MCS:          mcs,
		Transport:    &CodedOracleTransport{},
		// One lane: a plan aggregates within a lane, and the default lane
		// count follows GOMAXPROCS (two lanes of five here on two cores).
		AdmissionShards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for sta := 0; sta < numSTAs; sta++ {
		if err := e.submitLocked(sta, 400+10*sta, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	var sc planScratch
	tx := e.buildPlanLocked(0, &sc)
	if tx == nil {
		t.Fatal("planner produced no transmission")
	}
	plan := &tx.plan

	// Receiver cap: data + parity together fit the A-HDR budget, and the
	// parity reservation squeezed the data subframes, not vice versa.
	if plan.DataSubs != 8-fecK {
		t.Errorf("DataSubs = %d, want %d (MaxReceivers %d minus %d parity)",
			plan.DataSubs, 8-fecK, 8, fecK)
	}
	if len(plan.Subs) != plan.DataSubs+fecK {
		t.Fatalf("len(Subs) = %d, want %d data + %d parity", len(plan.Subs), plan.DataSubs, fecK)
	}

	maxBytes := 0
	for i := 0; i < plan.DataSubs; i++ {
		sub := plan.Subs[i]
		if sub.Parity || sub.STA < 0 {
			t.Errorf("data subframe %d marked parity (STA %d)", i, sub.STA)
		}
		if sub.Bytes > maxBytes {
			maxBytes = sub.Bytes
		}
	}
	sawSlow := false
	for i := 0; i < plan.DataSubs; i++ {
		if plan.Subs[i].STA == 2 {
			sawSlow = true
		}
	}
	for j := plan.DataSubs; j < len(plan.Subs); j++ {
		sub := plan.Subs[j]
		if !sub.Parity || sub.STA != -1 {
			t.Errorf("parity subframe %d: Parity=%v STA=%d, want true/-1", j, sub.Parity, sub.STA)
		}
		if sub.Bytes != maxBytes {
			t.Errorf("parity subframe %d carries %d bytes, want max data shard %d", j, sub.Bytes, maxBytes)
		}
		if sawSlow && sub.MCS != phy.MCS12 {
			t.Errorf("parity subframe %d at %v, want slowest admitted MCS12", j, sub.MCS)
		}
	}

	// Contiguous symbol layout across the whole aggregate, parity included:
	// one SIG symbol then the DATA run per subframe.
	next := mac.AHDRSymbols
	for j, sub := range plan.Subs {
		next += mac.SIGSymbols
		if sub.StartSym != next || sub.NumSym <= 0 {
			t.Errorf("subframe %d spans [%d,+%d), want start %d", j, sub.StartSym, sub.NumSym, next)
		}
		next = sub.StartSym + sub.NumSym
	}

	// Sequential ACK slots cover data subframes only: parity is nobody's
	// frame and is never ACKed.
	wantACK := time.Duration(plan.DataSubs) * (mac.SIFS + mac.ACKAirtime(e.rates))
	if plan.ACKTime != wantACK {
		t.Errorf("ACKTime = %v, want %v (%d data subframes)", plan.ACKTime, wantACK, plan.DataSubs)
	}
}

// TestFECPlanByteCapIncludesParity pins the MaxAggBytes projection: the
// planner must stop admitting data while data + k*maxShard still fits.
func TestFECPlanByteCapIncludesParity(t *testing.T) {
	const fecK = 2
	e, err := New(Config{
		NumSTAs:     8,
		Strategy:    StrategyFEC,
		FECParity:   fecK,
		MaxAggBytes: 3000,
		Transport:   &CodedOracleTransport{},
	})
	if err != nil {
		t.Fatal(err)
	}
	for sta := 0; sta < 8; sta++ {
		if err := e.submitLocked(sta, 600, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	var sc planScratch
	tx := e.buildPlanLocked(0, &sc)
	if tx == nil {
		t.Fatal("planner produced no transmission")
	}
	plan := &tx.plan
	total := 0
	for _, sub := range plan.Subs {
		total += sub.Bytes
	}
	if total > 3000 {
		t.Errorf("aggregate carries %d bytes (parity included), cap 3000", total)
	}
	// 600B frames with 2 parity shards of 600B: 3 data + 2 parity = 3000.
	if plan.DataSubs != 3 {
		t.Errorf("DataSubs = %d, want 3 (5*600 = cap)", plan.DataSubs)
	}
}

// TestFECPlannerDrain is the engine-soak target (run with -count=5 in CI):
// a deterministic FEC run under systematic own-subframe erasure must
// recover every loss from parity — same delivered bytes as a lossless
// retry run, zero retries, zero decode failures — and drain completely.
func TestFECPlannerDrain(t *testing.T) {
	const numSTAs = 6
	flows := fecWorkload(11, numSTAs, 80*time.Millisecond)
	locs := []int{0, 1, 2, 3, 4, 5}

	ref, err := RunDeterministic(context.Background(), Config{
		NumSTAs:   numSTAs,
		Transport: &OracleTransport{Oracle: nil, Locations: locs},
	}, flows)
	if err != nil {
		t.Fatal(err)
	}

	// Odd stations always lose their own subframe off the air; everything
	// else (overheard shards, parity) arrives. One parity shard repairs a
	// single erasure, so every loss must come back without a retry.
	fecStats, err := RunDeterministic(context.Background(), Config{
		NumSTAs:   numSTAs,
		Strategy:  StrategyFEC,
		FECParity: 1,
		Transport: &CodedOracleTransport{
			OracleTransport: OracleTransport{Locations: locs},
			ErasePattern: func(seq uint64, sta, shard int, own bool) bool {
				return own && sta%2 == 1
			},
		},
	}, flows)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(fecStats.DeliveredBytesPerSTA, ref.DeliveredBytesPerSTA) {
		t.Errorf("FEC delivered bytes diverged from lossless retry run:\n fec %v\n ref %v",
			fecStats.DeliveredBytesPerSTA, ref.DeliveredBytesPerSTA)
	}
	if fecStats.Pending != 0 || fecStats.Dropped != 0 || fecStats.Expired != 0 {
		t.Errorf("FEC run left pending=%d dropped=%d expired=%d, want full drain",
			fecStats.Pending, fecStats.Dropped, fecStats.Expired)
	}
	if fecStats.Retries != 0 {
		t.Errorf("FEC run retried %d times; parity should have repaired every loss", fecStats.Retries)
	}
	if fecStats.FECRecovered == 0 {
		t.Error("FECRecovered = 0, want > 0 (odd stations lost every own subframe)")
	}
	if fecStats.FECDecodeFail != 0 {
		t.Errorf("FECDecodeFail = %d, want 0", fecStats.FECDecodeFail)
	}
	if fecStats.FECParityTx != fecStats.Transmissions {
		t.Errorf("FECParityTx = %d, want one per transmission (%d)",
			fecStats.FECParityTx, fecStats.Transmissions)
	}
}

// TestFECDecodeFailFallsBackToRetry erases every reception at one station
// so parity cannot help: its subframes must take the shared-fate retry
// path and eventually drop, with the loss booked as decode failures, while
// every other station still delivers.
func TestFECDecodeFailFallsBackToRetry(t *testing.T) {
	const numSTAs = 4
	flows := fecWorkload(13, numSTAs, 40*time.Millisecond)

	st, err := RunDeterministic(context.Background(), Config{
		NumSTAs:   numSTAs,
		Strategy:  StrategyFEC,
		FECParity: 1,
		Transport: &CodedOracleTransport{
			ErasePattern: func(seq uint64, sta, shard int, own bool) bool {
				return sta == 1 // station 1 hears nothing, ever
			},
		},
	}, flows)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pending != 0 {
		t.Errorf("run left %d frames pending", st.Pending)
	}
	if st.FECDecodeFail == 0 {
		t.Error("FECDecodeFail = 0, want > 0 (station 1 is beyond parity's reach)")
	}
	if st.Retries == 0 || st.Dropped == 0 {
		t.Errorf("retries=%d dropped=%d, want both > 0 (retry fallback then exhaustion)", st.Retries, st.Dropped)
	}
	if st.DeliveredBytesPerSTA[1] != 0 {
		t.Errorf("station 1 delivered %d bytes while hearing nothing", st.DeliveredBytesPerSTA[1])
	}
	for sta, b := range st.DeliveredBytesPerSTA {
		if sta != 1 && b == 0 {
			t.Errorf("station %d delivered nothing; only station 1 was erased", sta)
		}
	}
}

// countingFECTransport wraps an FECTransport and tallies data subframes
// that were lost on the air (no direct reception) — the raw loss the
// telescoping identity is checked against.
type countingFECTransport struct {
	inner      FECTransport
	lostDirect int64
}

func (c *countingFECTransport) Deliver(ctx context.Context, plan *Plan) ([]bool, error) {
	return c.inner.Deliver(ctx, plan)
}

func (c *countingFECTransport) DeliverFEC(ctx context.Context, plan *Plan) (FECResult, error) {
	res, err := c.inner.DeliverFEC(ctx, plan)
	if err == nil {
		for _, d := range res.Direct {
			if !d {
				c.lostDirect++
			}
		}
	}
	return res, err
}

// TestFECLossTelescopes pins the accounting identity: every data subframe
// lost on the air is booked exactly once, as either a parity recovery or
// a decode failure — engine.fec.recovered + engine.fec.decode_fail equals
// the transport's raw loss count.
func TestFECLossTelescopes(t *testing.T) {
	const numSTAs = 6
	flows := fecWorkload(17, numSTAs, 60*time.Millisecond)
	oracle, err := mac.NewFixedOracle(0.8, 99)
	if err != nil {
		t.Fatal(err)
	}
	ct := &countingFECTransport{inner: &CodedOracleTransport{
		OracleTransport: OracleTransport{Oracle: oracle},
	}}
	st, err := RunDeterministic(context.Background(), Config{
		NumSTAs:   numSTAs,
		Strategy:  StrategyFEC,
		FECParity: 2,
		Transport: ct,
	}, flows)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pending != 0 {
		t.Errorf("run left %d frames pending", st.Pending)
	}
	if ct.lostDirect == 0 {
		t.Fatal("no raw losses at 80% subframe success; test exercises nothing")
	}
	if got := st.FECRecovered + st.FECDecodeFail; got != ct.lostDirect {
		t.Errorf("recovered(%d) + decode_fail(%d) = %d, want raw lost %d",
			st.FECRecovered, st.FECDecodeFail, got, ct.lostDirect)
	}
	if st.FECRecovered == 0 {
		t.Error("FECRecovered = 0 under 20% loss with 2 parity shards")
	}
}

// TestFECGoodputCrossover sweeps the per-subframe loss rate and compares
// airtime goodput between the retry and FEC strategies under the same
// loss process (each addressed subframe lost with probability p per
// attempt). At p=0 parity is pure overhead and retry must win; past the
// redundancy fraction the retransmissions outweigh the parity airtime and
// FEC must win. The logged table is the EXPERIMENTS.md sweep.
func TestFECGoodputCrossover(t *testing.T) {
	const numSTAs = 6
	// Equal-size CBR frames keep every subframe the same width, so the
	// parity shard (sized to the largest data shard) costs its nominal
	// 1/(k+1) airtime fraction rather than tracking a fat-tailed maximum;
	// the offered rate oversubscribes the channel so aggregates run full
	// and the drain phase dominates the airtime account.
	flows := make([][]traffic.Arrival, numSTAs)
	for sta := range flows {
		rng := rand.New(rand.NewSource(sim.DeriveSeed(19, sta)))
		flows[sta] = traffic.CBRFlow(rng, 600, 600*time.Microsecond, 30*time.Millisecond)
	}
	ps := []float64{0, 0.1, 0.2, 0.3, 0.4}

	// Deterministic per-(transmission, station) Bernoulli: the FEC arm's
	// own-subframe loss, mirroring the retry arm's per-attempt oracle draw.
	lossAt := func(p float64) func(seq uint64, sta, shard int, own bool) bool {
		return func(seq uint64, sta, shard int, own bool) bool {
			if !own {
				return false
			}
			h := seq*0x9e3779b97f4a7c15 + uint64(sta)*0xbf58476d1ce4e5b9 + 0x2545f4914f6cdd1d
			h ^= h >> 33
			h *= 0xff51afd7ed558ccd
			h ^= h >> 29
			return float64(h%1_000_000)/1e6 < p
		}
	}

	type point struct{ retry, fec float64 }
	var sweep []point
	for i, p := range ps {
		oracle, err := mac.NewFixedOracle(1-p, int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		retrySt, err := RunDeterministic(context.Background(), Config{
			NumSTAs:   numSTAs,
			Transport: &OracleTransport{Oracle: oracle},
		}, flows)
		if err != nil {
			t.Fatal(err)
		}
		fecSt, err := RunDeterministic(context.Background(), Config{
			NumSTAs:   numSTAs,
			Strategy:  StrategyFEC,
			FECParity: 1,
			Transport: &CodedOracleTransport{ErasePattern: lossAt(p)},
		}, flows)
		if err != nil {
			t.Fatal(err)
		}
		sweep = append(sweep, point{retrySt.AirtimeGoodputMbps, fecSt.AirtimeGoodputMbps})
		t.Logf("p=%.2f  retry %.2f Mbit/s (retries %d, dropped %d)  fec %.2f Mbit/s (recovered %d)",
			p, retrySt.AirtimeGoodputMbps, retrySt.Retries, retrySt.Dropped,
			fecSt.AirtimeGoodputMbps, fecSt.FECRecovered)
	}

	// Crossover direction: retry wins the lossless channel, FEC wins the
	// lossy one.
	if sweep[0].retry <= sweep[0].fec {
		t.Errorf("at p=0 retry %.2f ≤ fec %.2f Mbit/s; parity overhead should cost airtime",
			sweep[0].retry, sweep[0].fec)
	}
	last := sweep[len(sweep)-1]
	if last.fec <= last.retry {
		t.Errorf("at p=%.2f fec %.2f ≤ retry %.2f Mbit/s; recovery should beat retransmission",
			ps[len(ps)-1], last.fec, last.retry)
	}
}

// codedTestPlans hand-builds coded plans of mixed geometry: 3–6 data
// subframes of unequal size (retained payloads, with every third subframe
// size-only so the filler stream is staged too) and 1–2 parity subframes
// as long as the largest.
func codedTestPlans(n int) []*Plan {
	rng := rand.New(rand.NewSource(41))
	plans := make([]*Plan, n)
	for s := range plans {
		k, m := 3+s%4, 1+s%2
		p := &Plan{Seq: uint64(s), DataSubs: k}
		maxBytes := 0
		for i := 0; i < k; i++ {
			sub := PlanSub{STA: (s + i) % 8, MCS: phy.MCS48}
			for f := 0; f <= rng.Intn(4); f++ {
				b := make([]byte, 200+rng.Intn(1100))
				rng.Read(b)
				sub.Bytes += len(b)
				if i%3 != 2 {
					sub.Payloads = append(sub.Payloads, b)
				}
			}
			maxBytes = max(maxBytes, sub.Bytes)
			p.Subs = append(p.Subs, sub)
		}
		for j := 0; j < m; j++ {
			p.Subs = append(p.Subs, PlanSub{STA: -1, MCS: phy.MCS48, Bytes: maxBytes, Parity: true})
		}
		plans[s] = p
	}
	return plans
}

// hashErase loses about one shard reception in five, from a hash of
// (transmission, station, shard).
func hashErase(seq uint64, sta, shard int, _ bool) bool {
	h := (seq+1)*0x9e3779b97f4a7c15 ^ uint64(sta+1)*0xbf58476d1ce4e5b9 ^ uint64(shard+1)*0x94d049bb133111eb
	h ^= h >> 31
	return h%5 == 0
}

// TestCodedDeliverFECConcurrent runs many goroutines through one
// transport's DeliverFEC at once (the engine's workers, exaggerated) and
// checks every plan's verdict equals the sequential pass. Each goroutine
// delivers its own copy of the plans, as each worker delivers the plan in
// its own scratch: a plan owns its verdict storage. The hooks bump plain
// counters: they are promised the transport's lock, and -race (the CI
// engine-soak leg) reports it if they lose it.
func TestCodedDeliverFECConcurrent(t *testing.T) {
	const workers, rounds, numPlans = 8, 6, 24
	ctx := context.Background()
	eraseCalls, corruptCalls := 0, 0
	tr := &CodedOracleTransport{
		Seed: 5,
		ErasePattern: func(seq uint64, sta, shard int, own bool) bool {
			eraseCalls++
			return hashErase(seq, sta, shard, own)
		},
		CorruptParity: func([][]byte) { corruptCalls++ },
	}
	want := make([]FECResult, numPlans)
	recovered := 0
	for i, p := range codedTestPlans(numPlans) {
		res, err := tr.DeliverFEC(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res // p is delivered once, so its verdicts stay put
		for _, r := range res.Recovered {
			if r {
				recovered++
			}
		}
	}
	if recovered == 0 {
		t.Fatal("sequential pass recovered nothing; the test exercises no rebuild")
	}
	seqErase := eraseCalls

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			plans := codedTestPlans(numPlans)
			for r := 0; r < rounds; r++ {
				for n := range plans {
					i := (n + w*5) % len(plans) // each worker starts elsewhere
					got, err := tr.DeliverFEC(ctx, plans[i])
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(got, want[i]) {
						t.Errorf("plan %d: concurrent verdict %+v, sequential %+v", i, got, want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if n := 1 + workers*rounds; eraseCalls != n*seqErase || corruptCalls != n*numPlans {
		t.Errorf("hooks ran %d / %d times, want %d / %d: an update was lost outside the lock",
			eraseCalls, corruptCalls, n*seqErase, n*numPlans)
	}
}

// TestCodedDeliverFECSteadyStateAllocs pins the staging contract: once the
// pooled working set has seen a geometry and the plan has grown its verdict
// buffer, a delivery — payload copies, parity, rebuilds, result slices and
// all — allocates nothing.
func TestCodedDeliverFECSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	plans := codedTestPlans(8)
	ctx := context.Background()
	tr := &CodedOracleTransport{Seed: 5, ErasePattern: hashErase}
	deliverAll := func() {
		for _, p := range plans {
			if _, err := tr.DeliverFEC(ctx, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	deliverAll() // warm the working set: slab, coders, slices
	if avg := testing.AllocsPerRun(50, deliverAll); avg != 0 {
		t.Errorf("DeliverFEC allocates %.2f per delivery, want 0", avg/float64(len(plans)))
	}
}

// TestOracleDeliverSteadyStateAllocs pins the same for the plain path: a
// reused plan hands Deliver its verdict slice, so nothing is allocated.
func TestOracleDeliverSteadyStateAllocs(t *testing.T) {
	plan := codedTestPlans(1)[0]
	ctx := context.Background()
	lossy, err := mac.NewFixedOracle(0.7, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*OracleTransport{{}, {Oracle: lossy}} {
		deliver := func() {
			ok, err := tr.Deliver(ctx, plan)
			if err != nil || len(ok) != len(plan.Subs) {
				t.Fatalf("Deliver = %v, %v", ok, err)
			}
		}
		deliver() // the plan grows its verdict buffer once
		if avg := testing.AllocsPerRun(100, deliver); avg != 0 {
			t.Errorf("oracle %v: Deliver allocates %.2f on a reused plan, want 0", tr.Oracle, avg)
		}
	}
}
