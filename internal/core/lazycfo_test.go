package core

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"carpool/internal/bloom"
	"carpool/internal/faults"
	"carpool/internal/ofdm"
	"carpool/internal/phy"
)

// eightByThreeHundred is the frame the serving stack's PHY workload sends:
// eight receivers, 300 bytes each, MCS48.
func eightByThreeHundred(t *testing.T, rng *rand.Rand) *Frame {
	t.Helper()
	subs := make([]Subframe, bloom.MaxReceivers)
	for i := range subs {
		subs[i] = Subframe{Receiver: mac(byte(i + 1)), MCS: phy.MCS48, Payload: randomPayload(rng, 300)}
	}
	frame, err := BuildFrame(subs, FrameConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestReceiveFrameLazyCFOMatchesEager pins the derotate-what-is-read
// contract: under a carrier offset, ReceiveFrame — which corrects each
// symbol as it loads it — returns field for field what the same walk
// returns over phy.Sync's buffer, corrected whole up front. Every slot, the
// DecodeAll mode, hard and soft FEC, and a cut in the middle of a DATA
// field (the same typed truncation error) are covered.
func TestReceiveFrameLazyCFOMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	frame := eightByThreeHundred(t, rng)
	sc := faults.Scenario{Seed: 5, Impairments: []faults.Impairment{
		faults.CFO{EpsRad: 0.0021, Phase0: 0.4}, faults.AWGN{SNRdB: 32},
	}}
	rx := sc.Apply(append([]complex128(nil), frame.Samples...))
	last := frame.Subframes[len(frame.Subframes)-1]
	cut := ofdm.PreambleLen + (last.StartSymbol+3)*ofdm.SymbolLen + ofdm.SymbolLen/2

	compare := func(name string, rx []complex128, cfg ReceiverConfig) *FrameRx {
		t.Helper()
		buf, h, cfo, status := phy.Sync(rx, cfg.KnownStart)
		if status != phy.StatusOK || cfo == 0 {
			t.Fatalf("%s: sync status %v, cfo %v: the test needs a carrier offset to correct", name, status, cfo)
		}
		want, wantErr := receiveSynced(phy.Synced{Samples: buf}, h, cfg, &FrameRx{Status: status, CFORad: cfo})
		got, gotErr := ReceiveFrame(rx, cfg)
		if !reflect.DeepEqual(gotErr, wantErr) {
			t.Fatalf("%s: lazy error %v, eager error %v", name, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: lazily corrected reception differs from the eagerly corrected one", name)
		}
		return got
	}

	for slot := range frame.Subframes {
		for _, soft := range []bool{false, true} {
			cfg := ReceiverConfig{MAC: mac(byte(slot + 1)), UseRTE: true, KnownStart: 0, SoftFEC: soft}
			res := compare("own slot", rx, cfg)
			if res.Status != phy.StatusOK || len(res.Subframes) == 0 {
				t.Fatalf("slot %d soft=%v: status %v, %d subframes", slot+1, soft, res.Status, len(res.Subframes))
			}
		}
	}
	all := ReceiverConfig{MAC: mac(3), UseRTE: true, KnownStart: 0, SoftFEC: true, DecodeAll: true}
	if res := compare("decode all", rx, all); len(res.Subframes) != len(frame.Subframes) {
		t.Fatalf("DecodeAll decoded %d of %d subframes", len(res.Subframes), len(frame.Subframes))
	}
	for _, procs := range []int{1, 4} { // the batched single-proc path and the parallel one
		prev := runtime.GOMAXPROCS(procs)
		compare("decode all, truncated", rx[:cut], all)
		res := compare("last slot, truncated", rx[:cut], ReceiverConfig{MAC: mac(8), UseRTE: true, SoftFEC: true})
		runtime.GOMAXPROCS(prev)
		if res.Status != phy.StatusTruncated {
			t.Fatalf("procs=%d: cut frame status %v, want truncated", procs, res.Status)
		}
	}
	_, err := ReceiveFrame(rx[:cut], ReceiverConfig{MAC: mac(8), UseRTE: true, SoftFEC: true})
	var te *ErrTruncatedSubframe
	if !errors.As(err, &te) || te.Position != len(frame.Subframes) || te.Symbol != last.StartSymbol+3 {
		t.Fatalf("cut frame error %v, want truncation of subframe %d at symbol %d",
			err, len(frame.Subframes), last.StartSymbol+3)
	}
}

// TestReceiveFrameCarriesNoFrameCopy pins what a reception allocates: the
// last station of the eight-receiver frame used to pay 199 KB a call, 151 KB
// of it a corrected copy of the whole frame. Without the copy it stays
// under 60 KB.
func TestReceiveFrameCarriesNoFrameCopy(t *testing.T) {
	frame := eightByThreeHundred(t, rand.New(rand.NewSource(1)))
	cfg := ReceiverConfig{MAC: mac(bloom.MaxReceivers), UseRTE: true, KnownStart: 0, SoftFEC: true}
	receive := func() {
		res, err := ReceiveFrame(frame.Samples, cfg)
		if err != nil || len(res.Subframes) != 1 {
			t.Fatalf("reception failed: %v", err)
		}
	}
	receive() // fill the decoder pool
	const calls = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		receive()
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	if perCall > 60<<10 {
		t.Errorf("ReceiveFrame allocates %d B a call (the frame is %d B), want under 60 KB",
			perCall, len(frame.Samples)*16)
	}
}
