package core

import (
	"fmt"

	"carpool/internal/bloom"
	"carpool/internal/ofdm"
	"carpool/internal/phy"
	"carpool/internal/sidechannel"
)

// Subframe is one receiver's share of a Carpool frame: its own SIG
// (modulation/coding + length) followed by its MAC data. Different
// subframes may use different MCSs (paper §4.1).
type Subframe struct {
	Receiver bloom.MAC
	MCS      phy.MCS
	Payload  []byte
}

// FrameConfig controls Carpool frame construction.
type FrameConfig struct {
	// Hashes is the Bloom hash-set size; zero selects bloom.DefaultHashes.
	Hashes int
	// SideChannel carries the symbol-level CRCs; the zero value selects
	// sidechannel.DefaultScheme(). Set Disable to transmit without it
	// (the MU-Aggregation baseline).
	SideChannel sidechannel.Scheme
	// DisableSideChannel turns the phase-offset side channel off.
	DisableSideChannel bool
	// ScramblerSeed is the 7-bit scrambler initial state per subframe.
	ScramblerSeed byte
}

func (c FrameConfig) hashes() int {
	if c.Hashes == 0 {
		return bloom.DefaultHashes
	}
	return c.Hashes
}

func (c FrameConfig) scheme() *sidechannel.Scheme {
	if c.DisableSideChannel {
		return nil
	}
	s := c.SideChannel
	if s == (sidechannel.Scheme{}) {
		s = sidechannel.DefaultScheme()
	}
	return &s
}

// SubframeTx records one subframe's ground truth inside a built frame.
type SubframeTx struct {
	Subframe
	SIG phy.SIG
	// StartSymbol is the absolute OFDM symbol index of the subframe's SIG;
	// the A-HDR occupies indices 0 and 1.
	StartSymbol int
	// Blocks are the interleaved coded bits per DATA symbol.
	Blocks [][]byte
	// SideBits per DATA symbol (nil when the side channel is off).
	SideBits [][]byte
}

// Frame is a built Carpool frame ready for the air.
type Frame struct {
	Samples   []complex128
	Filter    bloom.Filter
	Hashes    int
	Subframes []SubframeTx
}

// NumSymbols returns the frame length in OFDM symbols (A-HDR + subframes).
func (f *Frame) NumSymbols() int {
	return (len(f.Samples) - ofdm.PreambleLen) / ofdm.SymbolLen
}

// AirtimeSeconds returns the frame duration on the air.
func (f *Frame) AirtimeSeconds() float64 {
	return float64(len(f.Samples)) / ofdm.SampleRate
}

// BuildFrame aggregates subframes for up to bloom.MaxReceivers stations
// into one Carpool frame: preamble, two-symbol A-HDR, then each subframe's
// SIG and DATA symbols. Each subframe restarts the side-channel encoder so
// a receiver that skips ahead can use its own SIG symbol as the
// differential phase reference.
func BuildFrame(subframes []Subframe, cfg FrameConfig) (*Frame, error) {
	if len(subframes) == 0 {
		return nil, fmt.Errorf("core: no subframes")
	}
	if len(subframes) > bloom.MaxReceivers {
		return nil, fmt.Errorf("core: %d subframes exceeds limit %d", len(subframes), bloom.MaxReceivers)
	}
	receivers := make([]bloom.MAC, len(subframes))
	for i, sf := range subframes {
		if !sf.MCS.Valid() {
			return nil, fmt.Errorf("core: subframe %d has invalid MCS", i)
		}
		if len(sf.Payload) == 0 {
			return nil, fmt.Errorf("core: subframe %d has empty payload", i)
		}
		receivers[i] = sf.Receiver
	}
	filter, err := bloom.Build(receivers, cfg.hashes())
	if err != nil {
		return nil, err
	}

	// The length is known before the first sample: size Samples once.
	symbols := AHDRSymbols
	for _, sf := range subframes {
		symbols += 1 + sf.MCS.NumSymbols(len(sf.Payload))
	}
	frame := &Frame{
		Filter: filter, Hashes: cfg.hashes(),
		Samples:   make([]complex128, 0, ofdm.PreambleLen+symbols*ofdm.SymbolLen),
		Subframes: make([]SubframeTx, 0, len(subframes)),
	}
	frame.Samples = append(frame.Samples, ofdm.GeneratePreamble()...)
	ahdr, err := BuildAHDR(filter)
	if err != nil {
		return nil, err
	}
	frame.Samples = append(frame.Samples, ahdr...)

	scheme := cfg.scheme()
	symIdx := AHDRSymbols
	for _, sf := range subframes {
		tx := SubframeTx{
			Subframe:    sf,
			SIG:         phy.SIG{MCS: sf.MCS, Length: len(sf.Payload)},
			StartSymbol: symIdx,
		}
		sigSym, err := phy.BuildSIGSymbol(tx.SIG, symIdx)
		if err != nil {
			return nil, err
		}
		frame.Samples = append(frame.Samples, sigSym...)
		symIdx++

		tx.Blocks, err = phy.EncodeDataField(sf.Payload, sf.MCS, cfg.ScramblerSeed)
		if err != nil {
			return nil, err
		}
		at := len(frame.Samples)
		frame.Samples = frame.Samples[:at+len(tx.Blocks)*ofdm.SymbolLen]
		tx.SideBits, err = phy.BuildDataSymbolsInto(frame.Samples[at:], tx.Blocks, sf.MCS.Mod, symIdx, scheme)
		if err != nil {
			return nil, err
		}
		symIdx += len(tx.Blocks)
		frame.Subframes = append(frame.Subframes, tx)
	}
	return frame, nil
}
