package phy

import (
	"fmt"

	"carpool/internal/fec"
)

// SoftQDecoder bundles the quantized soft Viterbi decoder with the
// deinterleave and info-bit workspaces the DATA-field decode needs, so a
// reused instance (one per worker goroutine, or a sync.Pool entry) decodes
// frames with no steady-state allocations beyond the returned payload. The
// zero value is ready to use. Not safe for concurrent use.
type SoftQDecoder struct {
	dec  fec.SoftDecoder
	llrs []int8
	info []byte
}

// DecodeDataField is the quantized counterpart of DecodeDataFieldSoft: it
// consumes per-symbol int8 LLR blocks (interleaved order, the
// modem.DemapSoftQ convention) and decodes with the integer fast-path
// Viterbi. It decodes the same path as the float64 chain on inputs that
// quantize without saturation; the float64 chain remains available as the
// reference oracle (RxConfig.SoftFloat64).
func (d *SoftQDecoder) DecodeDataField(llrqBlocks [][]int8, mcs MCS, payloadLen int) ([]byte, error) {
	if !mcs.Valid() {
		return nil, fmt.Errorf("phy: invalid MCS %v", mcs)
	}
	if payloadLen <= 0 {
		return nil, fmt.Errorf("phy: non-positive payload length %d", payloadLen)
	}
	nsym := mcs.NumSymbols(payloadLen)
	if len(llrqBlocks) < nsym {
		return nil, fmt.Errorf("phy: %d LLR blocks, need %d for %d bytes", len(llrqBlocks), nsym, payloadLen)
	}
	ncbps := mcs.CodedBitsPerSymbol()
	il, err := fec.CachedInterleaver(ncbps, mcs.Mod.BitsPerSymbol())
	if err != nil {
		return nil, err
	}
	if cap(d.llrs) < nsym*ncbps {
		d.llrs = make([]int8, nsym*ncbps)
	}
	llrs := d.llrs[:nsym*ncbps]
	for i := 0; i < nsym; i++ {
		if err := il.DeinterleaveLLRInto(llrs[i*ncbps:(i+1)*ncbps], llrqBlocks[i]); err != nil {
			return nil, err
		}
	}
	return d.finishDataField(llrs, nsym, mcs, payloadLen)
}

// finishDataField Viterbi-decodes one subframe's already-deinterleaved
// flat LLR lanes, descrambles, and extracts the payload bytes.
func (d *SoftQDecoder) finishDataField(llrs []int8, nsym int, mcs MCS, payloadLen int) ([]byte, error) {
	numInfo := nsym * mcs.DataBitsPerSymbol()
	if cap(d.info) < numInfo {
		d.info = make([]byte, numInfo)
	}
	info := d.info[:numInfo]
	if err := d.dec.DecodeInto(info, llrs, mcs.Rate, numInfo); err != nil {
		return nil, err
	}
	descrambler := fec.ScramblerFromOutputs(info[:7])
	descrambler.Apply(info[7:])
	payloadBits := info[serviceBits : serviceBits+8*payloadLen]
	return BitsToBytes(payloadBits), nil
}

// SoftQBatchJob is one subframe in a batched DATA-field decode: the
// per-symbol interleaved int8 LLR blocks (Segment.LLRQs), the subframe's
// MCS and announced payload length, and the Payload output slot.
type SoftQBatchJob struct {
	Blocks     [][]int8
	MCS        MCS
	PayloadLen int
	// Payload receives the decoded payload bytes.
	Payload []byte
}

// DecodeDataFieldBatch decodes K subframes' DATA fields through one
// workspace: every subframe's deinterleaved LLR lanes are laid back to
// back in a single contiguous slab, and the reused SWAR Viterbi walks
// them in sequence — one deinterleave pass and zero steady-state
// allocations beyond the returned payloads, with no per-subframe decoder
// churn. Outputs are bit-identical to calling DecodeDataField once per
// subframe. On error the failing job's index is returned (earlier jobs
// keep their decoded payloads); on success the index is -1.
func (d *SoftQDecoder) DecodeDataFieldBatch(jobs []SoftQBatchJob) (int, error) {
	// Pass 1: validate and lay out each subframe's lane range in the slab.
	total := 0
	for i := range jobs {
		job := &jobs[i]
		if !job.MCS.Valid() {
			return i, fmt.Errorf("phy: invalid MCS %v", job.MCS)
		}
		if job.PayloadLen <= 0 {
			return i, fmt.Errorf("phy: non-positive payload length %d", job.PayloadLen)
		}
		nsym := job.MCS.NumSymbols(job.PayloadLen)
		if len(job.Blocks) < nsym {
			return i, fmt.Errorf("phy: %d LLR blocks, need %d for %d bytes",
				len(job.Blocks), nsym, job.PayloadLen)
		}
		total += nsym * job.MCS.CodedBitsPerSymbol()
	}
	if cap(d.llrs) < total {
		d.llrs = make([]int8, total)
	}
	slab := d.llrs[:total]

	// Pass 2: deinterleave every subframe into its contiguous lanes, then
	// decode each range in place.
	off := 0
	for i := range jobs {
		job := &jobs[i]
		nsym := job.MCS.NumSymbols(job.PayloadLen)
		ncbps := job.MCS.CodedBitsPerSymbol()
		il, err := fec.CachedInterleaver(ncbps, job.MCS.Mod.BitsPerSymbol())
		if err != nil {
			return i, err
		}
		lanes := slab[off : off+nsym*ncbps]
		for s := 0; s < nsym; s++ {
			if err := il.DeinterleaveLLRInto(lanes[s*ncbps:(s+1)*ncbps], job.Blocks[s]); err != nil {
				return i, err
			}
		}
		payload, err := d.finishDataField(lanes, nsym, job.MCS, job.PayloadLen)
		if err != nil {
			return i, err
		}
		job.Payload = payload
		off += nsym * ncbps
	}
	return -1, nil
}

// DecodeDataFieldSoftQ decodes quantized LLR blocks with a throwaway
// workspace; hot paths should hold a SoftQDecoder and call its method.
func DecodeDataFieldSoftQ(llrqBlocks [][]int8, mcs MCS, payloadLen int) ([]byte, error) {
	var d SoftQDecoder
	return d.DecodeDataField(llrqBlocks, mcs, payloadLen)
}
