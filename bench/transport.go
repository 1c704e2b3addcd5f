package main

import (
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"carpool/internal/engine"
)

// benchTransport is the benchmark's window into the engine: it delegates
// every delivery to the workload's real transport and observes the call
// from outside. Untraced it reads payload stamps when a ledger is
// installed (paced_open's exact latency) and otherwise only forwards;
// traced it also records one span per delivery. Nothing inside
// internal/engine knows it exists.
type benchTransport struct {
	inner engine.Transport
	fec   engine.FECTransport // inner's erasure face; nil when it has none

	epoch   time.Time   // span timestamps count from here
	tracing atomic.Bool // spans are recorded only while set
	stamped atomic.Bool // a ledger is installed

	mu     sync.Mutex
	ledger *stampLedger
	lanes  []*lane
}

// span is one Deliver call as seen from outside the engine.
type span struct {
	seq        uint64
	start, end int64 // ns since benchTransport.epoch
	subs       int32 // receivers addressed (parity subframes excluded)
	bytes      int32 // payload bytes aboard
	ok         int32 // subframes delivered (direct or recovered)
}

// lane is the span list of one engine worker. A worker hands Deliver the
// plan that lives in its own scratch, so the plan's address names the
// worker without asking the engine.
type lane struct {
	plan  *engine.Plan
	spans []span
}

// maxLanes bounds the plan addresses treated as workers. An engine that
// allocated a fresh plan per delivery would otherwise grow the lane list
// without end; past the bound every span lands in the last lane and the
// per-worker gap is no longer meaningful (reported as zero).
const maxLanes = 16

func newBenchTransport(inner engine.Transport) *benchTransport {
	t := &benchTransport{inner: inner, epoch: time.Now()}
	t.fec, _ = inner.(engine.FECTransport)
	return t
}

// Deliver forwards one retry-mode plan.
func (t *benchTransport) Deliver(ctx context.Context, plan *engine.Plan) ([]bool, error) {
	traced := t.tracing.Load()
	var start time.Duration
	if traced {
		start = time.Since(t.epoch)
	}
	ok, err := t.inner.Deliver(ctx, plan)
	t.observe(plan, ok, nil, traced, start)
	return ok, err
}

var errNoFEC = errors.New("bench: wrapped transport has no DeliverFEC")

// DeliverFEC forwards one erasure-coded plan. The engine calls it only
// under StrategyFEC, whose config check already required the wrapped
// transport to be FEC-capable.
func (t *benchTransport) DeliverFEC(ctx context.Context, plan *engine.Plan) (engine.FECResult, error) {
	if t.fec == nil {
		return engine.FECResult{}, errNoFEC
	}
	traced := t.tracing.Load()
	var start time.Duration
	if traced {
		start = time.Since(t.epoch)
	}
	res, err := t.fec.DeliverFEC(ctx, plan)
	t.observe(plan, res.Direct, res.Recovered, traced, start)
	return res, err
}

// observe runs at delivery return: stamps first (they need the return
// time), then the span.
func (t *benchTransport) observe(plan *engine.Plan, ok, recovered []bool, traced bool, start time.Duration) {
	if !traced && !t.stamped.Load() {
		return // the saturating timed runs: forward and nothing else
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ledger != nil {
		t.ledger.settle(plan, ok)
	}
	if !traced {
		return
	}
	data := plan.DataSubs
	if data == 0 {
		data = len(plan.Subs)
	}
	sp := span{seq: plan.Seq, start: int64(start), end: int64(time.Since(t.epoch)), subs: int32(data)}
	for i := 0; i < data; i++ {
		sp.bytes += int32(plan.Subs[i].Bytes)
		if (i < len(ok) && ok[i]) || (i < len(recovered) && recovered[i]) {
			sp.ok++
		}
	}
	ln := t.laneFor(plan)
	ln.spans = append(ln.spans, sp)
}

func (t *benchTransport) laneFor(plan *engine.Plan) *lane {
	for _, ln := range t.lanes {
		if ln.plan == plan {
			return ln
		}
	}
	if len(t.lanes) == maxLanes {
		return t.lanes[maxLanes-1]
	}
	ln := &lane{plan: plan, spans: make([]span, 0, 1<<16)}
	t.lanes = append(t.lanes, ln)
	return ln
}

// setLedger installs (or with nil removes) the stamp ledger deliveries
// settle against.
func (t *benchTransport) setLedger(l *stampLedger) {
	t.mu.Lock()
	t.ledger = l
	t.stamped.Store(l != nil)
	t.mu.Unlock()
}

// takeSpans returns every lane's spans recorded so far and forgets them.
func (t *benchTransport) takeSpans() [][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([][]span, len(t.lanes))
	for i, ln := range t.lanes {
		out[i] = ln.spans
		ln.spans = nil
	}
	return out
}

// stampLen is the payload prefix an open-loop frame carries: the phase it
// belongs to and its ordinal in that phase's schedule.
const stampLen = 8

func putStamp(p []byte, phase, ordinal int) {
	binary.BigEndian.PutUint64(p, uint64(phase)<<48|uint64(ordinal))
}

// stampLedger turns payload stamps into exact per-frame latency without
// touching the engine: when a delivery returns, every delivered frame's
// settle time is that instant plus the plan's air occupancy (the hold a
// pacing worker still owes before it accounts the outcome), and its due
// time is looked up by ordinal.
type stampLedger struct {
	phase int
	base  time.Time
	due   []time.Duration // by ordinal, since base

	// lat is settle − due per ordinal; unsettled marks a frame no delivery
	// has reported yet. Guarded by benchTransport.mu.
	lat     []time.Duration
	twice   int64 // stamps reported delivered more than once
	foreign int64 // stamps from another phase or outside the schedule
}

const unsettled = time.Duration(-1 << 62)

func newStampLedger(phase int, base time.Time, due []time.Duration) *stampLedger {
	l := &stampLedger{phase: phase, base: base, due: due, lat: make([]time.Duration, len(due))}
	for i := range l.lat {
		l.lat[i] = unsettled
	}
	return l
}

func (l *stampLedger) settle(plan *engine.Plan, ok []bool) {
	at := time.Since(l.base) + plan.Airtime + plan.ACKTime
	for i := range plan.Subs {
		if i >= len(ok) || !ok[i] {
			continue
		}
		for _, p := range plan.Subs[i].Payloads {
			if len(p) < stampLen {
				l.foreign++
				continue
			}
			v := binary.BigEndian.Uint64(p)
			ord := int(v & (1<<48 - 1))
			if int(v>>48) != l.phase || ord >= len(l.due) {
				l.foreign++
				continue
			}
			if l.lat[ord] != unsettled {
				l.twice++
				continue
			}
			l.lat[ord] = at - l.due[ord]
		}
	}
}

// eraseShard is fec_payload_sat's loss model: each shard reception is
// erased with probability 0.10, decided by a hash of (transmission,
// station, shard) so the pattern needs no shared state and does not
// depend on which worker delivers. A dead station (carpoold -dead-locs)
// would not do: it overhears nothing, so parity can never help it.
func eraseShard(seq uint64, sta, shard int, _ bool) bool {
	x := seq*0x9e3779b97f4a7c15 ^ uint64(sta+1)*0xbf58476d1ce4e5b9 ^ uint64(shard+1)*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x>>32 < eraseThreshold
}

// eraseThreshold is 0.10 of the 32-bit range eraseShard compares against.
const eraseThreshold = 1 << 32 / 10
