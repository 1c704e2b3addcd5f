// Package engine is the real-time AP downlink aggregation engine: the
// serving-path counterpart of the discrete-event simulator in
// internal/mac. It ingests frames destined to many stations through an
// in-process API (or the length-prefixed wire frontend in cmd/carpoold),
// holds per-STA bounded queues with admission control and backpressure,
// and runs an aggregation scheduler that groups queued frames into
// Carpool transmissions — respecting the 48-bit coded-Bloom A-HDR
// receiver capacity, per-STA MCS, the aggregate byte ceiling, and an
// airtime budget — then drives delivery on a worker pool: either a
// mac.DeliveryOracle (the fast path) or the full TX→channel→RX PHY
// pipeline (internal/core, internal/phy). Failed subframes retry with
// per-STA capped exponential backoff and sequential-ACK bookkeeping.
//
// Admission is sharded (DESIGN.md §14): stations hash across
// Config.AdmissionShards independent lanes, each with its own lock,
// payload-arena lease, and admission sequence, so parallel submitters
// stop convoying on a single engine mutex. Workers drain the lanes with
// a rotating scan over a per-shard dirty bitmap; a STA maps to exactly
// one shard, so per-STA FIFO and retry-requeue-at-head are unchanged.
//
// Two execution modes share every line of scheduling, retry, and
// accounting code: the concurrent real-time mode (Start/Submit/Drain) and
// a single-threaded deterministic mode (RunDeterministic) with an
// injected virtual clock, whose delivered-bytes and fairness results are
// differentially compared against the internal/mac oracle by
// internal/conform's engine-vs-macsim pair.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"carpool/internal/bloom"
	"carpool/internal/mac"
	"carpool/internal/obs"
	"carpool/internal/phy"
)

// Typed admission-control errors returned by Submit.
var (
	// ErrQueueFull signals backpressure: the station's bounded queue is at
	// capacity and the frame was rejected.
	ErrQueueFull = errors.New("engine: station queue full")
	// ErrDraining rejects new work once a graceful drain has begun.
	ErrDraining = errors.New("engine: draining")
	// ErrClosed rejects work after the engine has stopped.
	ErrClosed = errors.New("engine: closed")
	// ErrOversize rejects frames larger than the aggregate byte ceiling,
	// which could never be scheduled.
	ErrOversize = errors.New("engine: frame exceeds MaxAggBytes")
)

// Strategy selects the engine's loss-repair discipline.
type Strategy int

const (
	// StrategyRetry is the paper's shared-fate ARQ: a failed subframe's
	// frames requeue at the head and retransmit under capped exponential
	// backoff. The default.
	StrategyRetry Strategy = iota
	// StrategyFEC codes across the subframes of each aggregate: the
	// planner appends FECParity erasure-coded parity subframes (XOR for
	// one, Reed-Solomon over GF(256) beyond), and a receiver that loses
	// its own subframe rebuilds it from the shards it overheard — no
	// retransmission. Loss beyond parity's reach falls back to the
	// shared-fate retry path, so the two strategies degrade into each
	// other rather than diverge.
	StrategyFEC
)

// Config parameterizes an engine.
type Config struct {
	// NumSTAs is the number of stations the engine serves.
	NumSTAs int
	// QueueCap bounds each station's queue in frames (default 300, the
	// simulator's default): the admission threshold past which Submit
	// returns ErrQueueFull.
	QueueCap int
	// MaxReceivers caps distinct destinations per transmission; bounded
	// by the 48-bit coded-Bloom A-HDR capacity (default and ceiling:
	// bloom.MaxReceivers).
	MaxReceivers int
	// MaxAggBytes caps one aggregate's total payload (default 64 KiB).
	MaxAggBytes int
	// AirtimeBudget caps one transmission's data airtime; zero is
	// unlimited. A plan always admits at least one frame for progress.
	AirtimeBudget time.Duration
	// MaxLatency, when nonzero, expires queued frames that waited longer.
	MaxLatency time.Duration
	// RetryLimit per frame (default 7, the 802.11 long retry limit).
	RetryLimit int
	// BackoffBase and BackoffCap shape the per-STA capped exponential
	// retry backoff: after k consecutive failed transmissions a station
	// is ineligible for min(BackoffBase<<(k-1), BackoffCap). Defaults
	// 100µs and 10ms.
	BackoffBase, BackoffCap time.Duration
	// Strategy selects the loss-repair discipline (StrategyRetry default).
	Strategy Strategy
	// FECParity is the number of parity subframes appended to each
	// aggregate under StrategyFEC (default 1: plain XOR parity; more
	// selects Reed-Solomon). Parity slots count against the A-HDR
	// receiver capacity, so FECParity must leave room for at least one
	// data subframe under MaxReceivers. Setting it without StrategyFEC
	// is a configuration error.
	FECParity int
	// MCS is each station's modulation-and-coding scheme; nil selects
	// phy.MCS48 for all, a short slice extends with its last entry.
	MCS []phy.MCS
	// Transport delivers planned aggregates; nil selects a lossless
	// OracleTransport.
	Transport Transport
	// Workers sizes the delivery worker pool (default GOMAXPROCS-style 1
	// minimum; deterministic mode always uses a single thread).
	Workers int
	// AdmissionShards sets the number of independent admission lanes
	// stations hash across (sta % P): each lane has its own lock, payload
	// arena, and admission sequence, so parallel submitters to different
	// lanes never contend. Zero selects min(GOMAXPROCS, NumSTAs/4) — the
	// planner aggregates within a lane, so the default keeps at least
	// four stations per lane and cross-STA carpooling intact; an explicit
	// value is clamped to NumSTAs only. One shard reproduces the
	// pre-shard engine exactly — the deterministic runners force it, and
	// the sharded-vs-unsharded conformance pair holds single-shard Stats
	// byte-identical while requiring multi-shard runs to match on per-STA
	// delivered bytes and fairness. Cross-STA global FIFO is per-lane
	// when P > 1 (per-STA FIFO is exact at any P, since a STA maps to
	// exactly one lane).
	AdmissionShards int
	// RetainPayloads keeps submitted frame bytes in the queue so the
	// transport can put the real payload on the air (PHY transport).
	// Off, the engine accounts sizes only — the fast serving path.
	RetainPayloads bool
	// PaceAirtime makes workers hold each plan for its computed air
	// occupancy (airtime + sequential ACKs), approximating channel
	// pacing in real time. Off, the engine runs as fast as hardware
	// allows.
	PaceAirtime bool
	// Clock overrides the time source (tests); nil selects a monotonic
	// wall clock anchored at New.
	Clock Clock
	// Obs receives engine metrics; nil falls back to the globally
	// enabled sink at New time.
	Obs *obs.Sink
	// SampleEvery enables deterministic 1-in-N frame-lifecycle tracing:
	// every Nth admitted frame (by per-shard admission sequence) carries
	// stage timestamps through admit → plan → TX attempts → terminal
	// disposition, feeding the engine.stage.* histograms, StageStats,
	// and Chrome trace spans. Zero (the default) disables sampling; the
	// disabled path adds no clock reads, allocations, or obs traffic to
	// the serving hot path, and sampling never changes Stats (asserted
	// bit-identical by the batched-vs-unbatched conform pair).
	SampleEvery int
}

func (c Config) withDefaults() (Config, error) {
	if c.NumSTAs < 1 {
		return c, fmt.Errorf("engine: need at least one STA, got %d", c.NumSTAs)
	}
	if c.QueueCap == 0 {
		c.QueueCap = 300
	}
	if c.QueueCap < 1 {
		return c, fmt.Errorf("engine: non-positive QueueCap %d", c.QueueCap)
	}
	if c.MaxReceivers == 0 {
		c.MaxReceivers = bloom.MaxReceivers
	}
	if c.MaxReceivers < 1 || c.MaxReceivers > bloom.MaxReceivers {
		return c, fmt.Errorf("engine: MaxReceivers %d outside 1..%d (A-HDR capacity)",
			c.MaxReceivers, bloom.MaxReceivers)
	}
	if c.MaxAggBytes == 0 {
		c.MaxAggBytes = 64 << 10
	}
	switch c.Strategy {
	case StrategyRetry:
		if c.FECParity != 0 {
			return c, fmt.Errorf("engine: FECParity %d set without StrategyFEC", c.FECParity)
		}
	case StrategyFEC:
		if c.FECParity == 0 {
			c.FECParity = 1
		}
		if c.FECParity < 0 || c.FECParity >= c.MaxReceivers {
			return c, fmt.Errorf("engine: FECParity %d must leave a data slot under MaxReceivers %d",
				c.FECParity, c.MaxReceivers)
		}
	default:
		return c, fmt.Errorf("engine: unknown strategy %d", c.Strategy)
	}
	if c.RetryLimit == 0 {
		c.RetryLimit = mac.DefaultRetryLimit
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Microsecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 10 * time.Millisecond
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.AdmissionShards < 0 {
		return c, fmt.Errorf("engine: negative AdmissionShards %d", c.AdmissionShards)
	}
	if c.AdmissionShards == 0 {
		// Keep at least four stations per lane: plans are built per lane,
		// so oversharding a small station set would strip the cross-STA
		// aggregation the whole system exists to exploit.
		c.AdmissionShards = min(runtime.GOMAXPROCS(0), max(1, c.NumSTAs/4))
	}
	if c.AdmissionShards > c.NumSTAs {
		c.AdmissionShards = c.NumSTAs
	}
	if c.SampleEvery < 0 {
		return c, fmt.Errorf("engine: negative SampleEvery %d", c.SampleEvery)
	}
	mcs := make([]phy.MCS, c.NumSTAs)
	for i := range mcs {
		switch {
		case i < len(c.MCS):
			mcs[i] = c.MCS[i]
		case len(c.MCS) > 0:
			mcs[i] = c.MCS[len(c.MCS)-1]
		default:
			mcs[i] = phy.MCS48
		}
		if !mcs[i].Valid() {
			return c, fmt.Errorf("engine: invalid MCS for STA %d", i)
		}
	}
	c.MCS = mcs
	if c.Transport == nil {
		if c.Strategy == StrategyFEC {
			c.Transport = &CodedOracleTransport{}
		} else {
			c.Transport = &OracleTransport{}
		}
	}
	if c.Strategy == StrategyFEC {
		if _, ok := c.Transport.(FECTransport); !ok {
			return c, fmt.Errorf("engine: StrategyFEC needs an FEC-capable transport, %T has no DeliverFEC", c.Transport)
		}
	}
	return c, nil
}

// Engine is a running (or deterministically stepped) AP downlink engine.
type Engine struct {
	cfg   Config
	rates mac.Rates

	// mu guards only the worker-park machinery (cond, waiting, wakeups),
	// the start latch, and the deterministic rotation cursor — admission
	// state lives under the per-shard locks. Lock order: a shard lock may
	// be held when taking e.mu (markDirty's wake path); never the
	// reverse.
	mu      sync.Mutex
	cond    *sync.Cond
	waiting int
	wakeups int64
	started bool

	// shards are the admission lanes; dirty is the per-shard "has work"
	// bitmap workers scan (one bit per shard).
	shards []shard
	dirty  []atomic.Uint64

	// STA-indexed state, global for O(1) addressing; entry sta is guarded
	// by shard sta%P's lock.
	queues         []staQueue
	deliveredBytes []int64
	offered        []bool
	// inflightSTA counts each station's frames currently riding an
	// in-flight transmission (popped by the planner, not yet settled).
	// Guarded by the owning shard's lock like the other per-STA arrays;
	// ExtractSTA refuses to migrate a station while its count is nonzero.
	inflightSTA []int32

	txSeq        atomic.Uint64 // next transmission sequence number
	totalPending atomic.Int64  // queued + in-flight frames across all shards
	inFlight     atomic.Int64  // transmissions out for delivery
	draining     atomic.Bool
	closed       atomic.Bool

	// detRot is the deterministic runners' shard rotation cursor (the
	// single-threaded twin of each worker's private cursor).
	detRot int

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	clock Clock
	eobs  engObs

	// sampleN caches cfg.SampleEvery for the admission fast path.
	sampleN uint64
	// fecK caches cfg.FECParity (0 under StrategyRetry) for the planner
	// and delivery hot paths.
	fecK int
}

// New validates cfg and returns an engine ready for Start (real-time) or
// for the deterministic runner. Observability handles resolve once here.
func New(cfg Config) (*Engine, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	clk := cfg.Clock
	if clk == nil {
		clk = NewWallClock()
	}
	sink := cfg.Obs
	if sink == nil {
		sink = obs.Active()
	}
	e := &Engine{
		cfg:            cfg,
		rates:          mac.DefaultRates(),
		shards:         make([]shard, cfg.AdmissionShards),
		dirty:          make([]atomic.Uint64, (cfg.AdmissionShards+63)/64),
		queues:         make([]staQueue, cfg.NumSTAs),
		clock:          clk,
		eobs:           resolveEngObs(sink),
		sampleN:        uint64(cfg.SampleEvery),
		fecK:           cfg.FECParity,
		deliveredBytes: make([]int64, cfg.NumSTAs),
		offered:        make([]bool, cfg.NumSTAs),
		inflightSTA:    make([]int32, cfg.NumSTAs),
	}
	for i := range e.shards {
		sh := &e.shards[i]
		sh.id = i
		sh.lat = newLatHist()
		sh.stage = newStageAcc()
	}
	e.cond = sync.NewCond(&e.mu)
	return e, nil
}

// NumSTAs returns the station-space size the engine was configured with.
func (e *Engine) NumSTAs() int { return e.cfg.NumSTAs }

// Start launches the delivery worker pool. The engine runs until Drain
// completes or Close aborts it; ctx cancellation is equivalent to Close.
func (e *Engine) Start(ctx context.Context) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return errors.New("engine: already started")
	}
	if e.closed.Load() {
		return ErrClosed
	}
	e.started = true
	e.ctx, e.cancel = context.WithCancel(ctx)
	// A cancelled context must wake sleeping workers and waiters.
	context.AfterFunc(e.ctx, func() {
		e.mu.Lock()
		e.wakeLocked()
		e.mu.Unlock()
	})
	e.wg.Add(e.cfg.Workers)
	for w := 0; w < e.cfg.Workers; w++ {
		go e.worker(w % len(e.shards))
	}
	return nil
}

// Submit offers one frame for station sta, copying payload only when the
// engine retains payloads. It applies admission control and returns a
// typed error — ErrQueueFull (backpressure), ErrDraining, ErrClosed, or
// ErrOversize — without blocking.
func (e *Engine) Submit(sta int, payload []byte) error {
	return e.submit(sta, len(payload), payload)
}

// SubmitSize offers a size-only frame: the fast ingest path when the
// transport does not need real bytes.
func (e *Engine) SubmitSize(sta, size int) error {
	return e.submit(sta, size, nil)
}

func (e *Engine) submit(sta, size int, payload []byte) error {
	now := e.clock.Now()
	sh := e.shardOf(sta)
	sh.mu.Lock()
	err := e.submitShardLocked(sh, sta, size, payload, now)
	wentNonEmpty := err == nil && e.queues[sta].len() == 1
	sh.mu.Unlock()
	if wentNonEmpty {
		e.markDirty(sh.id) // queue went non-empty: publish the lane
	}
	return err
}

// BatchItem is one frame in a batched submission: a station index plus
// either real payload bytes or (Payload nil) a size-only frame.
type BatchItem struct {
	STA     int
	Size    int // ignored when Payload is non-nil
	Payload []byte
}

// SubmitBatch offers many frames with at most one lock acquisition per
// touched admission lane and at most one worker wakeup per lane — the
// batch counterpart of Submit/SubmitSize that the slab wire frontend and
// open-loop load generator drive. A mixed-STA batch is bucketed into
// shard-local sub-batches first (pooled scratch, no allocation), so the
// TCP path goes zero-copy slab → shard lane without any global lock.
// Admission control runs per item with the same typed errors as Submit;
// the batch continues past rejected items. It returns the number accepted
// and the first admission error in batch order (nil when every item was
// accepted).
func (e *Engine) SubmitBatch(items []BatchItem) (int, error) {
	now := e.clock.Now()
	if len(e.shards) == 1 {
		sh := &e.shards[0]
		sh.mu.Lock()
		accepted, wentNonEmpty, firstErr := e.submitBatchShardLocked(sh, items, now)
		sh.mu.Unlock()
		if wentNonEmpty {
			e.markDirty(0)
		}
		return accepted, firstErr
	}

	sc := batchScratchPool.Get().(*batchScratch)
	if len(sc.buckets) < len(e.shards) {
		sc.buckets = make([][]int32, len(e.shards))
	}
	buckets := sc.buckets[:len(e.shards)]
	for i, it := range items {
		s := 0
		if it.STA >= 0 && it.STA < e.cfg.NumSTAs {
			s = it.STA % len(e.shards)
		}
		buckets[s] = append(buckets[s], int32(i))
	}

	accepted := 0
	errIdx := len(items)
	var firstErr error
	for s := range buckets {
		idxs := buckets[s]
		if len(idxs) == 0 {
			continue
		}
		sh := &e.shards[s]
		a, wentNonEmpty, shErr, shIdx := e.submitIndexedShard(sh, items, idxs, now)
		accepted += a
		if shErr != nil && shIdx < errIdx {
			errIdx, firstErr = shIdx, shErr
		}
		if wentNonEmpty {
			e.markDirty(s)
		}
		buckets[s] = idxs[:0]
	}
	batchScratchPool.Put(sc)
	return accepted, firstErr
}

// submitIndexedShard admits the batch items selected by idxs (ascending
// original positions) under one acquisition of sh's lock, returning the
// first error and its batch position so SubmitBatch can report the
// globally first failure.
func (e *Engine) submitIndexedShard(sh *shard, items []BatchItem, idxs []int32, now time.Duration) (accepted int, wentNonEmpty bool, firstErr error, errIdx int) {
	errIdx = len(items)
	sh.mu.Lock()
	for _, i := range idxs {
		it := &items[i]
		size := it.Size
		if it.Payload != nil {
			size = len(it.Payload)
		}
		if err := e.submitShardLocked(sh, it.STA, size, it.Payload, now); err != nil {
			if firstErr == nil {
				firstErr, errIdx = err, int(i)
			}
			continue
		}
		accepted++
		if e.queues[it.STA].len() == 1 {
			wentNonEmpty = true
		}
	}
	sh.mu.Unlock()
	return accepted, wentNonEmpty, firstErr, errIdx
}

// submitBatchShardLocked admits a batch whose items all belong to sh,
// reporting whether any station queue transitioned empty → non-empty
// (the wake-coalescing signal). Caller holds sh.mu (or is
// single-threaded, as in the deterministic runner).
func (e *Engine) submitBatchShardLocked(sh *shard, items []BatchItem, now time.Duration) (accepted int, wentNonEmpty bool, firstErr error) {
	for _, it := range items {
		size := it.Size
		if it.Payload != nil {
			size = len(it.Payload)
		}
		if err := e.submitShardLocked(sh, it.STA, size, it.Payload, now); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		accepted++
		if e.queues[it.STA].len() == 1 {
			wentNonEmpty = true
		}
	}
	return accepted, wentNonEmpty, firstErr
}

// submitBatchLocked is the single-threaded batch admission used by the
// deterministic runners, which own the engine exclusively: items route to
// their shards without locking.
func (e *Engine) submitBatchLocked(items []BatchItem, now time.Duration) (accepted int, wentNonEmpty bool, firstErr error) {
	for _, it := range items {
		size := it.Size
		if it.Payload != nil {
			size = len(it.Payload)
		}
		if err := e.submitLocked(it.STA, size, it.Payload, now); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		accepted++
		if e.queues[it.STA].len() == 1 {
			wentNonEmpty = true
		}
	}
	return accepted, wentNonEmpty, firstErr
}

// submitLocked is the single-threaded admission form used by the
// deterministic runners and tests: route to the owning shard, no locks.
func (e *Engine) submitLocked(sta, size int, payload []byte, now time.Duration) error {
	return e.submitShardLocked(e.shardOf(sta), sta, size, payload, now)
}

// submitShardLocked is the admission-control core shared by the
// real-time and deterministic modes. Caller holds sh.mu (or is
// single-threaded); sta, when in range, must belong to sh.
func (e *Engine) submitShardLocked(sh *shard, sta, size int, payload []byte, now time.Duration) error {
	if sta < 0 || sta >= e.cfg.NumSTAs {
		return fmt.Errorf("engine: station %d outside 0..%d", sta, e.cfg.NumSTAs-1)
	}
	if size <= 0 {
		return fmt.Errorf("engine: non-positive frame size %d", size)
	}
	e.offered[sta] = true
	if e.closed.Load() {
		return ErrClosed
	}
	if e.draining.Load() {
		sh.rejected++
		e.eobs.rejected.Inc()
		return ErrDraining
	}
	if size > e.cfg.MaxAggBytes {
		sh.rejected++
		e.eobs.rejected.Inc()
		return ErrOversize
	}
	q := &e.queues[sta]
	if q.len() >= e.cfg.QueueCap {
		sh.rejected++
		e.eobs.rejected.Inc()
		e.eobs.qDropped.Inc()
		e.eobs.qBackpressure.Inc()
		return ErrQueueFull
	}
	var chunk *arenaChunk
	if e.cfg.RetainPayloads && payload != nil {
		payload, chunk = sh.arena.alloc(payload)
	} else {
		payload = nil
	}
	f := qframe{seq: sh.seq, size: size, arrival: now, payload: payload, chunk: chunk}
	if e.sampleN > 0 && sh.seq%e.sampleN == 0 {
		// Deterministic 1-in-N lifecycle sampling keyed on the shard's
		// admission sequence, so the same workload samples the same frames
		// in every mode (real-time, deterministic, batched).
		f.sampled = true
		f.lastTouch = now
	}
	q.pushHint(f, e.cfg.QueueCap)
	sh.seq++
	sh.queued++
	sh.accepted++
	e.totalPending.Add(1)
	e.eobs.accepted.Inc()
	return nil
}

// expireShardLocked drops the shard's queued frames older than
// MaxLatency. Arrivals are monotone from each queue head, so the sweep
// stops at the first frame still inside the bound. Caller holds sh.mu.
func (e *Engine) expireShardLocked(sh *shard, now time.Duration) {
	if e.cfg.MaxLatency <= 0 {
		return
	}
	for sta := sh.id; sta < e.cfg.NumSTAs; sta += len(e.shards) {
		q := &e.queues[sta]
		for q.len() > 0 && now-q.headFrame().arrival > e.cfg.MaxLatency {
			f := q.pop()
			sh.arena.release(f.chunk)
			sh.queued--
			sh.expired++
			e.totalPending.Add(-1)
			e.eobs.expired.Inc()
			e.eobs.qExpired.Inc()
			e.eobs.tracer.Emit(obs.EvQueueExpiry, int64(sta), 0)
			if f.sampled {
				// Expiry terminates the span without a stage export: the
				// frame never left the queue, so its whole life was wait.
				e.eobs.tracer.EmitAt(int64(now), obs.EvFrameDrop, int64(sta), int64(f.retries))
			}
		}
	}
}

// expireLocked is the single-threaded all-shards sweep the deterministic
// runners use.
func (e *Engine) expireLocked(now time.Duration) {
	for i := range e.shards {
		e.expireShardLocked(&e.shards[i], now)
	}
}

// earliestEligibleShardLocked returns the wait until the shard's soonest
// backed-off station with backlog becomes eligible; ok is false when no
// station is both backlogged and backing off. Caller holds sh.mu.
func (e *Engine) earliestEligibleShardLocked(sh *shard, now time.Duration) (time.Duration, bool) {
	best, ok := time.Duration(0), false
	for sta := sh.id; sta < e.cfg.NumSTAs; sta += len(e.shards) {
		q := &e.queues[sta]
		if q.len() == 0 || q.nextEligible <= now {
			continue
		}
		if d := q.nextEligible - now; !ok || d < best {
			best, ok = d, true
		}
	}
	return best, ok
}

// earliestEligibleLocked is the single-threaded all-shards minimum.
func (e *Engine) earliestEligibleLocked(now time.Duration) (time.Duration, bool) {
	best, ok := time.Duration(0), false
	for i := range e.shards {
		if d, shOk := e.earliestEligibleShardLocked(&e.shards[i], now); shOk && (!ok || d < best) {
			best, ok = d, true
		}
	}
	return best, ok
}

// backoffAfter returns the capped exponential backoff after streak
// consecutive failures (streak >= 1).
func (e *Engine) backoffAfter(streak int) time.Duration {
	d := e.cfg.BackoffBase
	for i := 1; i < streak; i++ {
		d <<= 1
		if d >= e.cfg.BackoffCap {
			return e.cfg.BackoffCap
		}
	}
	return min(d, e.cfg.BackoffCap)
}

// accountShardLocked applies one transmission's outcome on its shard:
// delivery accounting, per-frame retry bookkeeping with requeue-at-head,
// retry-limit drops, per-STA backoff, and the sequential-ACK ledger.
// Every STA in the plan belongs to sh, so one shard lock covers the whole
// settlement. okPerSub may be nil (transport error): every subframe is
// then treated as undelivered. deliverDur is the wall time the worker
// spent inside Transport.Deliver, attributed to sampled frames' decode
// stage (zero in deterministic mode, where the virtual clock does not
// advance during delivery, and zero when the transmission carried no
// sampled frames). Caller holds sh.mu (or is single-threaded).
func (e *Engine) accountShardLocked(sh *shard, tx *pendingTx, okPerSub []bool, derr error, now, deliverDur time.Duration) {
	plan := &tx.plan
	txAir := plan.Airtime + plan.ACKTime
	// dataSubs is the receiver-facing subframe count; trailing parity
	// subframes (StrategyFEC) are accounted separately so every
	// retry-mode counter is untouched by the FEC machinery.
	dataSubs := plan.DataSubs
	if dataSubs == 0 {
		dataSubs = len(plan.Subs)
	}
	sh.txN++
	sh.subN += int64(dataSubs)
	sh.seqAcks += int64(dataSubs)
	sh.busy += plan.Airtime + plan.ACKTime
	e.eobs.tx.Inc()
	e.eobs.aggSubframes.Add(int64(dataSubs))
	e.eobs.seqAcks.Add(int64(dataSubs))
	e.eobs.airtimeUs.Add(int64((plan.Airtime + plan.ACKTime) / time.Microsecond))
	e.eobs.groupSize.Observe(float64(dataSubs))
	e.eobs.tracer.Emit(obs.EvAggTX, int64(dataSubs), 0)
	e.eobs.tracer.Emit(obs.EvSeqACK, int64(dataSubs), 0)
	if n := len(plan.Subs) - dataSubs; n > 0 {
		sh.fecParityTx += int64(n)
		e.eobs.fecParityTx.Add(int64(n))
	}
	if derr != nil {
		e.eobs.transportErrs.Inc()
	}

	for i := 0; i < dataSubs; i++ {
		sub := &plan.Subs[i]
		q := &e.queues[sub.STA]
		// Settlement is the subframe's terminal moment for migration
		// purposes: delivered, dropped, and requeued frames alike stop
		// being in flight here (requeued ones are back in the queue and
		// travel with an ExtractSTA).
		e.inflightSTA[sub.STA] -= int32(len(tx.frames[i]))
		delivered := derr == nil && okPerSub != nil && okPerSub[i]
		if delivered {
			if tx.recovered != nil && tx.recovered[i] {
				// Lost on the air, rebuilt from parity: delivery without a
				// retransmission — the whole point of the erasure layer.
				sh.fecRecovered++
				e.eobs.fecRecovered.Inc()
			}
			q.failStreak = 0
			q.nextEligible = 0
			for _, f := range tx.frames[i] {
				sh.arena.release(f.chunk)
				sh.delivered++
				e.totalPending.Add(-1)
				e.deliveredBytes[sub.STA] += int64(f.size)
				latMs := (now - f.arrival).Seconds() * 1e3
				sh.lat.observe(latMs)
				e.eobs.delivered.Inc()
				e.eobs.latencyMs.Observe(latMs)
				if f.sampled {
					e.sampledDeliveredLocked(sh, sub.STA, &f, txAir, deliverDur, now)
				}
			}
			continue
		}
		// Shared fate: every frame of the subframe failed together. Under
		// StrategyFEC this is the fallback — the loss exceeded what parity
		// could repair (or reconstruction produced wrong bytes).
		if e.fecK > 0 && derr == nil && okPerSub != nil {
			sh.fecDecodeFail++
			e.eobs.fecDecodeFail.Inc()
		}
		kept := tx.frames[i][:0]
		for _, f := range tx.frames[i] {
			f.retries++
			sh.retriesN++
			e.eobs.retries.Inc()
			if f.retries > e.cfg.RetryLimit {
				sh.arena.release(f.chunk)
				sh.dropped++
				e.totalPending.Add(-1)
				e.eobs.dropped.Inc()
				e.eobs.qDropped.Inc()
				if f.sampled {
					e.eobs.tracer.EmitAt(int64(now), obs.EvFrameDrop, int64(sub.STA), int64(f.retries))
				}
				continue
			}
			if f.sampled {
				// The attempt's airtime and decode wall time accrue before
				// the frame re-enters the queue for its next pop.
				f.airAcc += txAir
				f.decodeAcc += deliverDur
				f.lastTouch = now
			}
			kept = append(kept, f)
		}
		q.requeue(kept)
		sh.queued += len(kept)
		q.failStreak++
		q.nextEligible = now + e.backoffAfter(q.failStreak)
	}
	e.eobs.qDepth.Set(float64(e.totalPending.Load()))
}

// accountLocked is the single-threaded settlement form the deterministic
// runners and tests use: the transmission's shard is settled directly.
func (e *Engine) accountLocked(tx *pendingTx, okPerSub []bool, derr error, now, deliverDur time.Duration) {
	e.accountShardLocked(&e.shards[tx.shard], tx, okPerSub, derr, now, deliverDur)
}

// waitLocked blocks on the condvar with the sleeper census maintained, so
// wakeLocked can skip broadcasting into an empty room. Caller holds e.mu.
func (e *Engine) waitLocked() {
	e.waiting++
	e.cond.Wait()
	e.waiting--
}

// wakeLocked coalesces condvar wakeups: a broadcast is issued only when a
// worker or Drain is actually parked, and every broadcast is counted so
// the drain tests can assert the total stays proportional to useful work
// (no wakeup storm). Always a Broadcast, never a Signal: workers and Drain
// share the condvar, and a Signal consumed by the "wrong" waiter would be
// a lost wakeup. Caller holds e.mu.
func (e *Engine) wakeLocked() {
	if e.waiting > 0 {
		e.wakeups++
		e.cond.Broadcast()
	}
}

// nextPlan is a worker's rotating scan over the dirty bitmap: claim a
// published shard, expire and plan it under that shard's lock alone, and
// re-publish it when backlog remains (so sibling workers can interleave
// on the same lane, and so a partially drained lane is never lost). A
// planless shard with ineligible backlog arms the shard's backoff timer,
// which re-publishes the lane when its earliest retry gate opens. Returns
// nil when no published shard yields a plan; *rot advances so successive
// calls spread across lanes instead of convoying on shard 0.
func (e *Engine) nextPlan(rot *int, sc *planScratch) *pendingTx {
	P := len(e.shards)
	for k := 0; k < P; k++ {
		i := (*rot + k) % P
		if !e.claimDirty(i) {
			continue
		}
		sh := &e.shards[i]
		sh.mu.Lock()
		now := e.clock.Now()
		e.expireShardLocked(sh, now)
		tx := e.buildPlanShardLocked(sh, now, sc)
		if tx == nil {
			if d, ok := e.earliestEligibleShardLocked(sh, now); ok {
				e.armShardTimerLocked(sh, now, d)
			}
			sh.mu.Unlock()
			continue
		}
		backlog := sh.queued > 0
		sh.mu.Unlock()
		if backlog {
			e.markDirty(i)
		}
		*rot = (i + 1) % P
		return tx
	}
	return nil
}

// worker is one delivery-pool goroutine: claim a dirty shard and build a
// plan under that shard's lock, deliver it outside any lock, settle the
// outcome back on the shard. Workers start their rotating scans at
// staggered offsets so an idle pool fans out across lanes.
func (e *Engine) worker(rot int) {
	defer e.wg.Done()
	var sc planScratch
	var hold *time.Timer // PaceAirtime's: one per worker, rearmed per transmission
	if e.cfg.PaceAirtime {
		hold = time.NewTimer(0)
		defer hold.Stop()
	}
	for {
		if e.ctx.Err() != nil {
			return
		}
		tx := e.nextPlan(&rot, &sc)
		if tx == nil {
			e.mu.Lock()
			if e.ctx.Err() != nil {
				e.mu.Unlock()
				return
			}
			if e.draining.Load() && e.totalPending.Load() == 0 && e.inFlight.Load() == 0 {
				e.wakeLocked() // wake Drain and sibling workers
				e.mu.Unlock()
				return
			}
			if e.anyDirty() {
				e.mu.Unlock() // published while we were scanning: rescan
				continue
			}
			e.waitLocked()
			e.mu.Unlock()
			continue
		}
		e.inFlight.Add(1)

		// The delivery-duration clock reads run only when the transmission
		// carries sampled frames, keeping the unsampled hot path free of
		// extra time syscalls.
		var okPerSub []bool
		var derr error
		var deliverDur time.Duration
		if tx.sampled > 0 {
			t0 := e.clock.Now()
			okPerSub, tx.recovered, derr = e.deliver(e.ctx, &tx.plan)
			deliverDur = e.clock.Now() - t0
		} else {
			okPerSub, tx.recovered, derr = e.deliver(e.ctx, &tx.plan)
		}
		if e.cfg.PaceAirtime {
			e.pace(hold, tx.plan.Airtime+tx.plan.ACKTime)
		}

		sh := &e.shards[tx.shard]
		sh.mu.Lock()
		e.accountShardLocked(sh, tx, okPerSub, derr, e.clock.Now(), deliverDur)
		backlog := sh.queued > 0
		sh.mu.Unlock()
		e.inFlight.Add(-1)
		if backlog {
			e.markDirty(tx.shard) // requeued or residual frames: republish
		}
		if e.draining.Load() && e.totalPending.Load() == 0 && e.inFlight.Load() == 0 {
			e.mu.Lock()
			e.wakeLocked() // drain complete: wake Drain
			e.mu.Unlock()
		}
	}
}

// pace holds the worker for the plan's air occupancy on the worker's own
// timer, honouring shutdown. (Reset drops whatever an earlier setting left
// in the channel, so the timer needs no draining between transmissions.)
func (e *Engine) pace(hold *time.Timer, d time.Duration) {
	hold.Reset(d)
	select {
	case <-hold.C:
	case <-e.ctx.Done():
	}
}

// Drain performs a graceful shutdown: new submissions are rejected with
// ErrDraining, queued and in-flight frames are delivered (or exhaust
// their retries), then the worker pool exits. It returns ctx.Err() if the
// deadline expires first; the engine is stopped either way.
func (e *Engine) Drain(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		e.mu.Lock()
		e.wakeLocked()
		e.mu.Unlock()
	})
	defer stop()

	e.mu.Lock()
	if !e.started {
		e.draining.Store(true)
		e.closed.Store(true)
		e.mu.Unlock()
		return nil
	}
	e.mu.Unlock()

	e.draining.Store(true)
	// Shard-lock barrier: any submit that read draining=false holds its
	// shard lock until its totalPending increment lands, so after one
	// lock/unlock round per shard every straggler is either counted in
	// totalPending or rejected — the wait loop below can't miss a frame.
	for i := range e.shards {
		e.shards[i].mu.Lock()
		e.shards[i].mu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	}

	e.mu.Lock()
	// One broadcast flips every parked worker into drain mode; all further
	// drain-progress wakeups are coalesced through wakeLocked.
	e.wakeLocked()
	for (e.totalPending.Load() > 0 || e.inFlight.Load() > 0) && ctx.Err() == nil && e.ctx.Err() == nil {
		e.waitLocked()
	}
	err := ctx.Err()
	e.mu.Unlock()

	e.cancel() // workers have drained (or the deadline hit): stop the pool
	e.wg.Wait()
	e.stopShardTimers()
	e.closed.Store(true)
	return err
}

// Stopped reports whether the engine has fully stopped (drain completed
// or Close returned) — the telemetry pusher's cue to emit one final
// update and end a subscribe stream.
func (e *Engine) Stopped() bool {
	return e.closed.Load()
}

// Close aborts immediately: queued frames are discarded, workers stop as
// soon as their current delivery returns. Safe to call more than once and
// after Drain.
func (e *Engine) Close() {
	e.mu.Lock()
	if !e.started || e.closed.Load() {
		e.draining.Store(true)
		e.closed.Store(true)
		e.mu.Unlock()
		return
	}
	e.closed.Store(true)
	e.mu.Unlock()
	e.cancel()
	e.wg.Wait()
	e.stopShardTimers()
}
