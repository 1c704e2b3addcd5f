package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"carpool/internal/bloom"
	"carpool/internal/mac"
	"carpool/internal/obs"
	"carpool/internal/traffic"
)

// cbrFlows builds n identical constant-bit-rate flows: count frames of
// size bytes spaced interval apart.
func cbrFlows(n, count, size int, interval time.Duration) [][]traffic.Arrival {
	flows := make([][]traffic.Arrival, n)
	for i := range flows {
		for k := 0; k < count; k++ {
			flows[i] = append(flows[i], traffic.Arrival{Time: time.Duration(k) * interval, Size: size})
		}
	}
	return flows
}

func TestAdmissionControl(t *testing.T) {
	e, err := New(Config{NumSTAs: 2, QueueCap: 3, MaxAggBytes: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(-1, []byte{1}); err == nil {
		t.Error("negative station accepted")
	}
	if err := e.Submit(2, []byte{1}); err == nil {
		t.Error("out-of-range station accepted")
	}
	if err := e.SubmitSize(0, 0); err == nil {
		t.Error("zero-size frame accepted")
	}
	if err := e.SubmitSize(0, 1001); !errors.Is(err, ErrOversize) {
		t.Errorf("oversize frame: got %v, want ErrOversize", err)
	}
	for i := 0; i < 3; i++ {
		if err := e.SubmitSize(0, 100); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := e.SubmitSize(0, 100); !errors.Is(err, ErrQueueFull) {
		t.Errorf("full queue: got %v, want ErrQueueFull", err)
	}
	// The other station's queue is independent.
	if err := e.SubmitSize(1, 100); err != nil {
		t.Errorf("station 1 rejected: %v", err)
	}
	st := e.Stats()
	if st.Accepted != 4 || st.Rejected != 2 {
		t.Errorf("accepted=%d rejected=%d, want 4/2", st.Accepted, st.Rejected)
	}
}

func TestSubmitAfterDrainRejected(t *testing.T) {
	e, err := New(Config{NumSTAs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitSize(0, 100); !errors.Is(err, ErrClosed) {
		t.Errorf("post-drain submit: got %v, want ErrClosed", err)
	}
}

func TestQueueRequeuePreservesOrder(t *testing.T) {
	var q staQueue
	for i := 0; i < 5; i++ {
		q.push(qframe{seq: uint64(i), size: 100})
	}
	a, b := q.pop(), q.pop()
	// Requeue at head with fewer popped than requeued exercises the
	// reallocation path too.
	q.requeue([]qframe{a, b})
	for i := 0; i < 5; i++ {
		if got := q.pop().seq; got != uint64(i) {
			t.Fatalf("pop %d: seq %d", i, got)
		}
	}
	if q.len() != 0 {
		t.Fatalf("queue not empty: %d", q.len())
	}
	// head == 0 with pending frames: requeue must step the ring's head
	// counter backwards (modular wraparound), not corrupt order.
	q.push(qframe{seq: 10})
	q.requeue([]qframe{{seq: 8}, {seq: 9}})
	want := []uint64{8, 9, 10}
	for i, w := range want {
		if got := q.pop().seq; got != w {
			t.Fatalf("merged pop %d: seq %d, want %d", i, got, w)
		}
	}
}

// TestQueueRingWraparound churns a small ring far past its capacity so
// head/tail lap the buffer many times, interleaving pushes, pops, and
// head-requeues, and checks strict FIFO order end to end.
func TestQueueRingWraparound(t *testing.T) {
	var q staQueue
	next, expect := uint64(0), uint64(0)
	for round := 0; round < 200; round++ {
		for i := 0; i < 3; i++ {
			q.push(qframe{seq: next})
			next++
		}
		if round%5 == 4 {
			// Fail a two-frame "transmission": pop two, put them back.
			a, b := q.pop(), q.pop()
			q.requeue([]qframe{a, b})
		}
		for i := 0; i < 3; i++ {
			if got := q.pop().seq; got != expect {
				t.Fatalf("round %d: pop seq %d, want %d", round, got, expect)
			}
			expect++
		}
	}
	for q.len() > 0 {
		if got := q.pop().seq; got != expect {
			t.Fatalf("tail drain: pop seq %d, want %d", got, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained %d frames, pushed %d", expect, next)
	}
	if len(q.ring) > 16 {
		t.Errorf("bounded churn grew the ring to %d slots", len(q.ring))
	}
}

// TestSubmitBatch checks the batched admission path: one call admits many
// frames across stations with per-item admission control, identical
// accounting to per-frame Submit, and at most one coalesced wakeup.
func TestSubmitBatch(t *testing.T) {
	e, err := New(Config{NumSTAs: 2, QueueCap: 3, MaxAggBytes: 1000})
	if err != nil {
		t.Fatal(err)
	}
	items := []BatchItem{
		{STA: 0, Size: 100},
		{STA: 0, Payload: []byte("abc")},
		{STA: 1, Size: 200},
		{STA: 0, Size: 2000}, // oversize: rejected, batch continues
		{STA: 0, Size: 100},
		{STA: 0, Size: 100}, // queue cap 3: rejected
		{STA: 1, Size: 50},
	}
	accepted, firstErr := e.SubmitBatch(items)
	if accepted != 5 {
		t.Errorf("accepted %d, want 5", accepted)
	}
	if !errors.Is(firstErr, ErrOversize) {
		t.Errorf("first error %v, want ErrOversize", firstErr)
	}
	st := e.Stats()
	if st.Accepted != 5 || st.Rejected != 2 || st.Pending != 5 {
		t.Errorf("accepted=%d rejected=%d pending=%d, want 5/2/5", st.Accepted, st.Rejected, st.Pending)
	}
	if got := e.queues[0].len(); got != 3 {
		t.Errorf("station 0 queue %d, want 3", got)
	}
	if got := e.queues[1].len(); got != 2 {
		t.Errorf("station 1 queue %d, want 2", got)
	}
}

// TestSubmitBatchDrains pushes a batch through a running engine and checks
// every accepted frame is delivered on drain.
func TestSubmitBatchDrains(t *testing.T) {
	e, err := New(Config{NumSTAs: 4, QueueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	items := make([]BatchItem, 128)
	for i := range items {
		items[i] = BatchItem{STA: i % 4, Size: 300}
	}
	var accepted int
	for accepted < len(items) {
		n, err := e.SubmitBatch(items[accepted:])
		if err != nil && !errors.Is(err, ErrQueueFull) {
			t.Fatal(err)
		}
		accepted += n
		if n == 0 {
			time.Sleep(100 * time.Microsecond) // backpressure: let workers drain
		}
	}
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Delivered != int64(len(items)) || st.Pending != 0 {
		t.Errorf("delivered=%d pending=%d, want %d/0", st.Delivered, st.Pending, len(items))
	}
}

// TestPayloadArenaRecycling checks refcounted chunk reuse: allocations are
// served from shared slabs, releases recycle chunks instead of leaking
// them, and payload contents survive aliasing.
func TestPayloadArenaRecycling(t *testing.T) {
	var a payloadArena
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(i)
	}

	// A full chunk's worth of allocations shares one slab.
	type ref struct {
		p []byte
		c *arenaChunk
	}
	var refs []ref
	for i := 0; i < arenaChunkBytes/1000; i++ {
		p, c := a.alloc(payload)
		if c == nil {
			t.Fatal("nil chunk for retained payload")
		}
		refs = append(refs, ref{p, c})
	}
	first := refs[0].c
	for i, r := range refs {
		if r.c != first {
			t.Fatalf("alloc %d spilled to a new chunk with %d bytes still free", i, arenaChunkBytes-first.used)
		}
		for j := range r.p {
			if r.p[j] != byte(j) {
				t.Fatalf("alloc %d corrupted at byte %d", i, j)
			}
		}
	}

	// Releasing every reference recycles the chunk for the next fill.
	for _, r := range refs {
		a.release(r.c)
	}
	p2, c2 := a.alloc(payload)
	if c2 != first {
		t.Error("drained current chunk not reused in place")
	}
	if &p2[0] != &first.buf[0] {
		t.Error("reused chunk did not rewind to its start")
	}

	// Oversize payloads get exact-size dedicated chunks.
	big := make([]byte, arenaChunkBytes+1)
	pb, cb := a.alloc(big)
	if cb == first || len(pb) != len(big) || cap(pb) != len(big) {
		t.Errorf("oversize alloc: chunk shared=%v len=%d cap=%d", cb == first, len(pb), cap(pb))
	}
	// ... and never enter the slab pool: the next fresh slab is full-size.
	a.release(cb)
	var other payloadArena
	if _, c := other.alloc(payload); len(c.buf) != arenaChunkBytes {
		t.Errorf("pool handed out a %d-byte chunk, want %d", len(c.buf), arenaChunkBytes)
	}
}

func TestPlanStrictFIFOByteCap(t *testing.T) {
	// One admission lane: cross-STA FIFO is global, as pre-shard.
	e, err := New(Config{NumSTAs: 2, MaxAggBytes: 1000, AdmissionShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Admission order: sta0(600), sta1(600), sta0(100). The second frame
	// breaches the cap, and strict FIFO means the third — though it would
	// fit — must not jump the line.
	e.mu.Lock()
	_ = e.submitLocked(0, 600, nil, 0)
	_ = e.submitLocked(1, 600, nil, 0)
	_ = e.submitLocked(0, 100, nil, 0)
	var sc planScratch
	tx := e.buildPlanLocked(0, &sc)
	e.mu.Unlock()
	if tx == nil || len(tx.plan.Subs) != 1 {
		t.Fatalf("plan = %+v, want exactly one sub", tx)
	}
	if tx.plan.Subs[0].STA != 0 || tx.plan.Subs[0].Bytes != 600 {
		t.Errorf("sub = %+v, want sta0/600B", tx.plan.Subs[0])
	}
}

func TestPlanReceiverCap(t *testing.T) {
	e, err := New(Config{NumSTAs: 4, MaxReceivers: 2, AdmissionShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	for sta := 0; sta < 4; sta++ {
		_ = e.submitLocked(sta, 200, nil, 0)
	}
	var sc planScratch
	tx := e.buildPlanLocked(0, &sc)
	if tx == nil || len(tx.plan.Subs) != 2 {
		t.Fatalf("first plan has %d subs, want 2", len(tx.plan.Subs))
	}
	if tx.plan.Subs[0].STA != 0 || tx.plan.Subs[1].STA != 1 {
		t.Errorf("first plan serves %+v, want stations 0,1", tx.plan.Subs)
	}
	// Excluded stations are served by the next plan, still in FIFO order.
	tx2 := e.buildPlanLocked(0, &sc)
	e.mu.Unlock()
	if tx2 == nil || len(tx2.plan.Subs) != 2 ||
		tx2.plan.Subs[0].STA != 2 || tx2.plan.Subs[1].STA != 3 {
		t.Fatalf("second plan = %+v, want stations 2,3", tx2)
	}
}

func TestPlanAirtimeBudget(t *testing.T) {
	// Budget just over one frame's airtime: each plan carries one frame,
	// and the first frame is always admitted even when it alone exceeds
	// the budget (progress guarantee).
	e, err := New(Config{NumSTAs: 1, AirtimeBudget: 1 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	_ = e.submitLocked(0, 1400, nil, 0)
	_ = e.submitLocked(0, 1400, nil, 0)
	var sc planScratch
	tx := e.buildPlanLocked(0, &sc)
	e.mu.Unlock()
	if tx == nil || len(tx.plan.Subs) != 1 || tx.plan.Subs[0].Bytes != 1400 {
		t.Fatalf("plan = %+v, want single 1400B frame", tx)
	}
	if tx.plan.Airtime <= 1*time.Microsecond {
		t.Errorf("airtime %v should exceed the budget (progress guarantee)", tx.plan.Airtime)
	}
}

func TestPlanGroupsFramesPerSTA(t *testing.T) {
	e, err := New(Config{NumSTAs: 2, AdmissionShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	for i := 0; i < 3; i++ {
		_ = e.submitLocked(0, 100, nil, 0)
		_ = e.submitLocked(1, 100, nil, 0)
	}
	var sc planScratch
	tx := e.buildPlanLocked(0, &sc)
	e.mu.Unlock()
	if tx == nil || len(tx.plan.Subs) != 2 {
		t.Fatalf("plan = %+v, want 2 subs", tx)
	}
	for i, sub := range tx.plan.Subs {
		if sub.Bytes != 300 || len(tx.frames[i]) != 3 {
			t.Errorf("sub %d: %dB/%d frames, want 300/3", i, sub.Bytes, len(tx.frames[i]))
		}
		if sub.NumSym <= 0 || sub.StartSym < mac.AHDRSymbols+mac.SIGSymbols {
			t.Errorf("sub %d span %d+%d invalid", i, sub.StartSym, sub.NumSym)
		}
	}
	// Symbol spans must be disjoint and ordered.
	if a, b := tx.plan.Subs[0], tx.plan.Subs[1]; a.StartSym+a.NumSym+mac.SIGSymbols != b.StartSym {
		t.Errorf("spans not contiguous: %+v then %+v", a, b)
	}
}

func TestBackoffProgression(t *testing.T) {
	e, err := New(Config{NumSTAs: 1, BackoffBase: 100 * time.Microsecond, BackoffCap: 500 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{100 * time.Microsecond, 200 * time.Microsecond,
		400 * time.Microsecond, 500 * time.Microsecond, 500 * time.Microsecond}
	for i, w := range want {
		if got := e.backoffAfter(i + 1); got != w {
			t.Errorf("streak %d: backoff %v, want %v", i+1, got, w)
		}
	}
}

func TestExpiry(t *testing.T) {
	cfg := Config{
		NumSTAs:    1,
		MaxLatency: 5 * time.Millisecond,
		// Dead station: nothing delivers, so every frame either backs off
		// until it expires or exhausts retries.
		Transport: &OracleTransport{Oracle: mac.NewLossyLocOracle(0), Locations: []int{0}},
	}
	flows := cbrFlows(1, 10, 200, time.Millisecond)
	st, err := RunDeterministic(context.Background(), cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	if st.Delivered != 0 {
		t.Errorf("delivered %d frames on a dead link", st.Delivered)
	}
	if st.Expired+st.Dropped != 10 {
		t.Errorf("expired=%d dropped=%d, want 10 total", st.Expired, st.Dropped)
	}
	if st.Expired == 0 {
		t.Errorf("MaxLatency never expired a frame (dropped=%d)", st.Dropped)
	}
	if st.Pending != 0 {
		t.Errorf("pending=%d after drain", st.Pending)
	}
}

func TestRetryLimitAttempts(t *testing.T) {
	// A dead station with no MaxLatency: every frame makes RetryLimit+1
	// attempts then drops — the simulator's retry discipline.
	cfg := Config{
		NumSTAs:    2,
		RetryLimit: 3,
		Transport:  &OracleTransport{Oracle: mac.NewLossyLocOracle(1), Locations: []int{0, 1}},
	}
	st, err := RunDeterministic(context.Background(), cfg, cbrFlows(2, 5, 300, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if st.Delivered != 5 || st.Dropped != 5 {
		t.Fatalf("delivered=%d dropped=%d, want 5/5", st.Delivered, st.Dropped)
	}
	if st.Retries != 5*4 {
		t.Errorf("retries=%d, want %d (RetryLimit+1 attempts per dropped frame)", st.Retries, 5*4)
	}
	if st.DeliveredBytesPerSTA[1] != 0 || st.DeliveredBytesPerSTA[0] != 5*300 {
		t.Errorf("per-STA bytes %v", st.DeliveredBytesPerSTA)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{NumSTAs: 0},
		{NumSTAs: 1, QueueCap: -1},
		{NumSTAs: 1, MaxReceivers: bloom.MaxReceivers + 1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestEngineMetricsSharedNames(t *testing.T) {
	// The engine must export queue pressure under the same canonical
	// names the MAC simulator uses, on an explicit sink.
	reg := obs.NewRegistry()
	sink := &obs.Sink{Registry: reg}
	cfg := Config{NumSTAs: 1, QueueCap: 2, Obs: sink}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = e.SubmitSize(0, 100)
	_ = e.SubmitSize(0, 100)
	if err := e.SubmitSize(0, 100); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("expected overflow, got %v", err)
	}
	counters := reg.Snapshot().Counters
	if counters[obs.QueueDropped] != 1 {
		t.Errorf("%s = %d, want 1", obs.QueueDropped, counters[obs.QueueDropped])
	}
	if counters[obs.QueueBackpressure] != 1 {
		t.Errorf("%s = %d, want 1", obs.QueueBackpressure, counters[obs.QueueBackpressure])
	}
}

func TestStatsAccountingIdentity(t *testing.T) {
	cfg := Config{
		NumSTAs:   4,
		Transport: &OracleTransport{Oracle: mac.NewLossyLocOracle(3), Locations: []int{0, 1, 2, 3}},
	}
	st, err := RunDeterministic(context.Background(), cfg, cbrFlows(4, 25, 400, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted != st.Delivered+st.Dropped+st.Expired+st.Pending {
		t.Errorf("accounting identity broken: %+v", st)
	}
	if st.MeanGroupSize <= 1 {
		t.Errorf("mean group size %.2f, want aggregation > 1", st.MeanGroupSize)
	}
	if st.SeqACKs != st.Subframes {
		t.Errorf("seqACKs=%d subframes=%d, want one ACK slot per subframe", st.SeqACKs, st.Subframes)
	}
}
