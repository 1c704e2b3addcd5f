package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"carpool/internal/engine"
)

// stack is the serving stack assembled in-process the way cmd/carpoold
// assembles it — engine.New, Start, engine.NewServer, Serve on a loopback
// listener — plus the one TCP connection the load generator drives it
// through.
type stack struct {
	w    *workload
	eng  *engine.Engine
	tr   *benchTransport
	conn net.Conn
	br   *bufio.Reader
	wbuf []byte

	cancel context.CancelFunc
	served chan error
}

func bringUp(w *workload, sample int) (*stack, error) {
	tr := newBenchTransport(w.transport())
	eng, err := engine.New(w.config(tr, sample))
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := eng.Start(ctx); err != nil {
		cancel()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		eng.Close()
		return nil, err
	}
	srv := engine.NewServer(eng)
	s := &stack{w: w, eng: eng, tr: tr, cancel: cancel, served: make(chan error, 1)}
	go func() { s.served <- srv.Serve(ctx, ln) }()
	s.conn, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		s.tearDown()
		return nil, err
	}
	s.br = bufio.NewReaderSize(s.conn, 1<<16)
	return s, nil
}

// tearDown stops the stack and waits for the server's goroutines.
func (s *stack) tearDown() error {
	if s.conn != nil {
		s.conn.Close()
	}
	s.cancel()
	err := <-s.served
	s.eng.Close()
	return err
}

// replyTimeout bounds every wait for a server reply, so a wedged stack
// fails the run instead of hanging it.
const replyTimeout = 60 * time.Second

func (s *stack) control(typ byte) (engine.Stats, error) {
	s.wbuf = engine.AppendControlRecord(s.wbuf[:0], typ)
	if err := s.conn.SetDeadline(time.Now().Add(replyTimeout)); err != nil {
		return engine.Stats{}, err
	}
	if _, err := s.conn.Write(s.wbuf); err != nil {
		return engine.Stats{}, err
	}
	return engine.ReadStatsReply(s.br)
}

func settled(st engine.Stats) int64 {
	return st.Delivered + st.Dropped + st.Expired + st.Rejected
}

// mark is the process and engine state at one edge of a measured span.
type mark struct {
	at      time.Time
	cpu     time.Duration // process user+sys
	gen     time.Duration // generator thread user+sys (traced runs only)
	mallocs uint64
	bytes   uint64
	stats   engine.Stats
}

func rusage(who int) time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(who, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does not
// name.
const rusageThread = 1

func (s *stack) takeMark(pinned bool) (mark, error) {
	st, err := s.control(engine.RecStats)
	if err != nil {
		return mark{}, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := mark{at: time.Now(), cpu: rusage(syscall.RUSAGE_SELF), mallocs: ms.Mallocs, bytes: ms.TotalAlloc, stats: st}
	if pinned {
		m.gen = rusage(rusageThread)
	}
	return m, nil
}

// segResult is what one measured segment yields.
type segResult struct {
	seg     segment
	rate    float64 // offered rate; 0 for the closed loop
	begin   mark
	end     mark
	written int64 // frames written, warm-up included
	offered int64 // frames written inside the span
	// windows are the one-second delivered rates of a closed-loop span;
	// on an alternating segment, those of the windows with spans off, with
	// windowsTraced the others. tracedTime is the time spans were on.
	windows       []float64
	windowsTraced []float64
	tracedTime    time.Duration
	// lat holds latency samples in ms, sorted: per frame from its due time
	// for the open loop, per batch (every frame of it) for the closed one.
	lat []float64
	// latWin holds the same samples split by the second of the span they
	// fall in (due time for the open loop, reply time for the closed one),
	// each sorted. The reported quantiles are medians over these windows:
	// this host stalls for tens of milliseconds now and then, and one
	// stall would otherwise set the whole run's 99th percentile.
	latWin      [][]float64
	latFrames   int64 // frames the samples stand for
	missed      int64 // open loop: measured frames late past latLimit or never delivered
	undelivered int64 // open loop: measured frames never delivered
	twice       int64
	foreign     int64
	late        []float64 // open loop: write time − due time per frame, ms, sorted
	polls       int64
}

func (r *segResult) seconds() float64 { return r.end.at.Sub(r.begin.at).Seconds() }
func (r *segResult) delivered() int64 { return r.end.stats.Delivered - r.begin.stats.Delivered }

// addLat files one latency sample under the second of the span it
// belongs to.
func (r *segResult) addLat(ms float64, into time.Duration) {
	r.lat = append(r.lat, ms)
	w := int(into / time.Second)
	for len(r.latWin) <= w {
		r.latWin = append(r.latWin, nil)
	}
	r.latWin[w] = append(r.latWin[w], ms)
}

// sortLat orders every sample list and drops a trailing window the span
// did not fill.
func (r *segResult) sortLat(span time.Duration) {
	if full := int(span / time.Second); full > 0 && len(r.latWin) > full {
		r.latWin = r.latWin[:full]
	}
	sort.Float64s(r.lat)
	for _, w := range r.latWin {
		sort.Float64s(w)
	}
}

// latQ is the median over the span's one-second windows of each window's
// q-quantile; a span under a second falls back to all samples.
func (r *segResult) latQ(q float64) float64 {
	var per []float64
	for _, w := range r.latWin {
		if len(w) > 0 {
			per = append(per, quantile(w, q))
		}
	}
	if len(per) < 2 {
		return quantile(r.lat, q)
	}
	return median(per)
}

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n == 0 {
		return 0
	} else if n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// sentBatch remembers one written batch until a stats reply covers it:
// the count of frames written up to its last one, and when.
type sentBatch struct {
	upTo int64
	at   time.Time
}

// idlePoll is how long the closed loop writes without a stats reply
// before asking anyway: the one-second windows need samples even when the
// server keeps the loop under its window.
const idlePoll = 50 * time.Millisecond

// runClosed measures one closed-loop segment. Throughput is counted on
// Delivered as the stats replies report it, never on what was sent.
//
// Latency here is FIFO-equivalent: a batch's sample is the time from its
// write to the first stats reply whose settled count covers its last
// frame. Size-only frames carry no identity, so this is the latency the
// loop can observe from outside on all three saturating workloads alike;
// it is resolved to the poll interval and set by window / delivered rate.
func (s *stack) runClosed(ring *ring, seg segment, pinned bool) (*segResult, error) {
	w := s.w
	res := &segResult{seg: seg}
	var (
		next     int         // ring cursor
		settledN int64       // frames the last stats reply accounted for
		written  []sentBatch // batches no reply has covered yet, oldest first
		lastPoll = time.Now()
	)
	tracing := seg.traced && !seg.alternate
	s.tr.tracing.Store(tracing)
	defer s.tr.tracing.Store(false)

	measureAt := time.Now().Add(seg.warm)
	endAt := measureAt.Add(seg.span)
	window := min(time.Second, seg.span/4) // shorter only in the tests
	measuring := false
	var winAt time.Time
	var winDelivered int64

	absorb := func(st engine.Stats, at time.Time) {
		settledN = settled(st)
		lastPoll = at
		n := 0
		for n < len(written) && written[n].upTo <= settledN {
			if measuring {
				res.addLat(at.Sub(written[n].at).Seconds()*1e3, at.Sub(res.begin.at))
			}
			n++
		}
		written = written[:copy(written, written[n:])]
	}

	for {
		now := time.Now()
		if !measuring && !now.Before(measureAt) {
			m, err := s.takeMark(pinned)
			if err != nil {
				return nil, err
			}
			res.begin = m
			absorb(m.stats, m.at)
			measuring = true
			endAt = m.at.Add(seg.span)
			winAt, winDelivered = m.at, m.stats.Delivered
			continue
		}
		if measuring && !now.Before(endAt) {
			m, err := s.takeMark(pinned)
			if err != nil {
				return nil, err
			}
			absorb(m.stats, m.at)
			res.end = m
			if tracing {
				res.tracedTime += m.at.Sub(winAt) // the window the span's end cut short
			}
			break
		}
		if res.written-settledN <= int64(w.window) && now.Sub(lastPoll) < idlePoll {
			b := ring.batches[next]
			next = (next + 1) % len(ring.batches)
			if err := s.conn.SetWriteDeadline(now.Add(replyTimeout)); err != nil {
				return nil, err
			}
			if _, err := s.conn.Write(b); err != nil {
				return nil, err
			}
			res.written += int64(w.batch)
			written = append(written, sentBatch{upTo: res.written, at: now})
			if measuring {
				res.offered += int64(w.batch)
			}
			continue
		}
		if d := w.pollEvery - now.Sub(lastPoll); d > 0 {
			time.Sleep(d)
		}
		st, err := s.control(engine.RecStats)
		if err != nil {
			return nil, err
		}
		at := time.Now()
		absorb(st, at)
		if measuring {
			res.polls++
			if dt := at.Sub(winAt); dt >= window {
				rate := float64(st.Delivered-winDelivered) / dt.Seconds()
				if tracing {
					res.windowsTraced = append(res.windowsTraced, rate)
					res.tracedTime += dt
				} else {
					res.windows = append(res.windows, rate)
				}
				winAt, winDelivered = at, st.Delivered
				if seg.alternate {
					tracing = !tracing
					s.tr.tracing.Store(tracing)
				}
			}
		}
	}
	res.latFrames = int64(len(res.lat)) * int64(w.batch)
	res.sortLat(seg.span)
	return res, nil
}

// minSleep is the shortest wait the open-loop generator asks the runtime
// for; frames due within it leave together in the next write.
const minSleep = 100 * time.Microsecond

// runOpen measures one open-loop phase: frames leave on their seeded
// schedule whether or not the server keeps up, each is timed from when it
// was due, and how late the generator itself ran is reported beside it.
func (s *stack) runOpen(p *openPhase, phase int, seg segment, pinned bool) (*segResult, error) {
	res := &segResult{seg: seg, rate: p.rate, written: int64(len(p.due))}
	s.tr.tracing.Store(seg.traced)
	defer s.tr.tracing.Store(false)

	lateAt := make([]time.Duration, len(p.due))
	base := time.Now()
	led := newStampLedger(phase, base, p.due)
	s.tr.setLedger(led)
	defer s.tr.setLedger(nil)

	measuring := false
	for i := 0; i < len(p.due); {
		now := time.Since(base)
		if !measuring && i >= p.first {
			m, err := s.takeMark(pinned)
			if err != nil {
				return nil, err
			}
			res.begin = m
			measuring = true
			continue
		}
		j := i
		for j < len(p.due) && p.due[j] <= now && (measuring || j < p.first) {
			j++
		}
		if j == i {
			time.Sleep(max(p.due[i]-now, minSleep))
			continue
		}
		if err := s.conn.SetWriteDeadline(time.Now().Add(replyTimeout)); err != nil {
			return nil, err
		}
		if _, err := s.conn.Write(p.buf[p.off[i]:p.off[j]]); err != nil {
			return nil, err
		}
		wrote := time.Since(base)
		for k := i; k < j; k++ {
			lateAt[k] = wrote - p.due[k]
		}
		i = j
	}
	if !measuring { // a phase too short to leave its warm-up
		m, err := s.takeMark(pinned)
		if err != nil {
			return nil, err
		}
		res.begin = m
	}

	// Quiesce: the phase ends when everything it offered has settled, so
	// the next phase starts on an empty engine and the end mark counts
	// every measured frame.
	for deadline := time.Now().Add(replyTimeout); ; {
		st, err := s.control(engine.RecStats)
		if err != nil {
			return nil, err
		}
		res.polls++
		if st.Pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("phase %d: %d frames still pending after %v", phase, st.Pending, replyTimeout)
		}
		time.Sleep(s.w.pollEvery)
	}
	end, err := s.takeMark(pinned)
	if err != nil {
		return nil, err
	}
	res.end = end
	s.tr.setLedger(nil)
	if seg.traced {
		res.tracedTime = end.at.Sub(res.begin.at)
	}

	res.offered = int64(len(p.due) - p.first)
	res.twice, res.foreign = led.twice, led.foreign
	for k := p.first; k < len(p.due); k++ {
		res.late = append(res.late, lateAt[k].Seconds()*1e3)
		d := led.lat[k]
		if d == unsettled {
			res.undelivered++
			res.missed++
			continue
		}
		if d > s.w.latLimit {
			res.missed++
		}
		res.addLat(d.Seconds()*1e3, p.due[k]-p.due[p.first])
	}
	res.latFrames = int64(len(res.lat))
	res.sortLat(seg.span)
	sort.Float64s(res.late)
	return res, nil
}

// runResult is one workload run: its set-up times, its segments, and the
// drained engine's final account.
type runResult struct {
	w       *workload
	traced  bool
	seed    int64
	cfg     engine.Config
	epoch   time.Time // span timestamps count from here
	setups  []float64 // seconds, one per set-up repetition
	segs    []*segResult
	final   engine.Stats
	stages  engine.StageStats
	spans   [][]span
	sent    int64 // every frame written, warm-up included
	checks  []string
	leaked  int
	elapsed time.Duration
}

// A run sets the stack up at least setupReps times, and goes on while
// the set-ups so far took under a twentieth of the measured span in all
// (one second of the shipped twenty), up to setupMax: setup_s is the
// median, and a set-up of a few milliseconds needs that many repetitions,
// spread over that long, to read the same in two runs on this host. Only
// the last stack is kept.
const (
	setupReps  = 5
	setupMax   = 201
	setupShare = 20
)

// runWorkload sets the stack up, runs every segment, drains, and checks
// the account. span is the measured time, shared between the segments.
func runWorkload(w *workload, seed int64, span time.Duration, traced bool) (*runResult, error) {
	began := time.Now()
	res := &runResult{w: w, traced: traced, seed: seed, cfg: w.config(nil, 0)}
	goroutines := runtime.NumGoroutine()
	segs := w.segments(span, traced)
	sample := 0
	if traced && w.open() {
		sample = 8
	}

	var s *stack
	var in *input
	var setupTotal time.Duration
	for rep := 0; rep < setupMax && (rep < setupReps || setupTotal < span/setupShare); rep++ {
		if s != nil {
			if err := s.tearDown(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if s, err = bringUp(w, sample); err != nil {
			return nil, err
		}
		in = buildInput(w, seed, segs)
		res.setups = append(res.setups, time.Since(t0).Seconds())
		setupTotal += time.Since(t0)
	}

	if traced || w.open() {
		// The generator owns a thread for the run: traced, so that its CPU
		// can be read apart from the engine's; in an open loop, so that it
		// can have a core to itself (see affinity.go).
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	if w.open() {
		restore, err := splitCores()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s runs unpinned: %v\n", w.name, err)
		} else {
			defer restore()
		}
	}
	err := func() error {
		for i, seg := range segs {
			var r *segResult
			var err error
			if w.open() {
				r, err = s.runOpen(in.phases[i], i, seg, traced)
			} else {
				r, err = s.runClosed(in.ring, seg, traced)
			}
			if err != nil {
				return fmt.Errorf("segment %d: %w", i, err)
			}
			res.segs = append(res.segs, r)
			res.sent += r.written
		}
		final, err := s.control(engine.RecDrain)
		if err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		res.final = final
		return nil
	}()
	res.stages = s.eng.StageStats()
	res.epoch = s.tr.epoch
	res.spans = s.tr.takeSpans()
	if terr := s.tearDown(); err == nil && terr != nil {
		err = terr
	}
	if err != nil {
		return nil, err
	}

	// Close must leave nothing running: the server's connection
	// goroutines, the engine's workers and its timers all end with it.
	for wait := time.Now().Add(2 * time.Second); ; {
		res.leaked = runtime.NumGoroutine() - goroutines
		if res.leaked <= 0 || time.Now().After(wait) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	res.check()
	res.elapsed = time.Since(began)
	return res, nil
}

// check is the correctness gate: every frame offered is accounted for
// exactly once, and each workload's mechanism actually ran.
func (r *runResult) check() {
	f := r.final
	fail := func(format string, args ...any) {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
	if r.sent != f.Accepted+f.Rejected {
		fail("offered %d != accepted %d + rejected %d", r.sent, f.Accepted, f.Rejected)
	}
	if f.Accepted != f.Delivered+f.Dropped+f.Expired {
		fail("accepted %d != delivered %d + dropped %d + expired %d", f.Accepted, f.Delivered, f.Dropped, f.Expired)
	}
	if f.Pending != 0 {
		fail("pending %d after drain", f.Pending)
	}
	if r.cfg.Strategy == engine.StrategyFEC && f.FECRecovered == 0 {
		fail("no subframe was recovered from parity")
	}
	for i, s := range r.segs {
		if s.twice != 0 || s.foreign != 0 {
			fail("segment %d: %d stamps delivered twice, %d never sent", i, s.twice, s.foreign)
		}
		if s.delivered() <= 0 {
			fail("segment %d delivered nothing", i)
		}
		if s.undelivered > 0 && r.failed() == 0 {
			fail("segment %d: %d frames the engine counts delivered never reached the transport", i, s.undelivered)
		}
	}
	if r.leaked > 0 {
		fail("%d goroutines left after Close", r.leaked)
	}
}

// failed counts the frames that were offered and not delivered.
func (r *runResult) failed() int64 { return r.sent - r.final.Delivered }

var errIncorrect = errors.New("correctness check failed")
