package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"carpool/internal/engine"
)

// The offered records are a function of the seed and nothing else.
func TestInputFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		small := *w
		small.ring = min(w.ring, 4)
		segs := small.segments(2*time.Second, false)
		a, b, c := buildInput(&small, 7, segs), buildInput(&small, 7, segs), buildInput(&small, 8, segs)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different inputs", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same input", w.name)
		}
		if w.open() {
			for i, p := range a.phases {
				if len(p.due) == 0 || p.first <= 0 || p.first >= len(p.due) {
					t.Errorf("%s phase %d: %d frames, first measured %d", w.name, i, len(p.due), p.first)
				}
				if len(p.off) != len(p.due)+1 || p.off[len(p.due)] != len(p.buf) {
					t.Errorf("%s phase %d: record offsets do not cover the buffer", w.name, i)
				}
			}
		} else if got, want := len(a.ring.batches[0]), small.batch*recordLen(&small); got != want {
			t.Errorf("%s: batch is %d bytes, want %d", w.name, got, want)
		}
	}
}

func recordLen(w *workload) int {
	if w.payload {
		return len(engine.AppendDataRecord(nil, 0, make([]byte, w.frameBytes)))
	}
	return len(engine.AppendSizeRecord(nil, 0, w.frameBytes))
}

func TestEraseShardRate(t *testing.T) {
	const draws = 1_000_000
	erased := 0
	for i := 0; i < draws; i++ {
		if eraseShard(uint64(i/128), i/8%16, i%8, false) {
			erased++
		}
	}
	if share := float64(erased) / draws; share < 0.095 || share > 0.105 {
		t.Fatalf("erased %.4f of %d draws, want 0.10 ± 0.005", share, draws)
	}
}

func TestStampLedger(t *testing.T) {
	payload := func(phase, ord int) []byte {
		p := make([]byte, 16)
		putStamp(p, phase, ord)
		return p
	}
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	l := newStampLedger(3, time.Now().Add(-time.Second), due)
	plan := &engine.Plan{
		Airtime: 5 * time.Millisecond,
		Subs: []engine.PlanSub{
			{Payloads: [][]byte{payload(3, 0), payload(3, 2)}},
			{Payloads: [][]byte{payload(3, 1)}},                // not delivered
			{Payloads: [][]byte{payload(2, 1), payload(3, 9)}}, // other phase, outside schedule
			{Payloads: [][]byte{payload(3, 0), {1, 2}}},        // repeat, too short for a stamp
		},
	}
	l.settle(plan, []bool{true, false, true, true})
	if l.lat[0] < time.Second+5*time.Millisecond || l.lat[2] < time.Second+3*time.Millisecond {
		t.Errorf("latencies %v, %v: want return time plus the plan's air time minus the due time", l.lat[0], l.lat[2])
	}
	if l.lat[1] != unsettled {
		t.Errorf("an undelivered subframe settled its frame: %v", l.lat[1])
	}
	if l.twice != 1 || l.foreign != 3 {
		t.Errorf("twice %d foreign %d, want 1 and 3", l.twice, l.foreign)
	}
}

func TestWindowedQuantile(t *testing.T) {
	r := &segResult{}
	for s := 0; s < 5; s++ {
		for i := 1; i <= 100; i++ {
			ms := float64(i)
			if s == 2 {
				ms *= 50 // one stalled second
			}
			r.addLat(ms, time.Duration(s)*time.Second+time.Duration(i)*time.Millisecond)
		}
	}
	r.addLat(1e6, 5*time.Second+time.Millisecond) // a window the span did not fill
	r.sortLat(5 * time.Second)
	if got := r.latQ(0.99); got != 99 {
		t.Errorf("windowed p99 %v, want 99: the stalled second must not set it", got)
	}
	if got := quantile(r.lat, 0.99); got < 4000 {
		t.Errorf("pooled p99 %v, want the stalled second to show", got)
	}
}

// BENCHMARK.json is written by hand from the tables in this package; the
// driver reads the file and the program prints from the tables.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	doc, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", file.Command, file.Paths)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", file.RunSeconds, defaultSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q (%q), program %q (%q)", i, file.Workloads[i].Name, file.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	strip := func(defs []metricDef) []metricDef {
		out := append([]metricDef(nil), defs...)
		for i := range out {
			out[i].Doc, out[i].Floor = "", 0
		}
		return out
	}
	if !reflect.DeepEqual(file.EndToEnd, strip(endToEnd)) {
		t.Errorf("end_to_end differs:\nfile    %+v\nprogram %+v", file.EndToEnd, strip(endToEnd))
	}
	if !reflect.DeepEqual(file.PerLayer, strip(perLayer)) {
		t.Errorf("per_layer differs:\nfile    %+v\nprogram %+v", file.PerLayer, strip(perLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(strip(endToEnd), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// Every workload, timed and traced, wired end to end at a size that takes
// a fraction of a second: the account must balance, every metric must be
// present, and nothing may be left running. No number is asserted.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		small := *w
		small.ring = min(w.ring, 2)
		if !w.open() {
			// Batches the race detector on a busy host still settles inside
			// the span, and a drain it can finish quickly.
			small.batch = min(w.batch, 8)
			small.window = small.batch
		}
		for _, traced := range []bool{false, true} {
			r, err := runWorkload(&small, 1, 600*time.Millisecond, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			for _, c := range r.checks {
				t.Errorf("%s traced=%v: %s", w.name, traced, c)
			}
			if r.sent == 0 || r.failed() != 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d", w.name, traced, r.sent, r.failed())
			}
			v := metricsOf(r, nil)
			if !traced {
				for _, d := range endToEnd {
					if x, ok := v[d.Name]; !ok || x <= 0 {
						t.Errorf("%s: %s = %v, want a positive measurement", w.name, d.Name, x)
					}
				}
				continue
			}
			if v["trace.spans"] <= 0 || v["transport.deliver_us_p50"] <= 0 {
				t.Errorf("%s: the traced run recorded no spans: %v", w.name, v)
			}
			if w.open() && (v["paced.lat_p50_ms_r12k"] <= 0 || v["paced.lat_p50_ms_r20k"] <= 0 || v["engine.stage.air_ms_p50"] <= 0) {
				t.Errorf("%s: open-loop load points missing: %v", w.name, v)
			}
		}
	}
}

// The layers phase is a set of fixtures; run each once so a renamed or
// re-shaped function fails here and not in the middle of a benchmark.
func TestLayersPhaseCoversItsRows(t *testing.T) {
	if testing.Short() {
		t.Skip("times every layer row: a few seconds")
	}
	v := runLayers()
	derived := map[string]bool{ // filled by a traced run, not by the layers phase
		"engine.gap_ns_per_tx": true, "engine.wire_overhead_ns_per_frame": true,
		"engine.receivers_per_tx": true, "engine.frames_per_tx": true, "engine.retries_per_frame": true,
		"engine.rejected_share": true, "engine.fec_recovered_share": true,
		"engine.stage.queue_wait_ms_p50": true, "engine.stage.air_ms_p50": true, "engine.stage.decode_ms_p50": true,
		"transport.deliver_us_p50": true, "transport.deliver_us_p99": true, "transport.busy_share": true,
		"loadgen.late_p99_ms": true, "loadgen.polls": true, "loadgen.cpu_share": true,
		"budget.coverage_phy": true, "budget.coverage_oracle": true, "trace.overhead_share": true, "trace.spans": true,
		"paced.lat_p50_ms_r12k": true, "paced.lat_p99_ms_r12k": true, "paced.lat_p50_ms_r20k": true,
		"paced.lat_p99_ms_r20k": true, "paced.slo_miss_share_r20k": true,
	}
	for _, d := range perLayer {
		if x, ok := v[d.Name]; !derived[d.Name] && (!ok || x <= 0) {
			t.Errorf("%s = %v, want a positive measurement", d.Name, x)
		}
	}
	for name := range v {
		found := false
		for _, d := range perLayer {
			found = found || d.Name == name
		}
		if !found {
			t.Errorf("the layers phase measures %s, which perLayer does not define", name)
		}
	}
}
