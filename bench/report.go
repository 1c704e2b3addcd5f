package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// printRun prints one workload run for a reader: the account, each
// segment, and every metric of the run's mode by name with its unit.
func printRun(r *runResult, v values) {
	mode := "timed"
	if r.traced {
		mode = "traced"
	}
	f := r.final
	fmt.Printf("== %s (%s, seed %d, %.1fs)\n", r.w.name, mode, r.seed, r.elapsed.Seconds())
	fmt.Printf("   attempted %d failed %d | accepted %d rejected %d delivered %d dropped %d expired %d pending %d | retries %d fec_recovered %d\n",
		r.sent, r.failed(), f.Accepted, f.Rejected, f.Delivered, f.Dropped, f.Expired, f.Pending, f.Retries, f.FECRecovered)
	fmt.Printf("   failed_share %.6f | drain cross-check: airtime_goodput %.3f Mbit/s, bucketed latency p50 %.3f p99 %.3f ms, mean group %.2f\n",
		ratio(r.failed(), r.sent), f.AirtimeGoodputMbps, f.LatencyP50Ms, f.LatencyP99Ms, f.MeanGroupSize)
	for i, s := range r.segs {
		kind := "closed loop"
		if s.rate > 0 {
			kind = fmt.Sprintf("open loop %.0f frames/s", s.rate)
		}
		if s.seg.alternate {
			kind += ", spans on in alternate windows"
		} else if s.seg.traced {
			kind += ", spans on"
		}
		fmt.Printf("   segment %d: %s, %.2fs, offered %d, delivered_fps %.1f, cpu %.4f us/frame, lat p50 %.4f p99 %.4f ms (all %d frames pooled: %.4f, %.4f)",
			i, kind, s.seconds(), s.offered, s.deliveredFPS(), s.cpuPerFrameUs(), s.latQ(0.5), s.latQ(0.99), s.latFrames, quantile(s.lat, 0.5), quantile(s.lat, 0.99))
		if s.rate > 0 {
			fmt.Printf(", slo_miss_share %.6f, generator late p99 %.4f ms", ratio(s.missed, s.offered), quantile(s.late, 0.99))
		} else {
			fmt.Printf(", %d windows, %d polls", len(s.windows)+len(s.windowsTraced), s.polls)
		}
		fmt.Println()
	}
	for _, c := range r.checks {
		fmt.Printf("   CHECK FAILED: %s\n", c)
	}
	for _, d := range defsFor(r.traced) {
		fmt.Printf("   %-36s %16.6f %s\n", d.Name, v[d.Name], d.Unit)
	}
}

// host is the shape of the machine the numbers were taken on.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func hostShape() host {
	return host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: cpuModel(),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// repoRoot walks up from the working directory to the module root, so
// results land in bench/ whether the command runs from the root or from
// inside the package.
func repoRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return "."
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		if filepath.Dir(d) == d {
			return dir
		}
	}
}

// shortCommit reads the checked-out commit from .git without running git;
// a checkout that is not a repository reports "nogit".
func shortCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "nogit"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		ref = ""
		if b, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
			ref = strings.TrimSpace(string(b))
		} else if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
			for _, line := range strings.Split(string(packed), "\n") {
				if sha, n, ok := strings.Cut(line, " "); ok && n == name {
					ref = sha
				}
			}
		}
	}
	if len(ref) < 7 {
		return "nogit"
	}
	return ref[:7]
}

// record is one invocation's results file: host shape, inputs, and every
// workload run with its per-window rates and metrics.
type record struct {
	When    string               `json:"when_utc"`
	Commit  string               `json:"commit"`
	Host    host                 `json:"host"`
	Seed    int64                `json:"seed"`
	Seconds float64              `json:"measured_seconds"`
	Runs    []recordRun          `json:"runs"`
	Defs    map[string]metricDoc `json:"metric_definitions"`
	root    string
}

// metricDoc is a metric's entry in the results file: BENCHMARK.json's
// fields and how the number is measured.
type metricDoc struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Doc    string  `json:"how"`
}

type recordRun struct {
	Workload  string          `json:"workload"`
	Mode      string          `json:"mode"`
	Correct   bool            `json:"correct"`
	Checks    []string        `json:"failed_checks,omitempty"`
	Attempted int64           `json:"attempted"`
	Failed    int64           `json:"failed"`
	ElapsedS  float64         `json:"elapsed_s"`
	SetupsS   []float64       `json:"setups_s"`
	Segments  []recordSegment `json:"segments"`
	Metrics   values          `json:"metrics"`
}

type recordSegment struct {
	Kind         string    `json:"kind"`
	RateFPS      float64   `json:"offered_rate_fps,omitempty"`
	Traced       bool      `json:"spans_on"`
	WarmS        float64   `json:"warm_s"`
	SpanS        float64   `json:"span_s"`
	Offered      int64     `json:"offered"`
	Delivered    int64     `json:"delivered"`
	WindowsFPS   []float64 `json:"window_delivered_fps,omitempty"`
	WindowsOnFPS []float64 `json:"window_delivered_fps_spans_on,omitempty"`
	LatFrames    int64     `json:"latency_sample_frames"`
	SLOMissShare float64   `json:"slo_miss_share"`
	LateP99Ms    float64   `json:"generator_late_p99_ms"`
	Polls        int64     `json:"polls"`
}

func newRecord(seed int64, span time.Duration) *record {
	root := repoRoot()
	defs := map[string]metricDoc{}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			defs[d.Name] = metricDoc{d.Unit, d.Better, d.Bound, d.Doc}
		}
	}
	return &record{
		When: time.Now().UTC().Format("20060102T150405Z"), Commit: shortCommit(root), Host: hostShape(),
		Seed: seed, Seconds: span.Seconds(), Defs: defs, root: root,
	}
}

func (rec *record) add(r *runResult, v values) {
	run := recordRun{
		Workload: r.w.name, Mode: "timed", Correct: len(r.checks) == 0, Checks: r.checks,
		Attempted: r.sent, Failed: r.failed(), ElapsedS: r.elapsed.Seconds(), SetupsS: r.setups,
		Metrics: v,
	}
	if r.traced {
		run.Mode = "traced"
	}
	for _, s := range r.segs {
		kind := "closed"
		if s.rate > 0 {
			kind = "open"
		}
		run.Segments = append(run.Segments, recordSegment{
			Kind: kind, RateFPS: s.rate, Traced: s.seg.traced, WarmS: s.seg.warm.Seconds(), SpanS: s.seconds(),
			Offered: s.offered, Delivered: s.framesIn(), WindowsFPS: s.windows, WindowsOnFPS: s.windowsTraced, LatFrames: s.latFrames,
			SLOMissShare: ratio(s.missed, s.offered), LateP99Ms: quantile(s.late, 0.99), Polls: s.polls,
		})
	}
	rec.Runs = append(rec.Runs, run)
}

// write stores the record under bench/results, never over an older file.
func (rec *record) write() error {
	dir := filepath.Join(rec.root, "bench", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	for n := 0; ; n++ {
		name := fmt.Sprintf("%s-%s.json", rec.When, rec.Commit)
		if n > 0 {
			name = fmt.Sprintf("%s-%s.%d.json", rec.When, rec.Commit, n)
		}
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) {
			continue
		}
		if err != nil {
			return err
		}
		if _, err := f.Write(append(doc, '\n')); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("results: %s\n", filepath.Join("bench", "results", name))
		return nil
	}
}

// maxTraceSpans caps the spans written to one trace file; a saturated
// oracle run records several hundred thousand and a viewer needs only the
// shape. The metrics use every span.
const maxTraceSpans = 50000

// writeTrace writes the run's Deliver spans as Chrome trace_event JSON
// (chrome://tracing, Perfetto) under bench/out.
func writeTrace(r *runResult) error {
	dir := filepath.Join(repoRoot(), "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", r.w.name, r.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, `{"displayTimeUnit":"ns","otherData":{"workload":%q,"seed":%d,"spans_cap_per_worker":%d},"traceEvents":[`+"\n",
		r.w.name, r.seed, maxTraceSpans/max(len(r.spans), 1))
	first := true
	for worker, lane := range r.spans {
		for i, sp := range lane {
			if i == maxTraceSpans/len(r.spans) {
				break
			}
			if !first {
				bw.WriteString(",\n")
			}
			first = false
			fmt.Fprintf(bw, `{"name":"Deliver","cat":"transport","ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"seq":%d,"receivers":%d,"bytes":%d,"delivered":%d}}`,
				worker, float64(sp.start)/1e3, float64(sp.end-sp.start)/1e3, sp.seq, sp.subs, sp.bytes, sp.ok)
		}
	}
	bw.WriteString("\n]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("trace: %s\n", filepath.Join("bench", "out", filepath.Base(path)))
	return nil
}
