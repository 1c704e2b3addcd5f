// Command benchdiff runs the repository's hot-path benchmark suite —
// BenchmarkFFT64, the hard/soft/quantized Viterbi decoders on a 1500-byte
// MPDU, BenchmarkCarpoolFrameReceive, BenchmarkMACSimulationSecond, and
// the real-time engine pair (deterministic second, concurrent
// submit+drain) — parses the `go test -bench` output, and writes the
// results to
// BENCH_<date>.json so successive runs can be diffed.
//
// When a prior BENCH_*.json exists (the newest one in -dir, or the file
// named by -baseline), benchdiff prints per-benchmark deltas in ns/op and
// allocs/op against it. With -fail-over=<pct> it exits non-zero when any
// benchmark regresses by more than pct percent in either column, so CI can
// gate on the disabled-observability overhead staying flat.
//
// Usage:
//
//	benchdiff [-dir repo-root] [-out file.json] [-count n] [-bench regexp]
//	          [-benchtime t] [-baseline file.json] [-fail-over pct]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// suite is the default benchmark set: the size-64 FFT kernel, the Viterbi
// decoders on a full 1500-byte MPDU (hard, float64 soft, and the quantized
// int8 fast path), one station's whole-frame Carpool receive, one
// simulated second of the MAC, and the real-time engine's deterministic
// second, concurrent submit+drain (per-frame and batched), and the
// batched wire round trip over loopback TCP. The
// observability arm pins what telemetry costs: the deterministic second
// with 1-in-8 lifecycle sampling, a Stats snapshot on a populated engine,
// and one ring-tracer emission. The parallel-submit family drives the
// same fixed workload through 1, 4, and 16 concurrent submitters — the
// sharded-admission scalability gate — and BenchmarkDemapSoftQ64QAM pins
// the per-axis quantized demap kernel on one OFDM symbol. The erasure
// arm gates the GF(256) Reed-Solomon kernels (encode over 4- and
// 16-subframe aggregates, worst-case two-erasure reconstruct, ragged
// encode over a 6+2 aggregate of unequal shards) at zero allocations per
// op, and one whole coded delivery on the oracle transport likewise.
// BenchmarkPHYDeliver8x300B is one phy_sat transmission end to end on
// PHYTransport. The cluster arm covers multi-AP serving: the same
// 10k-frame submit+drain routed across 4 and 16 APs by the lock-free
// STA→AP map, and one Pick/Observe cycle of the learning spatial-reuse
// scheduler.
var suite = []string{
	"BenchmarkFFT64",
	"BenchmarkViterbiDecode1500B",
	"BenchmarkViterbiDecodeSoft1500B",
	"BenchmarkViterbiDecodeSoftQ1500B",
	"BenchmarkCarpoolFrameReceive",
	"BenchmarkMACSimulationSecond",
	"BenchmarkEngineDeterministicSecond",
	"BenchmarkEngineSubmitDrain10k",
	"BenchmarkEngineBatchSubmitDrain10k",
	"BenchmarkWireBatchRoundtrip",
	"BenchmarkEngineDeterministicSampled",
	"BenchmarkEngineStats",
	"BenchmarkTracerEmit",
	"BenchmarkEngineParallelSubmit1Conns",
	"BenchmarkEngineParallelSubmit4Conns",
	"BenchmarkEngineParallelSubmit16Conns",
	"BenchmarkDemapSoftQ64QAM",
	"BenchmarkRSEncode4Sub",
	"BenchmarkRSEncode16Sub",
	"BenchmarkRSReconstruct",
	"BenchmarkRSEncodeRagged6x2",
	"BenchmarkCodedDeliverFEC",
	"BenchmarkPHYDeliver8x300B",
	"BenchmarkClusterSubmitDrain4AP",
	"BenchmarkClusterSubmitDrain16AP",
	"BenchmarkBanditSchedulerStep",
}

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Report is the file layout of BENCH_<date>.json.
type Report struct {
	Date      string   `json:"date"`
	GoVersion string   `json:"go_version"`
	Bench     string   `json:"bench_regexp"`
	Results   []Result `json:"results"`
}

// benchLine matches the leading fields of go test -bench output, e.g.
//
//	BenchmarkFFT64-8   2599786   458.7 ns/op   0 B/op   0 allocs/op
//
// Extra metrics such as MB/s may appear between ns/op and the -benchmem
// columns, so those are matched separately.
var (
	benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op`)
	bytesCol  = regexp.MustCompile(`(\d+) B/op`)
	allocsCol = regexp.MustCompile(`(\d+) allocs/op`)
)

func main() {
	dir := flag.String("dir", ".", "repository root to benchmark")
	out := flag.String("out", "", "output file (default BENCH_<date>.json in -dir)")
	count := flag.Int("count", 1, "benchmark repetitions (-count)")
	bench := flag.String("bench", "^("+strings.Join(suite, "|")+")$", "benchmark regexp (-bench)")
	benchtime := flag.String("benchtime", "", "per-benchmark time or iterations (-benchtime), e.g. 0.3s for a smoke run")
	baseline := flag.String("baseline", "", "prior BENCH_*.json to diff against (default: newest in -dir)")
	failOver := flag.Float64("fail-over", 0, "exit non-zero when ns/op or allocs/op regress by more than this percentage (0 disables gating)")
	flag.Parse()

	report, raw, err := run(*dir, *bench, *count, *benchtime)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n%s", err, raw)
		os.Exit(1)
	}
	path := *out
	if path == "" {
		path = filepath.Join(*dir, "BENCH_"+time.Now().Format("2006-01-02")+".json")
	}

	prev, prevPath, err := loadBaseline(*dir, *baseline, path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(1)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(1)
	}
	for _, r := range report.Results {
		fmt.Printf("%-32s %12.1f ns/op %8d B/op %6d allocs/op\n",
			r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
	fmt.Printf("wrote %s (%d results)\n", path, len(report.Results))

	if prev == nil {
		if *failOver > 0 {
			fmt.Fprintln(os.Stderr, "benchdiff: no prior BENCH_*.json to gate against")
		}
		return
	}
	regressions := printDeltas(report, prev, prevPath, *failOver)
	if *failOver > 0 && regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d benchmark(s) regressed beyond %.0f%%\n",
			regressions, *failOver)
		os.Exit(2)
	}
}

// loadBaseline picks the report to diff against: the explicit -baseline
// file, or the newest BENCH_*.json in dir other than the output path.
// A missing implicit baseline is not an error — first runs have nothing to
// diff against.
func loadBaseline(dir, explicit, outPath string) (*Report, string, error) {
	path := explicit
	if path == "" {
		matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
		if err != nil {
			return nil, "", err
		}
		outAbs, _ := filepath.Abs(outPath)
		sort.Strings(matches) // BENCH_<ISO date>.json sorts chronologically
		for i := len(matches) - 1; i >= 0; i-- {
			abs, _ := filepath.Abs(matches[i])
			if abs != outAbs {
				path = matches[i]
				break
			}
		}
		if path == "" {
			return nil, "", nil
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", fmt.Errorf("baseline %s: %w", path, err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, "", fmt.Errorf("baseline %s: %w", path, err)
	}
	return &r, path, nil
}

// printDeltas renders the per-benchmark change against prev and returns how
// many benchmarks regressed beyond failOver percent (in ns/op or allocs/op).
// With failOver <= 0 nothing counts as a regression.
func printDeltas(cur, prev *Report, prevPath string, failOver float64) int {
	prior := make(map[string]Result, len(prev.Results))
	for _, r := range prev.Results {
		prior[r.Name] = r
	}
	fmt.Printf("\ndeltas vs %s (%s):\n", prevPath, prev.Date)
	regressions := 0
	for _, r := range cur.Results {
		p, ok := prior[r.Name]
		if !ok {
			fmt.Printf("%-32s (no baseline entry)\n", r.Name)
			continue
		}
		nsPct := pctChange(p.NsPerOp, r.NsPerOp)
		allocPct := pctChange(float64(p.AllocsPerOp), float64(r.AllocsPerOp))
		flag := ""
		if failOver > 0 && (nsPct > failOver || allocPct > failOver) {
			flag = "  REGRESSION"
			regressions++
		}
		fmt.Printf("%-32s %12.1f -> %12.1f ns/op (%+6.1f%%) %6d -> %6d allocs/op (%+6.1f%%)%s\n",
			r.Name, p.NsPerOp, r.NsPerOp, nsPct, p.AllocsPerOp, r.AllocsPerOp, allocPct, flag)
	}
	return regressions
}

// pctChange returns the percent increase from old to cur; a zero baseline
// regresses only if the current value is nonzero.
func pctChange(old, cur float64) float64 {
	if old == 0 {
		if cur == 0 {
			return 0
		}
		return 100
	}
	return (cur - old) / old * 100
}

// run executes the benchmark suite and parses its output.
func run(dir, bench string, count int, benchtime string) (*Report, string, error) {
	args := []string{"test", "-run", "^$",
		"-bench", bench, "-benchmem", "-count", strconv.Itoa(count)}
	if benchtime != "" {
		args = append(args, "-benchtime", benchtime)
	}
	args = append(args, ".")
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	rawBytes, err := cmd.CombinedOutput()
	raw := string(rawBytes)
	if err != nil {
		return nil, raw, fmt.Errorf("go test -bench: %w", err)
	}
	report := &Report{
		Date:      time.Now().Format(time.RFC3339),
		GoVersion: goVersion(),
		Bench:     bench,
	}
	for _, line := range strings.Split(raw, "\n") {
		line = strings.TrimSpace(line)
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		r := Result{Name: m[1]}
		r.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
		r.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
		if b := bytesCol.FindStringSubmatch(line); b != nil {
			r.BytesPerOp, _ = strconv.ParseInt(b[1], 10, 64)
		}
		if a := allocsCol.FindStringSubmatch(line); a != nil {
			r.AllocsPerOp, _ = strconv.ParseInt(a[1], 10, 64)
		}
		report.Results = append(report.Results, r)
	}
	if len(report.Results) == 0 {
		return nil, raw, fmt.Errorf("no benchmark lines in output")
	}
	return report, raw, nil
}

func goVersion() string {
	out, err := exec.Command("go", "version").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
