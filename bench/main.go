// Command bench is the repo's end-to-end benchmark: it assembles the
// serving stack in-process the way cmd/carpoold does, drives it over one
// loopback TCP connection in four regimes, checks that every offered
// frame is accounted for, and prints each end-to-end and per-layer number
// by name. See README.md in this directory.
//
// Usage:
//
//	go run ./bench [-seed N]                       all workloads, timed + traced, results file
//	go run ./bench -workload W -trace 0|1 [-seconds S] [-seed N]
//	                                                one workload, one result line (BENCHMARK.json's command)
//	go run ./bench -selfcheck [-seed N]            two timed sets, spread against each bound
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"runtime"
	"time"
)

// defaultSeconds is the measured span of one run, BENCHMARK.json's
// run_seconds. An open-loop workload splits it between its rates, a
// traced run between its untraced and traced halves.
const defaultSeconds = 20

// procs pins GOMAXPROCS: the PHY fans receivers out over that many
// goroutines and the admission-lane default follows it, so a bigger host
// would otherwise run a different program.
const procs = 2

func main() {
	workloadName := flag.String("workload", "", "run only this workload and print one result line")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same offered records")
	seconds := flag.Int("seconds", defaultSeconds, "measured seconds per run")
	trace := flag.Int("trace", -1, "0: timed run only; 1: traced run and layers phase only; default both")
	selfcheck := flag.Bool("selfcheck", false, "run two timed sets and compare each end-to-end metric with its bound")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *trace < -1 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)
	span := time.Duration(*seconds) * time.Second

	var err error
	switch {
	case *selfcheck:
		err = runSelfcheck(*seed, span)
	case *workloadName != "":
		w := workloadByName(*workloadName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			os.Exit(2)
		}
		if *trace < 0 {
			*trace = 0
		}
		err = runOne(w, *seed, span, *trace == 1)
	default:
		err = runAll(*seed, span, *trace)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// metricsOf computes the metrics of the run's mode: end to end for a timed
// run; for a traced one its own rows, the layers-phase rows beside them,
// and the rows that combine the two.
func metricsOf(r *runResult, layers values) values {
	if !r.traced {
		return r.endToEndValues()
	}
	v := r.traceValues()
	maps.Copy(v, layers)
	deriveBudget(r, v)
	return v
}

// measure runs one workload in one mode, prints it, and files it in rec.
func measure(rec *record, w *workload, seed int64, span time.Duration, traced bool, layers values) (*runResult, values, error) {
	r, err := runWorkload(w, seed, span, traced)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	v := metricsOf(r, layers)
	if traced {
		if err := writeTrace(r); err != nil {
			return nil, nil, err
		}
	}
	printRun(r, v)
	rec.add(r, v)
	return r, v, nil
}

// runOne is the driver's entry: one workload, one mode, and as the last
// line of standard output one JSON object with the mode's metrics.
func runOne(w *workload, seed int64, span time.Duration, traced bool) error {
	rec := newRecord(seed, span)
	var layers values
	if traced {
		layers = runLayers()
	}
	r, v, err := measure(rec, w, seed, span, traced, layers)
	if err != nil {
		return err
	}
	if err := rec.write(); err != nil {
		return err
	}
	line := resultLine{
		Correct: len(r.checks) == 0, Attempted: r.sent, Failed: r.failed(),
		Metrics: withUnits(defsFor(traced), v),
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !line.Correct {
		return errIncorrect
	}
	return nil
}

// runAll is the full run: the layers phase once, then every workload
// timed and traced, every metric printed by name.
func runAll(seed int64, span time.Duration, trace int) error {
	rec := newRecord(seed, span)
	var layers values
	if trace != 0 {
		layers = runLayers()
	}
	var bad error
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if trace >= 0 && traced != (trace == 1) {
				continue // the other mode was asked for alone
			}
			r, _, err := measure(rec, w, seed, span, traced, layers)
			if err != nil {
				return err
			}
			if len(r.checks) > 0 {
				bad = errIncorrect
			}
		}
	}
	if err := rec.write(); err != nil {
		return err
	}
	return bad
}

// runSelfcheck measures the noise floor: two full timed sets back to
// back, each end-to-end metric's disagreement printed beside its bound. A
// pair counts as over when it differs by more than the bound and by more
// than the metric's absolute floor.
func runSelfcheck(seed int64, span time.Duration) error {
	rec := newRecord(seed, span)
	var sets [2]map[string]values
	for i := range sets {
		sets[i] = map[string]values{}
		for _, w := range workloads {
			r, v, err := measure(rec, w, seed, span, false, nil)
			if err != nil {
				return err
			}
			if len(r.checks) > 0 {
				return errIncorrect
			}
			sets[i][w.name] = v
		}
	}
	if err := rec.write(); err != nil {
		return err
	}
	over := 0
	fmt.Printf("%-16s %-22s %14s %14s %8s %8s\n", "workload", "metric", "set 1", "set 2", "spread", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := sets[0][w.name][d.Name], sets[1][w.name][d.Name]
			spread := 0.0
			if m := (a + b) / 2; m != 0 {
				spread = math.Abs(a-b) / m
			}
			flag := ""
			if spread > d.Bound && math.Abs(a-b) > d.Floor {
				flag = "  OVER"
				over++
			}
			fmt.Printf("%-16s %-22s %14.6g %14.6g %7.2f%% %7.2f%%%s\n", w.name, d.Name, a, b, spread*100, d.Bound*100, flag)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d metric pairs disagree by more than their bound", over)
	}
	return nil
}
