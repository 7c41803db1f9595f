// Command perfbench is the repository's benchmark. It builds deployments
// from the public functions of the program's packages, drives one workload
// from a single goroutine for a fixed host-time budget, checks every answer
// against a brute-force oracle, and prints the metrics as one JSON line.
//
//	perfbench -workload range|churn|serve -seed N -seconds S -trace 0|1 [-out DIR]
//
// A run repeats identical passes of the workload (set-up, then the timed
// operations) until the budget is spent. With -trace 0 it prints the
// end-to-end metrics of its passes. With -trace 1 it alternates untraced and
// traced passes, prints the per-layer metrics, and writes the traced passes'
// spans to DIR. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// deploySeed draws the deployments: field layouts, Pool pivots and the
// serve workload's preloaded store. They are fixed, like the paper's §5.1
// deployments, so a run's -seed varies the workload on them (events,
// operations, fault plans, beacon jitter, arrivals) and not the network
// itself, whose shape alone moves message counts by several percent.
const deploySeed = 42

// passResult is what one pass of a workload measured.
type passResult struct {
	setup time.Duration
	// Host time of the timed calls: queries, inserts and all operations.
	queryTime, insertTime, opsTime time.Duration
	queries, inserts, ops          int
	// queryUS is the host time of each synchronous query, in µs.
	queryUS []float64
	// simS is the virtual time the pass simulated, in seconds.
	simS float64

	allocB, heap uint64
	allocStart   uint64
	traced       bool

	attempted, failed int
	failures          []string

	// det holds the pass's deterministic outputs: the same seed gives the
	// same values on every pass and every run.
	det map[string]float64
}

func newPassResult() *passResult { return &passResult{det: make(map[string]float64)} }

func (r *passResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// startTimed collects set-up garbage, then starts counting allocations.
func (r *passResult) startTimed() {
	runtime.GC()
	r.allocStart = allocatedBytes()
}

func (r *passResult) stopTimed() { r.allocB = allocatedBytes() - r.allocStart }

func allocatedBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeap collects garbage and returns the live heap while the pass's
// deployments are still reachable: the pass's peak, since every store only
// grows within a pass.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

type workloadDef struct {
	params any
	pass   func(seed int64, tr *tracer) (*passResult, error)
}

func workloads() map[string]workloadDef {
	rp, cp, sp := defaultRangeParams(), defaultChurnParams(), defaultServeParams()
	return map[string]workloadDef{
		"range": {rp, func(seed int64, tr *tracer) (*passResult, error) { return runRange(rp, seed, tr) }},
		"churn": {cp, func(seed int64, tr *tracer) (*passResult, error) { return runChurn(cp, seed, tr) }},
		"serve": {sp, func(seed int64, tr *tracer) (*passResult, error) { return runServe(sp, seed, tr) }},
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: range, churn or serve")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "host seconds to measure")
	traceFlag := fs.Int("trace", 0, "1 = per-layer metrics from traced passes")
	outDir := fs.String("out", ".perfbench", "directory for span files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads()[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (range, churn, serve)", *name)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	traced := *traceFlag == 1

	manifest := newManifest(*name, *seed, w.params, traced, *seconds)
	line, err := json.Marshal(map[string]any{"manifest": manifest})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))

	passes, tr, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), traced)
	if err != nil {
		return err
	}
	res := summarize(passes, tr)
	if traced {
		path := filepath.Join(*outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		if err := tr.write(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(tr.spans), path)
	}
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "oracle:", f)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.render(defs),
	}
	line, err = json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if res.failed > 0 {
		return fmt.Errorf("%d of %d operations failed the oracle", res.failed, res.attempted)
	}
	return nil
}

// measure repeats passes until the budget is spent. A traced run
// alternates untraced and traced passes so both see the same machine
// state; it ends only after at least one of each.
func measure(w workloadDef, seed int64, budget time.Duration, traced bool) ([]*passResult, *tracer, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var passes []*passResult
	start := time.Now()
	for i := 0; ; i++ {
		var ptr *tracer
		if traced && i%2 == 1 {
			ptr = tr
			tr.pass = i
		}
		runtime.GC() // the previous pass's garbage is not this set-up's cost
		r, err := w.pass(seed, ptr)
		if err != nil {
			return nil, nil, fmt.Errorf("pass %d: %w", i, err)
		}
		r.traced = ptr != nil
		passes = append(passes, r)
		if time.Since(start) >= budget && (!traced || i >= 1) {
			return passes, tr, nil
		}
	}
}

func median(xs []float64) float64 { return quantile(xs, 50) }

// quantile is the nearest-rank p-th percentile.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(p/100*float64(len(s))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
