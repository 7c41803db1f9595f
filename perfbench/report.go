package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"pooldcs/internal/network"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; the package tests hold the two equal.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the simulator waits on, printed by an
// untraced run. Every workload reports every one of them; README.md says
// what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"query_per_s", "1/s", "higher"},
	{"insert_per_s", "1/s", "higher"},
	{"pool_msgs_per_query", "msgs", "lower"},
	{"recall", "ratio", "higher"},
	{"alloc_mb", "MB", "lower"},
	{"peak_heap_mb", "MB", "lower"},
}

// perLayer are printed by a traced run. Host times come from the traced
// passes' spans; counts are the deterministic outputs; the workload-scoped
// end-to-end metrics come from the run's untraced passes. A metric a
// workload does not exercise reads 0.
var perLayer = []metricDef{
	// Workload-scoped end-to-end metrics: defined on one or two workloads.
	{"query_us_p50", "us", "lower"},
	{"query_us_p99", "us", "lower"},
	{"query_us_samples", "count", "higher"},
	{"dim_msgs_per_query", "msgs", "lower"},
	{"sim_s_per_s", "s/s", "higher"},
	{"op_p99_ms", "ms", "lower"},
	{"failed_pct", "%", "lower"},
	{"bench.complete_short_answers", "count", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},

	// Set-up calls.
	{"field.generate_ms", "ms", "lower"},
	{"gpsr.planarize_ms", "ms", "lower"},
	{"pool.new_ms", "ms", "lower"},
	{"dim.new_ms", "ms", "lower"},

	// Storage calls.
	{"pool.insert_us", "us", "lower"},
	{"dim.insert_us", "us", "lower"},
	{"pool.query_us", "us", "lower"},
	{"dim.query_us", "us", "lower"},
	{"ght.query_us", "us", "lower"},
	{"node.query_us", "us", "lower"},
	{"pool.cells_per_query", "cells", "lower"},
	{"dim.zones_per_query", "zones", "lower"},
	{"pool.answers_per_msg", "ratio", "higher"},
	{"dim.answers_per_msg", "ratio", "higher"},
	{"ght.recall", "ratio", "higher"},

	// Radio.
	{"network.insert_msgs", "msgs", "lower"},
	{"network.query_msgs", "msgs", "lower"},
	{"network.reply_msgs", "msgs", "lower"},
	{"network.control_msgs", "msgs", "lower"},
	{"network.drops", "frames", "lower"},

	// Event kernel.
	{"sim.events", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.run_self_s", "s", "lower"},

	// Membership and faults.
	{"discovery.beacons", "count", "lower"},
	{"discovery.detect_ms_p50", "ms", "lower"},
	{"discovery.detect_ms_p95", "ms", "lower"},
	{"chaos.crashes", "count", "lower"},
	{"chaos.recoveries", "count", "lower"},

	// Replica repair.
	{"antientropy.sessions", "count", "lower"},
	{"antientropy.symbols", "count", "lower"},
	{"antientropy.kb", "KB", "lower"},
	{"antientropy.aborted", "count", "lower"},
	{"antientropy.fallbacks", "count", "lower"},
	{"antientropy.events_moved", "count", "lower"},
	{"antientropy.divergence_end", "pairs", "lower"},

	// Actor engine.
	{"node.repairs", "count", "lower"},
	{"node.repair_ms_p95", "ms", "lower"},
	{"node.repair_kb", "KB", "lower"},
	{"node.max_queue_depth", "packets", "lower"},
	{"node.errors", "count", "lower"},

	// Load harness.
	{"load.offered", "ops", "higher"},
	{"load.served", "ops", "higher"},
	{"load.shed", "ops", "lower"},
	{"load.abandoned", "ops", "lower"},
	{"load.max_depth", "ops", "lower"},
	{"load.point_ms_p99", "ms", "lower"},
	{"load.range_ms_p99", "ms", "lower"},
	{"load.insert_ms_p99", "ms", "lower"},

	// Flight recorder.
	{"trace.events", "count", "lower"},
	{"trace.dropped", "count", "lower"},

	// Self time per module: traced span time minus child-span time, per
	// traced pass.
	{"field.self_ms", "ms", "lower"},
	{"gpsr.self_ms", "ms", "lower"},
	{"network.self_ms", "ms", "lower"},
	{"pool.self_ms", "ms", "lower"},
	{"dim.self_ms", "ms", "lower"},
	{"ght.self_ms", "ms", "lower"},
	{"sim.self_ms", "ms", "lower"},
	{"discovery.self_ms", "ms", "lower"},
	{"chaos.self_ms", "ms", "lower"},
	{"antientropy.self_ms", "ms", "lower"},
	{"node.self_ms", "ms", "lower"},
	{"load.self_ms", "ms", "lower"},
	{"trace.self_ms", "ms", "lower"},
}

// perCallSpans maps a per-call host-time metric to the span names it
// averages and the unit's length.
var perCallSpans = map[string]struct {
	spans []string
	unit  time.Duration
}{
	"field.generate_ms": {[]string{"field.Generate"}, time.Millisecond},
	"gpsr.planarize_ms": {[]string{"gpsr.New"}, time.Millisecond},
	"pool.new_ms":       {[]string{"pool.New"}, time.Millisecond},
	"dim.new_ms":        {[]string{"dim.New"}, time.Millisecond},
	"pool.insert_us":    {[]string{"pool.Insert"}, time.Microsecond},
	"dim.insert_us":     {[]string{"dim.Insert"}, time.Microsecond},
	"pool.query_us":     {[]string{"pool.Query", "pool.QueryWithReport"}, time.Microsecond},
	"dim.query_us":      {[]string{"dim.Query", "dim.QueryWithReport"}, time.Microsecond},
	"ght.query_us":      {[]string{"ght.QueryWithReport"}, time.Microsecond},
	"node.query_us":     {[]string{"node.Query", "node.QueryWithReport"}, time.Microsecond},
}

// runSpans are the spans inside which the scheduler runs.
var runSpans = []string{"sim.Run", "load.Run"}

// addNetworkCounts adds one radio's counters to the per-layer counts.
func addNetworkCounts(det map[string]float64, net *network.Network) {
	det["network.insert_msgs"] += float64(net.Messages(network.KindInsert))
	det["network.query_msgs"] += float64(net.Messages(network.KindQuery))
	det["network.reply_msgs"] += float64(net.Messages(network.KindReply))
	det["network.control_msgs"] += float64(net.Messages(network.KindControl))
	det["network.drops"] += float64(net.Drops())
}

// summary is a run's metrics, ready to print.
type summary struct {
	values            map[string]float64
	attempted, failed int
	failures          []string
}

func (s summary) render(defs []metricDef) map[string]any {
	out := make(map[string]any, len(defs))
	for _, d := range defs {
		out[d.Name] = map[string]any{"value": s.values[d.Name], "unit": d.Unit}
	}
	return out
}

// summarize folds the passes into the run's metrics. End-to-end values
// come from untraced passes only. Every pass must reproduce the first
// pass's deterministic outputs; a pass that does not counts as failed.
func summarize(passes []*passResult, tr *tracer) summary {
	s := summary{values: make(map[string]float64)}
	v := s.values
	var setup, alloc, heap, queryUS, opsRate, queryRate, insertRate, simRate []float64
	// Each traced pass is compared with the untraced pass just before it,
	// so a slow spell of the host weighs on both sides of a pair.
	var untracedOps, overhead []float64
	for i, p := range passes {
		s.attempted += p.attempted
		s.failed += p.failed
		s.failures = append(s.failures, p.failures...)
		if i > 0 && !sameDet(p.det, passes[0].det) {
			s.failed++
			s.failures = append(s.failures, fmt.Sprintf("pass %d: deterministic outputs differ from pass 0", i))
		}
		if p.traced {
			overhead = append(overhead, ratio(p.opsTime.Seconds(), passes[i-1].opsTime.Seconds()))
			continue
		}
		untracedOps = append(untracedOps, p.opsTime.Seconds())
		setup = append(setup, p.setup.Seconds())
		alloc = append(alloc, float64(p.allocB)/1e6)
		heap = append(heap, float64(p.heap)/1e6)
		queryUS = append(queryUS, p.queryUS...)
		opsRate = append(opsRate, ratio(float64(p.ops), p.opsTime.Seconds()))
		queryRate = append(queryRate, ratio(float64(p.queries), p.queryTime.Seconds()))
		insertRate = append(insertRate, ratio(float64(p.inserts), p.insertTime.Seconds()))
		simRate = append(simRate, ratio(p.simS, p.opsTime.Seconds()))
	}
	for k, x := range passes[0].det {
		v[k] = x
	}
	v["setup_s"] = median(setup)
	v["ops_per_s"] = median(opsRate)
	v["query_per_s"] = median(queryRate)
	v["insert_per_s"] = median(insertRate)
	v["alloc_mb"] = median(alloc)
	v["peak_heap_mb"] = median(heap)
	v["query_us_p50"] = quantile(queryUS, 50)
	v["query_us_p99"] = quantile(queryUS, 99)
	v["query_us_samples"] = float64(len(queryUS))
	v["sim_s_per_s"] = median(simRate)
	v["sim.ns_per_event"] = ratio(median(untracedOps)*1e9, v["sim.events"])
	v["failed_pct"] = ratio(float64(s.failed), float64(s.attempted)) * 100
	if tr == nil {
		return s
	}
	v["bench.trace_overhead_pct"] = (median(overhead) - 1) * 100

	nTraced := float64(len(overhead))
	layers := tr.layerTimes()
	for name, pc := range perCallSpans {
		var calls int
		var self time.Duration
		for _, sp := range pc.spans {
			if lt := layers[sp]; lt != nil {
				calls += lt.calls
				self += lt.self
			}
		}
		v[name] = ratio(float64(self), float64(calls)*float64(pc.unit))
	}
	for name, lt := range layers {
		module, _, _ := strings.Cut(name, ".")
		v[module+".self_ms"] += lt.self.Seconds() * 1e3 / nTraced
	}
	var runSelf time.Duration
	for _, name := range runSpans {
		if lt := layers[name]; lt != nil {
			runSelf += lt.self
		}
	}
	v["sim.run_self_s"] = runSelf.Seconds() / nTraced
	return s
}

func sameDet(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, x := range a {
		if y, ok := b[k]; !ok || x != y {
			return false
		}
	}
	return true
}

// manifest records what a run was.
type manifest struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Params     any     `json:"params"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Revision   string  `json:"git_revision"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
}

func newManifest(workload string, seed int64, params any, traced bool, seconds float64) manifest {
	return manifest{
		Workload:   workload,
		Seed:       seed,
		Params:     params,
		Seconds:    seconds,
		Traced:     traced,
		Revision:   gitRevision(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
	}
}

// gitRevision reads HEAD from the .git directory of the working directory,
// or reports "unknown" outside a git checkout.
func gitRevision() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if rev, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(rev))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
			return rev
		}
	}
	return "unknown"
}

func cpuModel() string {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(info), "\n") {
		if k, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
