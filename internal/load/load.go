// Package load is the sustained-traffic harness: an open-loop workload
// driver that subjects a DCS deployment to Poisson (or deterministic, or
// closed-loop) arrivals of Zipf-skewed queries and inserts, measures
// per-class latency on the virtual clock, tracks SLO compliance per
// window, and applies admission control at the serving stations when
// offered load exceeds capacity.
//
// The batch experiment tables answer "how many messages does a query
// cost?"; this package answers the service questions those tables cannot
// see — where the throughput knee sits, how tail latency grows past
// saturation, and what shedding or batching buys back. Everything runs
// on internal/sim's virtual clock, so a seeded run is reproducible to
// the tick regardless of host speed.
package load

import (
	"fmt"
	"sort"
	"time"

	"pooldcs/internal/attrib"
	"pooldcs/internal/event"
	"pooldcs/internal/metrics"
	"pooldcs/internal/stats"
)

// Class is the operation class of one request.
type Class int

// Operation classes.
const (
	// PointQuery is an exact lookup: a degenerate range on every
	// attribute.
	PointQuery Class = iota
	// RangeQuery is a multi-dimensional range query.
	RangeQuery
	// Insert stores a new event.
	Insert

	numClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case PointQuery:
		return "point"
	case RangeQuery:
		return "range"
	case Insert:
		return "insert"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Classes lists the operation classes in report order.
func Classes() []Class { return []Class{PointQuery, RangeQuery, Insert} }

// Op is one generated operation.
type Op struct {
	// Class selects which of the payload fields is meaningful.
	Class Class
	// Node is the sink issuing a query, or the sensor detecting an
	// inserted event.
	Node int
	// Event is the inserted event (Insert only).
	Event event.Event
	// Query is the issued query (PointQuery and RangeQuery).
	Query event.Query
}

// Mix is the class mix of the offered traffic. The weights are relative;
// they need not sum to 1.
type Mix struct {
	Point  float64
	Range  float64
	Insert float64
}

// DefaultMix is a read-mostly service mix: 60% point lookups, 30% range
// scans, 10% inserts.
var DefaultMix = Mix{Point: 0.6, Range: 0.3, Insert: 0.1}

// Validate rejects degenerate mixes.
func (m Mix) Validate() error {
	if m.Point < 0 || m.Range < 0 || m.Insert < 0 {
		return fmt.Errorf("load: negative mix weight %+v", m)
	}
	if m.Point+m.Range+m.Insert <= 0 {
		return fmt.Errorf("load: mix has no weight")
	}
	return nil
}

// SLO is the latency objective evaluated per window over the query
// classes (point and range; inserts are fire-and-forget).
type SLO struct {
	// Window is the evaluation granularity on the virtual clock.
	Window time.Duration
	// P99 is the target 99th-percentile latency per window.
	P99 time.Duration
	// Budget is the error budget: the tolerated fraction of breached
	// windows. Burn rates are breached-window fractions divided by this
	// budget, so burn > 1 means the budget is being spent faster than it
	// accrues. Zero selects the default (5%).
	Budget float64
}

// DefaultSLO evaluates p99 < 500ms over 2-second windows with a 5%
// error budget.
var DefaultSLO = SLO{Window: 2 * time.Second, P99: 500 * time.Millisecond, Budget: 0.05}

// burnFastWindows is the fast burn rate's lookback in verdicts.
const burnFastWindows = 6

// Breaches returns the verdict of every window that saw query traffic,
// in window order: true when the window's query p99 exceeds s.P99. A
// window with no queries has no verdict, so an insert-only stretch of a
// run neither burns nor earns error budget.
func (s SLO) Breaches(windows map[int64]*stats.IntHistogram) []bool {
	idxs := make([]int64, 0, len(windows))
	for idx := range windows {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	target := int64(s.P99 / time.Millisecond)
	breached := make([]bool, len(idxs))
	for i, idx := range idxs {
		breached[i] = windows[idx].Quantile(99) > target
	}
	return breached
}

// BurnRates is the burn-rate rule: the breached fraction of the last
// burnFastWindows verdicts (fast) and of all verdicts (slow), each
// divided by s.Budget. Both are zero without verdicts or budget.
func (s SLO) BurnRates(breached []bool) (fast, slow float64) {
	n := len(breached)
	if n == 0 || s.Budget <= 0 {
		return 0, 0
	}
	frac := func(v []bool) float64 {
		bad := 0
		for _, b := range v {
			if b {
				bad++
			}
		}
		return float64(bad) / float64(len(v))
	}
	return frac(breached[max(0, n-burnFastWindows):]) / s.Budget, frac(breached) / s.Budget
}

// RegisterBurnRates exports the two burn rates as the slo_burn_fast and
// slo_burn_slow gauges on reg, read from fast and slow at snapshot time.
func RegisterBurnRates(reg *metrics.Registry, fast, slow func() float64) {
	reg.GaugeFunc("slo_burn_fast",
		"breached-window fraction over the last 6 windows with queries divided by the error budget", fast)
	reg.GaugeFunc("slo_burn_slow",
		"breached-window fraction over every window with queries divided by the error budget", slow)
}

// Exemplar is one worst-offender query captured when an SLO window
// closed in breach: its attributed latency breakdown is the evidence
// for why that window's tail was slow.
type Exemplar struct {
	// Window is the breached evaluation window's index.
	Window int64
	// Node is the sink that issued the query.
	Node int
	// Latency is the query's completion latency.
	Latency time.Duration
	// Breakdown is the per-phase decomposition of Latency (zero when
	// the flight recorder had already evicted the whole span).
	Breakdown attrib.Breakdown
	// Truncated reports that eviction left the breakdown partial: the
	// unexplained remainder sits in the "other" phase.
	Truncated bool
}

// ClassStats aggregates one class's outcomes over a run.
type ClassStats struct {
	// Offered counts generated operations of this class.
	Offered uint64
	// Served counts operations that completed normally.
	Served uint64
	// Shed counts operations rejected by admission control.
	Shed uint64
	// Degraded counts operations served through a coalesced batch.
	Degraded uint64
	// Latency holds the completion latencies in milliseconds of served
	// and degraded operations.
	Latency *stats.IntHistogram
}

// Report is the outcome of one load run.
type Report struct {
	// Target names the backend under load.
	Target string
	// Mode describes the arrival regime ("open/poisson", "closed", …).
	Mode string
	// OfferedRate is the configured open-loop rate in ops/sec (0 for
	// closed loop).
	OfferedRate float64
	// Duration is the offered-traffic horizon on the virtual clock.
	Duration time.Duration
	// Offered, Served, Shed, Degraded, Abandoned count operations over
	// all classes. Abandoned operations were still queued when the run's
	// drain deadline passed — the signature of unbounded queue growth.
	Offered, Served, Shed, Degraded, Abandoned uint64
	// ServedInHorizon counts completions inside the offered-traffic
	// horizon (excluding the drain). Past saturation this flattens at
	// the system's capacity while Served keeps counting queue drainage.
	ServedInHorizon uint64
	// PerClass breaks the counts and latencies down by class.
	PerClass [numClasses]ClassStats
	// SLOWindows is the number of evaluation windows that saw at least
	// one query completion; SLOOK counts those meeting the p99 target.
	SLOWindows, SLOOK int
	// MaxDepth is the deepest station queue observed.
	MaxDepth int
	// Engagements counts admission-controller engage transitions summed
	// over stations.
	Engagements int
	// Exemplars holds the worst offenders of breached SLO windows, in
	// window order (autopsy runs only).
	Exemplars []Exemplar
	// BurnFast and BurnSlow are the multi-window burn rates
	// (SLO.BurnRates): the breached-window fraction over the last few
	// windows with query traffic (fast — pages when a regression is in
	// progress) and over all of them (slow — tracks budget exhaustion),
	// each divided by the error budget.
	BurnFast, BurnSlow float64
}

// ServedPerSec is the delivered throughput: completions inside the
// offered horizon per second. Past the knee this flattens at capacity.
func (r *Report) ServedPerSec() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.ServedInHorizon) / r.Duration.Seconds()
}

// ShedPct is the percentage of offered operations rejected.
func (r *Report) ShedPct() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Shed) / float64(r.Offered) * 100
}

// SLOPct is the percentage of evaluation windows meeting the target
// (100 when no window saw traffic).
func (r *Report) SLOPct() float64 {
	if r.SLOWindows == 0 {
		return 100
	}
	return float64(r.SLOOK) / float64(r.SLOWindows) * 100
}

// QueryLatency merges the point- and range-class latency histograms:
// the distribution the SLO is evaluated over.
func (r *Report) QueryLatency() *stats.IntHistogram {
	h := stats.NewIntHistogram()
	h.Merge(r.PerClass[PointQuery].Latency)
	h.Merge(r.PerClass[RangeQuery].Latency)
	return h
}
