package metrics

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Sampling — every registered family is reduced to one scalar per tick
// (counter/gauge value, vec sum, histogram count) and appended to an
// in-memory time series stamped with the scheduler's virtual clock. The
// series answer "when did the hotspot form" questions that a final
// snapshot cannot.

// Sample appends one point per family, stamped at the given virtual
// time. Harmless on the disabled registry.
func (r *Registry) Sample(at time.Duration) {
	if r == nil {
		return
	}
	for _, e := range r.entries {
		e.series = append(e.series, Sample{T: at, V: e.scalar()})
	}
}

// Timer is the part of a discrete-event scheduler that sampling runs on;
// *sim.Scheduler implements it.
type Timer interface {
	Now() time.Duration
	After(d time.Duration, fn func())
}

// StartSampling schedules a self-repeating sampling event on the
// scheduler every tick, starting one tick from now, and returns a stop
// function; without it the series grows until the scheduler drains. The
// returned stop is a no-op on the disabled registry.
func (r *Registry) StartSampling(sched Timer, tick time.Duration) (stop func()) {
	if r == nil || sched == nil || tick <= 0 {
		return func() {}
	}
	stopped := false
	var loop func()
	loop = func() {
		if stopped {
			return
		}
		r.Sample(sched.Now())
		sched.After(tick, loop)
	}
	sched.After(tick, loop)
	return func() { stopped = true }
}

// Series returns the sampled points of the named family (nil when the
// name is unknown or nothing was sampled).
func (r *Registry) Series(name string) []Sample {
	if r == nil {
		return nil
	}
	e, ok := r.byName[name]
	if !ok {
		return nil
	}
	return e.series
}

// SeriesSummary condenses one sampled series for table rendering.
type SeriesSummary struct {
	Name           string
	Points         int
	First, Last    float64
	Min, Mean, Max float64
	Spark          string
}

// sparkBlocks are the eight block characters a sparkline is drawn with.
var sparkBlocks = []rune("▁▂▃▄▅▆▇█")

// sparkline renders up to width buckets of the series as block
// characters scaled to its min..max range.
func sparkline(s []Sample, width int) string {
	if len(s) == 0 || width <= 0 {
		return ""
	}
	if len(s) < width {
		width = len(s)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range s {
		lo = math.Min(lo, p.V)
		hi = math.Max(hi, p.V)
	}
	var b strings.Builder
	for i := 0; i < width; i++ {
		// Bucket the series evenly; each cell shows its bucket's last value.
		j := (i+1)*len(s)/width - 1
		v := s[j].V
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkBlocks)-1))
		}
		b.WriteRune(sparkBlocks[idx])
	}
	return b.String()
}

// Summaries returns one SeriesSummary per sampled family in registration
// order, skipping families that were never sampled. sparkWidth bounds
// the sparkline length (0 disables sparklines).
func (r *Registry) Summaries(sparkWidth int) []SeriesSummary {
	if r == nil {
		return nil
	}
	var out []SeriesSummary
	for _, e := range r.entries {
		if len(e.series) == 0 {
			continue
		}
		sum := SeriesSummary{
			Name:   e.name,
			Points: len(e.series),
			First:  e.series[0].V,
			Last:   e.series[len(e.series)-1].V,
			Min:    math.Inf(1),
			Max:    math.Inf(-1),
		}
		var total float64
		for _, p := range e.series {
			sum.Min = math.Min(sum.Min, p.V)
			sum.Max = math.Max(sum.Max, p.V)
			total += p.V
		}
		sum.Mean = total / float64(len(e.series))
		if sparkWidth > 0 {
			sum.Spark = sparkline(e.series, sparkWidth)
		}
		out = append(out, sum)
	}
	return out
}

// String renders a sample for debugging.
func (s Sample) String() string { return fmt.Sprintf("%v=%g", s.T, s.V) }
