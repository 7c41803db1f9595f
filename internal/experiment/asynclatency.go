package experiment

import (
	"fmt"
	"time"

	"pooldcs/internal/deploy"
	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/node"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
	"pooldcs/internal/stats"
	"pooldcs/internal/texttable"
	"pooldcs/internal/workload"
)

// AsyncLatency measures true end-to-end query response times on the
// event-driven Pool engine (internal/node): packets hop with a 5 ms
// per-hop delay, splitters wait for every cell's acknowledgement, and a
// query completes only when the last pool reply reaches the sink. Unlike
// the analytic critical-path estimate (the latency ablation), these
// numbers come out of an actual discrete-event execution, including the
// ack waits. All of each row's queries run concurrently, as a busy sink
// population would issue them.
func AsyncLatency(cfg Config) (*Result, error) {
	title := fmt.Sprintf("Event-driven Pool query latency, N=%d (ms, %v/hop)", cfg.PartialSize, node.DefaultHopLatency)
	table := texttable.New(title, "Workload", "mean", "p50", "p95", "max")

	src := rng.New(cfg.Seed + 9995)
	u, eng, err := loadedEngine(src, cfg.PartialSize, cfg.Dims, cfg.EventsPerNode)
	if err != nil {
		return nil, err
	}

	qgen := workload.NewQueries(src.Fork("queries"), cfg.Dims)
	sinkSrc := src.Fork("sinks")
	kinds := []struct {
		name string
		gen  func() (event.Query, error)
	}{
		{"exact (exp sizes)", func() (event.Query, error) { return qgen.ExactMatch(workload.ExponentialSizes), nil }},
		{"1-partial", func() (event.Query, error) { return qgen.MPartial(1) }},
		{"2-partial", func() (event.Query, error) { return qgen.MPartial(2) }},
	}
	for _, kind := range kinds {
		queries := make([]event.Query, cfg.Queries)
		for i := range queries {
			if queries[i], err = kind.gen(); err != nil {
				return nil, err
			}
		}
		lat, err := asyncLatencies(u, eng, place(sinkSrc, cfg.PartialSize, queries))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", kind.name, err)
		}
		var sum stats.Summary
		for _, v := range lat {
			sum.Add(v)
		}
		table.AddRow(kind.name,
			texttable.Float(sum.Mean(), 1),
			texttable.Float(stats.Percentile(lat, 50), 0),
			texttable.Float(stats.Percentile(lat, 95), 0),
			texttable.Float(sum.Max(), 0))
	}
	return &Result{ID: "ablation-asynclatency", Title: title, Table: table}, nil
}

// loadedEngine is the actor-engine trial recipe: the "node" backend over
// a §5.1 deployment of n nodes drawn from src, and a concurrent insert
// wave of perNode uniform events per sensor drained to completion.
func loadedEngine(src *rng.Source, n, dims, perNode int) (*deploy.Universe, *node.Engine, error) {
	layout, err := deploy.Layout(field.DefaultSpec(n), src)
	if err != nil {
		return nil, nil, err
	}
	u, err := deploy.NewUniverse(layout, sim.NewScheduler(), "node", dims, src.Fork("pivots"), nil)
	if err != nil {
		return nil, nil, err
	}
	eng := u.Sys.(*node.Sync).Engine()
	for _, pe := range GenerateEvents(layout, perNode, workload.NewUniformEvents(src.Fork("events"), dims)) {
		if err := eng.Insert(pe.Origin, pe.Event, nil); err != nil {
			return nil, nil, err
		}
	}
	u.Sched.Run()
	if errs := eng.Errors(); len(errs) > 0 {
		return nil, nil, fmt.Errorf("async inserts: %v", errs[0])
	}
	return u, eng, nil
}

// asyncLatencies issues every query at once on eng, as a busy sink
// population would, drains the scheduler, and returns each query's
// end-to-end latency in ms in completion order.
func asyncLatencies(u *deploy.Universe, eng *node.Engine, queries []PlacedQuery) ([]float64, error) {
	lat := make([]float64, 0, len(queries))
	for _, pq := range queries {
		if err := eng.Query(pq.Sink, pq.Query, func(_ []event.Event, elapsed time.Duration) {
			lat = append(lat, float64(elapsed.Milliseconds()))
		}); err != nil {
			return nil, err
		}
	}
	u.Sched.Run()
	if errs := eng.Errors(); len(errs) > 0 {
		return nil, fmt.Errorf("async queries: %v", errs[0])
	}
	if len(lat) != len(queries) {
		return nil, fmt.Errorf("%d of %d queries completed", len(lat), len(queries))
	}
	return lat, nil
}
