package experiment

import (
	"fmt"
	"time"

	"pooldcs/internal/deploy"
	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/network"
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
	layout, router, err := deploy.Substrate(field.DefaultSpec(cfg.PartialSize), src)
	if err != nil {
		return nil, err
	}
	sched := sim.NewScheduler()
	net := network.New(layout)
	eng, err := node.NewEngine(net, router, sched, cfg.Dims, src.Fork("pivots"), nil)
	if err != nil {
		return nil, err
	}

	gen := workload.NewUniformEvents(src.Fork("events"), cfg.Dims)
	for n := 0; n < layout.N(); n++ {
		for i := 0; i < cfg.EventsPerNode; i++ {
			if err := eng.Insert(n, gen.Next(), nil); err != nil {
				return nil, err
			}
		}
	}
	sched.Run()
	if errs := eng.Errors(); len(errs) > 0 {
		return nil, fmt.Errorf("async inserts: %v", errs[0])
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
		lat := make([]float64, 0, cfg.Queries)
		for i := 0; i < cfg.Queries; i++ {
			q, err := kind.gen()
			if err != nil {
				return nil, err
			}
			if err := eng.Query(sinkSrc.Intn(layout.N()), q, func(_ []event.Event, elapsed time.Duration) {
				lat = append(lat, float64(elapsed.Milliseconds()))
			}); err != nil {
				return nil, err
			}
		}
		sched.Run()
		if errs := eng.Errors(); len(errs) > 0 {
			return nil, fmt.Errorf("async queries (%s): %v", kind.name, errs[0])
		}
		if len(lat) != cfg.Queries {
			return nil, fmt.Errorf("%s: %d of %d queries completed", kind.name, len(lat), cfg.Queries)
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
