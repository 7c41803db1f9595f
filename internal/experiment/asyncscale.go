package experiment

import (
	"fmt"

	"pooldcs/internal/node"
	"pooldcs/internal/rng"
	"pooldcs/internal/stats"
	"pooldcs/internal/texttable"
	"pooldcs/internal/workload"
)

// AsyncScale sweeps the event-driven Pool engine across universe sizes —
// up to 4× the fixed N=900 deployment the other actor-engine tables use —
// and reports what the discrete-event kernel absorbed to get there: total
// scheduler events fired, the virtual time the concurrent insert wave
// takes to drain, end-to-end query latency percentiles, and the
// per-query message cost. Each row's whole insert population is in
// flight at once (one hop-by-hop exchange per stored event), then the
// row's whole query population runs concurrently, the way a busy sink
// population would issue it. The largest points are practical only on
// the ladder-queue kernel — tens of thousands of simultaneously pending
// per-hop deliveries are exactly its steady-state workload.
func AsyncScale(cfg Config, sizes []int) (*Result, error) {
	title := fmt.Sprintf("Actor-engine scale sweep (%v/hop, %d queries/point)", node.DefaultHopLatency, cfg.Queries)
	table := texttable.New(title, "N", "events", "drain-ms", "p50-ms", "p95-ms", "msgs/query")

	type row struct {
		events   uint64
		drainMs  float64
		p50, p95 float64
		msgs     float64
	}
	rows, err := forEach(cfg.parallel(), len(sizes), func(i int) (row, error) {
		n := sizes[i]
		src := rng.New(cfg.Seed + 9996 + int64(n))
		u, eng, err := loadedEngine(src, n, cfg.Dims, cfg.EventsPerNode)
		if err != nil {
			return row{}, fmt.Errorf("n=%d: %w", n, err)
		}
		r := row{drainMs: float64(u.Sched.Now().Milliseconds())}

		queries := exact(workload.NewQueries(src.Fork("queries"), cfg.Dims), cfg.Queries, workload.ExponentialSizes)
		before := queryMsgs(u.Net)
		lat, err := asyncLatencies(u, eng, place(src.Fork("sinks"), n, queries))
		if err != nil {
			return row{}, fmt.Errorf("n=%d: %w", n, err)
		}
		r.events = u.Sched.Executed()
		r.p50 = stats.Percentile(lat, 50)
		r.p95 = stats.Percentile(lat, 95)
		r.msgs = float64(queryMsgs(u.Net)-before) / float64(cfg.Queries)
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	for i, n := range sizes {
		r := rows[i]
		table.AddRow(texttable.Int(n),
			texttable.Int(int(r.events)),
			texttable.Float(r.drainMs, 0),
			texttable.Float(r.p50, 0),
			texttable.Float(r.p95, 0),
			texttable.Float(r.msgs, 1))
	}
	return &Result{ID: "ablation-asyncscale", Title: title, Table: table}, nil
}
