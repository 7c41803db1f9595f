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
		layout, router, err := deploy.Substrate(field.DefaultSpec(n), src)
		if err != nil {
			return row{}, err
		}
		sched := sim.NewScheduler()
		net := network.New(layout)
		eng, err := node.NewEngine(net, router, sched, cfg.Dims, src.Fork("pivots"), nil)
		if err != nil {
			return row{}, err
		}

		gen := workload.NewUniformEvents(src.Fork("events"), cfg.Dims)
		for nd := 0; nd < layout.N(); nd++ {
			for k := 0; k < cfg.EventsPerNode; k++ {
				if err := eng.Insert(nd, gen.Next(), nil); err != nil {
					return row{}, err
				}
			}
		}
		sched.Run()
		if errs := eng.Errors(); len(errs) > 0 {
			return row{}, fmt.Errorf("n=%d inserts: %v", n, errs[0])
		}
		r := row{drainMs: float64(sched.Now().Milliseconds())}

		qgen := workload.NewQueries(src.Fork("queries"), cfg.Dims)
		sinkSrc := src.Fork("sinks")
		qmsgs := net.Messages(network.KindQuery) + net.Messages(network.KindReply)
		lat := make([]float64, 0, cfg.Queries)
		for q := 0; q < cfg.Queries; q++ {
			query := qgen.ExactMatch(workload.ExponentialSizes)
			err := eng.Query(sinkSrc.Intn(layout.N()), query, func(_ []event.Event, elapsed time.Duration) {
				lat = append(lat, float64(elapsed.Milliseconds()))
			})
			if err != nil {
				return row{}, err
			}
		}
		sched.Run()
		if errs := eng.Errors(); len(errs) > 0 {
			return row{}, fmt.Errorf("n=%d queries: %v", n, errs[0])
		}
		if len(lat) != cfg.Queries {
			return row{}, fmt.Errorf("n=%d: %d of %d queries completed", n, len(lat), cfg.Queries)
		}
		r.events = sched.Executed()
		r.p50 = stats.Percentile(lat, 50)
		r.p95 = stats.Percentile(lat, 95)
		qmsgs = net.Messages(network.KindQuery) + net.Messages(network.KindReply) - qmsgs
		r.msgs = float64(qmsgs) / float64(cfg.Queries)
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
