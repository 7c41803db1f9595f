package experiment

import (
	"fmt"

	"pooldcs/internal/field"
	"pooldcs/internal/texttable"
	"pooldcs/internal/workload"
)

// DimSweep varies the event dimensionality k. Pool's core idea is the
// "higher dimension to two-dimensional mapping" (§1): no matter k, an
// event is located by just its two greatest values, and a query visits k
// Pools of l² cells. DIM, by contrast, interleaves all k attributes into
// one k-d tree whose pruning weakens as k grows. The sweep quantifies
// both effects on exact-match queries.
func DimSweep(cfg Config, dims []int) (*Result, error) {
	title := fmt.Sprintf("Dimensionality sweep, N=%d (avg messages/query)", cfg.PartialSize)
	table := texttable.New(title, "k",
		"DIM exact", "Pool exact", "DIM 1-partial", "Pool 1-partial")

	rows, err := forEach(cfg.parallel(), len(dims), func(ki int) ([4]float64, error) {
		k := dims[ki]
		env, err := loadedEnv(cfg.Seed+9900+int64(k), field.DefaultSpec(cfg.PartialSize), k, cfg.EventsPerNode)
		if err != nil {
			return [4]float64{}, err
		}

		qgen := workload.NewQueries(env.src.Fork("queries"), k)
		sinkSrc := env.src.Fork("sinks")
		exact := make([]PlacedQuery, cfg.Queries)
		partial := make([]PlacedQuery, cfg.Queries)
		for i := range exact {
			sink := sinkSrc.Intn(cfg.PartialSize)
			exact[i] = PlacedQuery{Sink: sink, Query: qgen.ExactMatch(workload.ExponentialSizes)}
			pq, err := qgen.MPartial(1)
			if err != nil {
				return [4]float64{}, err
			}
			partial[i] = PlacedQuery{Sink: sink, Query: pq}
		}
		poolExact, dimExact, err := env.QueryCosts(exact)
		if err != nil {
			return [4]float64{}, fmt.Errorf("k=%d exact: %w", k, err)
		}
		poolPartial, dimPartial, err := env.QueryCosts(partial)
		if err != nil {
			return [4]float64{}, fmt.Errorf("k=%d partial: %w", k, err)
		}
		return [4]float64{dimExact, poolExact, dimPartial, poolPartial}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, k := range dims {
		table.AddRow(texttable.Int(k),
			texttable.Float(rows[i][0], 1), texttable.Float(rows[i][1], 1),
			texttable.Float(rows[i][2], 1), texttable.Float(rows[i][3], 1))
	}
	return &Result{ID: "ablation-dimsweep", Title: title, Table: table}, nil
}
