package experiment

import (
	"fmt"

	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/rng"
	"pooldcs/internal/texttable"
	"pooldcs/internal/workload"
)

// Fig6 regenerates Figure 6: the cost of exact-match range queries as the
// network grows, under the given range-size distribution. Figure 6(a) uses
// workload.UniformSizes, Figure 6(b) workload.ExponentialSizes.
func Fig6(cfg Config, dist workload.RangeSizeDist) (*Result, error) {
	id := "fig6a"
	if dist == workload.ExponentialSizes {
		id = "fig6b"
	}
	title := fmt.Sprintf("Figure 6 — exact match query cost, %s range sizes (avg messages/query)", dist)
	table := texttable.New(title, "NetworkSize", "DIM", "Pool")

	// One query population shared by every network size (common random
	// numbers), so the series reflects scaling rather than draw noise.
	population := exact(workload.NewQueries(rng.New(cfg.Seed+555), cfg.Dims), cfg.Queries, dist)

	// Each network size is an independent trial with its own seed, so the
	// sizes fan out across workers and the rows land in sweep order.
	rows, err := forEach(cfg.parallel(), len(cfg.NetworkSizes), func(i int) ([2]float64, error) {
		n := cfg.NetworkSizes[i]
		env, err := loadedEnv(cfg.Seed+int64(n), field.DefaultSpec(n), cfg.Dims, cfg.EventsPerNode)
		if err != nil {
			return [2]float64{}, err
		}
		poolAvg, dimAvg, err := env.QueryCosts(place(env.src.Fork("sinks"), n, population))
		if err != nil {
			return [2]float64{}, fmt.Errorf("n=%d: %w", n, err)
		}
		return [2]float64{poolAvg, dimAvg}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, n := range cfg.NetworkSizes {
		table.AddRow(texttable.Int(n), texttable.Float(rows[i][1], 1), texttable.Float(rows[i][0], 1))
	}
	return &Result{ID: id, Title: title, Table: table}, nil
}

// Fig7a regenerates Figure 7(a): partial-match query cost by the number of
// unspecified dimensions, at the fixed §5.1 network size.
func Fig7a(cfg Config) (*Result, error) {
	title := fmt.Sprintf("Figure 7(a) — partial match query cost by unspecified dimensions, N=%d (avg messages/query)", cfg.PartialSize)
	table := texttable.New(title, "Query", "DIM", "Pool")

	env, err := loadedEnv(cfg.Seed+7001, field.DefaultSpec(cfg.PartialSize), cfg.Dims, cfg.EventsPerNode)
	if err != nil {
		return nil, err
	}
	// The rows share one deployment, so parallelism comes from running
	// the pool and dim passes of each row concurrently.
	env.Workers = cfg.parallel()

	// Paired design: every m-partial row blanks out attributes of the same
	// fully specified base queries, so rows differ only in m.
	bases, err := specified(workload.NewQueries(env.src.Fork("queries"), cfg.Dims), cfg.Queries)
	if err != nil {
		return nil, err
	}
	wildSrc := env.src.Fork("wild")
	wildOrder := make([][]int, cfg.Queries)
	for i := range wildOrder {
		wildOrder[i] = wildSrc.Perm(cfg.Dims)
	}
	placed := place(env.src.Fork("sinks"), cfg.PartialSize, bases)

	for m := 1; m < cfg.Dims; m++ {
		queries := make([]PlacedQuery, cfg.Queries)
		for i, pq := range placed {
			queries[i] = PlacedQuery{Sink: pq.Sink, Query: blankOut(pq.Query, wildOrder[i][:m])}
		}
		poolAvg, dimAvg, err := env.QueryCosts(queries)
		if err != nil {
			return nil, fmt.Errorf("m=%d: %w", m, err)
		}
		table.AddRow(fmt.Sprintf("%d-Partial", m), texttable.Float(dimAvg, 1), texttable.Float(poolAvg, 1))
	}
	return &Result{ID: "fig7a", Title: title, Table: table}, nil
}

// specified draws count fully specified base queries (0-partial) from
// gen, for the paired designs that blank attributes out row by row.
func specified(gen *workload.Queries, count int) ([]event.Query, error) {
	out := make([]event.Query, count)
	for i := range out {
		q, err := gen.MPartial(0)
		if err != nil {
			return nil, err
		}
		out[i] = q
	}
	return out, nil
}

// blankOut returns the query with the given 0-based attributes made
// unspecified.
func blankOut(q event.Query, dims []int) event.Query {
	ranges := append([]event.Range(nil), q.Ranges...)
	for _, d := range dims {
		ranges[d] = event.Unspecified()
	}
	return event.NewQuery(ranges...)
}

// Fig7b regenerates Figure 7(b): 1@n-partial match query cost by which
// dimension carries the unspecified range.
func Fig7b(cfg Config) (*Result, error) {
	title := fmt.Sprintf("Figure 7(b) — 1@n-partial match query cost by unspecified dimension, N=%d (avg messages/query)", cfg.PartialSize)
	// DIMZones and PoolCells expose the pruning mechanism behind the
	// costs: the zones/cells each system must visit per query.
	table := texttable.New(title, "Query", "DIM", "Pool", "DIMZones", "PoolCells")

	env, placed, err := partialTrial(cfg, cfg.Seed+7002)
	if err != nil {
		return nil, err
	}
	env.Workers = cfg.parallel()

	for n := 1; n <= cfg.Dims; n++ {
		queries := make([]PlacedQuery, cfg.Queries)
		var zoneCount, cellCount int
		for i, pq := range placed {
			q := blankOut(pq.Query, []int{n - 1})
			queries[i] = PlacedQuery{Sink: pq.Sink, Query: q}
			zoneCount += len(env.DIM.RelevantZones(q))
			for _, cells := range env.Pool.RelevantCells(q) {
				cellCount += len(cells)
			}
		}
		poolAvg, dimAvg, err := env.QueryCosts(queries)
		if err != nil {
			return nil, fmt.Errorf("1@%d: %w", n, err)
		}
		nq := float64(cfg.Queries)
		table.AddRow(fmt.Sprintf("1@%d-Partial", n),
			texttable.Float(dimAvg, 1), texttable.Float(poolAvg, 1),
			texttable.Float(float64(zoneCount)/nq, 1), texttable.Float(float64(cellCount)/nq, 1))
	}
	return &Result{ID: "fig7b", Title: title, Table: table}, nil
}

// partialTrial is the Figure 7(b) trial, shared with the dissemination
// ablation: a loaded N=PartialSize deployment and fully specified base
// queries with their sinks. Paired design: every 1@n row blanks one
// attribute out of the same bases, so rows differ only in which.
func partialTrial(cfg Config, seed int64) (*Env, []PlacedQuery, error) {
	env, err := loadedEnv(seed, field.DefaultSpec(cfg.PartialSize), cfg.Dims, cfg.EventsPerNode)
	if err != nil {
		return nil, nil, err
	}
	bases, err := specified(workload.NewQueries(env.src.Fork("queries"), cfg.Dims), cfg.Queries)
	if err != nil {
		return nil, nil, err
	}
	return env, place(env.src.Fork("sinks"), cfg.PartialSize, bases), nil
}
