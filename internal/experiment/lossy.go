package experiment

import (
	"fmt"

	"pooldcs/internal/deploy"
	"pooldcs/internal/dim"
	"pooldcs/internal/field"
	"pooldcs/internal/network"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
	"pooldcs/internal/texttable"
	"pooldcs/internal/workload"
)

// Lossy re-runs the exact-match workload over radios that drop each frame
// independently with probability p, with per-hop ARQ retransmission. The
// paper assumes lossless links; real motes don't have them. Expected
// inflation is 1/(1−p) per hop for both systems — the comparison should
// survive, which is what this ablation verifies.
func Lossy(cfg Config, rates []float64) (*Result, error) {
	title := fmt.Sprintf("Lossy links with ARQ, N=%d (exponential range sizes, avg frames/query)", cfg.PartialSize)
	table := texttable.New(title, "LossRate", "DIM", "Pool", "DIM inflation", "Pool inflation")

	// Every rate rebuilds the same deployment from the same seed, so the
	// rows are independent trials; the inflation columns (row value over
	// the first row's value) are computed after collection.
	rows, err := forEach(cfg.parallel(), len(rates), func(i int) ([2]float64, error) {
		p := rates[i]
		src := rng.New(cfg.Seed + 9970) // same deployment for every rate
		layout, router, err := deploy.Substrate(field.DefaultSpec(cfg.PartialSize), src)
		if err != nil {
			return [2]float64{}, err
		}
		// Fork unconditionally: rng.Fork advances the parent stream, so a
		// conditional fork would shift every later seed and make the rows
		// incomparable.
		poolLoss := src.Fork("loss-pool")
		dimLoss := src.Fork("loss-dim")
		var poolOpts, dimOpts []network.Option
		if p > 0 {
			poolOpts = append(poolOpts, network.WithLossRate(p, poolLoss))
			dimOpts = append(dimOpts, network.WithLossRate(p, dimLoss))
		}
		poolNet := network.New(layout, poolOpts...)
		dimNet := network.New(layout, dimOpts...)
		ps, err := pool.New(poolNet, router, cfg.Dims, src.Fork("pivots"))
		if err != nil {
			return [2]float64{}, err
		}
		ds, err := dim.New(dimNet, router, cfg.Dims)
		if err != nil {
			return [2]float64{}, err
		}
		env := &Env{Layout: layout, Router: router, PoolNet: poolNet, DIMNet: dimNet, Pool: ps, DIM: ds}
		if err := env.load(src, cfg.Dims, cfg.EventsPerNode); err != nil {
			return [2]float64{}, err
		}
		queries := exact(workload.NewQueries(src.Fork("queries"), cfg.Dims), cfg.Queries, workload.ExponentialSizes)
		poolAvg, dimAvg, err := env.QueryCosts(place(src.Fork("sinks"), cfg.PartialSize, queries))
		if err != nil {
			return [2]float64{}, fmt.Errorf("p=%v: %w", p, err)
		}
		return [2]float64{poolAvg, dimAvg}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, p := range rates {
		poolAvg, dimAvg := rows[i][0], rows[i][1]
		poolBase, dimBase := rows[0][0], rows[0][1]
		table.AddRow(
			texttable.Float(p, 2),
			texttable.Float(dimAvg, 1), texttable.Float(poolAvg, 1),
			texttable.Float(dimAvg/dimBase, 2), texttable.Float(poolAvg/poolBase, 2))
	}
	return &Result{ID: "ablation-lossy", Title: title, Table: table}, nil
}
