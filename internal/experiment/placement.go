package experiment

import (
	"fmt"

	"pooldcs/internal/field"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
	"pooldcs/internal/texttable"
	"pooldcs/internal/workload"
)

// Placement compares uniform against clustered deployments. The paper
// assumes sensors dense enough that every cell holds a node (§2);
// clustered placement breaks that locally — Pool cells in coverage gaps
// get index nodes far from their centres, while DIM's zones adapt their
// size to where nodes actually are. The ablation quantifies how much each
// design pays.
func Placement(cfg Config) (*Result, error) {
	title := fmt.Sprintf("Placement sensitivity, N=%d (exponential range sizes)", cfg.PartialSize)
	table := texttable.New(title, "Placement", "DIM msgs/query", "Pool msgs/query", "DIM ins/evt", "Pool ins/evt")

	clustered := field.DefaultSpec(cfg.PartialSize)
	clustered.Clusters, clustered.ClusterSpread = 5, 0.12
	variants := []struct {
		name string
		spec field.Spec
	}{
		{"uniform", field.DefaultSpec(cfg.PartialSize)},
		{"clustered", clustered},
	}

	rows, err := forEach(cfg.parallel(), len(variants), func(vi int) ([4]float64, error) {
		v := variants[vi]
		src := rng.New(cfg.Seed + 9950)
		env, err := newEnv(v.spec, cfg.Dims, src, nil, nil)
		if err != nil {
			return [4]float64{}, fmt.Errorf("%s: %w", v.name, err)
		}
		events := GenerateEvents(env.Layout, cfg.EventsPerNode, workload.NewUniformEvents(src.Fork("events"), cfg.Dims))
		if err := env.InsertAll(events); err != nil {
			return [4]float64{}, fmt.Errorf("%s: %w", v.name, err)
		}
		dimIns := float64(env.DIMNet.Messages(network.KindInsert)) / float64(len(events))
		poolIns := float64(env.PoolNet.Messages(network.KindInsert)) / float64(len(events))

		qgen := workload.NewQueries(src.Fork("queries"), cfg.Dims)
		sinkSrc := src.Fork("sinks")
		queries := make([]PlacedQuery, cfg.Queries)
		for i := range queries {
			queries[i] = PlacedQuery{Sink: sinkSrc.Intn(cfg.PartialSize), Query: qgen.ExactMatch(workload.ExponentialSizes)}
		}
		poolAvg, dimAvg, err := env.QueryCosts(queries)
		if err != nil {
			return [4]float64{}, fmt.Errorf("%s: %w", v.name, err)
		}
		return [4]float64{dimAvg, poolAvg, dimIns, poolIns}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, v := range variants {
		table.AddRow(v.name,
			texttable.Float(rows[i][0], 1), texttable.Float(rows[i][1], 1),
			texttable.Float(rows[i][2], 1), texttable.Float(rows[i][3], 1))
	}
	return &Result{ID: "ablation-placement", Title: title, Table: table}, nil
}
