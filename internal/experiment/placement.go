package experiment

import (
	"fmt"

	"pooldcs/internal/field"
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
		env, err := loadedEnv(cfg.Seed+9950, v.spec, cfg.Dims, cfg.EventsPerNode)
		if err != nil {
			return [4]float64{}, fmt.Errorf("%s: %w", v.name, err)
		}
		queries := exact(workload.NewQueries(env.src.Fork("queries"), cfg.Dims), cfg.Queries, workload.ExponentialSizes)
		poolAvg, dimAvg, err := env.QueryCosts(place(env.src.Fork("sinks"), cfg.PartialSize, queries))
		if err != nil {
			return [4]float64{}, fmt.Errorf("%s: %w", v.name, err)
		}
		return [4]float64{dimAvg, poolAvg, env.insertCost(env.DIMNet), env.insertCost(env.PoolNet)}, nil
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
