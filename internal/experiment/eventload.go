package experiment

import (
	"fmt"

	"pooldcs/internal/field"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
	"pooldcs/internal/texttable"
	"pooldcs/internal/workload"
)

// EventLoad varies the stored-event population (events per node) at a
// fixed network size and splits each system's query cost into
// dissemination and reply traffic. It isolates why Figure 6(a)'s DIM
// slope amplifies in this reproduction: with uniform range sizes, reply
// traffic grows with the stored population while dissemination stays
// constant — and DIM's replies travel zone-to-sink individually while
// Pool's converge through splitters.
func EventLoad(cfg Config, perNode []int) (*Result, error) {
	title := fmt.Sprintf("Stored-event load sweep, N=%d (uniform range sizes, avg messages/query)", cfg.PartialSize)
	table := texttable.New(title, "Events/node",
		"DIM query", "DIM reply", "Pool query", "Pool reply")

	rows, err := forEach(cfg.parallel(), len(perNode), func(pi int) ([4]float64, error) {
		per := perNode[pi]
		env, err := loadedEnv(cfg.Seed+9960+int64(per), field.DefaultSpec(cfg.PartialSize), cfg.Dims, per)
		if err != nil {
			return [4]float64{}, err
		}
		// Fixed query population across rows (same generator seed).
		population := exact(workload.NewQueries(rng.New(cfg.Seed+557), cfg.Dims), cfg.Queries, workload.UniformSizes)
		queries := place(env.src.Fork("sinks"), cfg.PartialSize, population)

		dimQBefore, dimRBefore := env.DIMNet.Messages(network.KindQuery), env.DIMNet.Messages(network.KindReply)
		poolQBefore, poolRBefore := env.PoolNet.Messages(network.KindQuery), env.PoolNet.Messages(network.KindReply)
		if _, _, err := env.QueryCosts(queries); err != nil {
			return [4]float64{}, fmt.Errorf("per=%d: %w", per, err)
		}
		nq := float64(cfg.Queries)
		return [4]float64{
			float64(env.DIMNet.Messages(network.KindQuery)-dimQBefore) / nq,
			float64(env.DIMNet.Messages(network.KindReply)-dimRBefore) / nq,
			float64(env.PoolNet.Messages(network.KindQuery)-poolQBefore) / nq,
			float64(env.PoolNet.Messages(network.KindReply)-poolRBefore) / nq,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, per := range perNode {
		table.AddRow(texttable.Int(per),
			texttable.Float(rows[i][0], 1),
			texttable.Float(rows[i][1], 1),
			texttable.Float(rows[i][2], 1),
			texttable.Float(rows[i][3], 1))
	}
	return &Result{ID: "ablation-eventload", Title: title, Table: table}, nil
}
