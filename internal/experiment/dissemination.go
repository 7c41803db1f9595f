package experiment

import (
	"fmt"

	"pooldcs/internal/dim"
	"pooldcs/internal/network"
	"pooldcs/internal/texttable"
)

// Dissemination compares the two DIM query-forwarding models (zone-order
// chain vs recursive splitting) on the Figure 7(b) workload, against Pool.
// The paper does not specify DIM's forwarding at message level; this
// ablation shows the headline conclusions do not depend on that modelling
// choice.
func Dissemination(cfg Config) (*Result, error) {
	title := fmt.Sprintf("DIM dissemination model ablation, N=%d (avg messages/query)", cfg.PartialSize)
	table := texttable.New(title, "Query", "DIM(chain)", "DIM(split)", "Pool")

	env, placed, err := partialTrial(cfg, cfg.Seed+9700)
	if err != nil {
		return nil, err
	}
	splitNet := network.New(env.Layout)
	splitDIM, err := dim.New(splitNet, env.Router, cfg.Dims, dim.WithDissemination(dim.SplitDissemination))
	if err != nil {
		return nil, err
	}
	for _, pe := range env.events {
		if err := splitDIM.Insert(pe.Origin, pe.Event); err != nil {
			return nil, err
		}
	}

	for n := 1; n <= cfg.Dims; n++ {
		queries := make([]PlacedQuery, cfg.Queries)
		for i, pq := range placed {
			queries[i] = PlacedQuery{Sink: pq.Sink, Query: blankOut(pq.Query, []int{n - 1})}
		}
		poolAvg, chainAvg, err := env.QueryCosts(queries)
		if err != nil {
			return nil, fmt.Errorf("1@%d: %w", n, err)
		}
		splitTotal, err := queryPass("dim(split)", splitNet, splitDIM, queries, nil)
		if err != nil {
			return nil, fmt.Errorf("1@%d: %w", n, err)
		}
		table.AddRow(fmt.Sprintf("1@%d-Partial", n),
			texttable.Float(chainAvg, 1),
			texttable.Float(float64(splitTotal)/float64(cfg.Queries), 1),
			texttable.Float(poolAvg, 1))
	}
	return &Result{ID: "ablation-dissemination", Title: title, Table: table}, nil
}
