package experiment

import (
	"fmt"

	"pooldcs/internal/deploy"
	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/metrics"
	"pooldcs/internal/network"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
	"pooldcs/internal/texttable"
	"pooldcs/internal/workload"
)

// Energy reports the radio-energy footprint of a full insert+query
// workload on Pool and DIM: total energy, the hottest node's share, and
// the Gini coefficient of the per-node energy distribution. Energy
// hotspots are what ultimately kill a sensor network (§1's fourth design
// issue), so this quantifies the claim behind the workload-sharing
// machinery. The per-node vectors are read back through each system's
// metrics registry — the same net_node_energy_joules family poolmon
// exports — rather than from the network directly.
func Energy(cfg Config) (*Result, error) {
	title := fmt.Sprintf("Radio energy footprint, N=%d (insert + %d queries)", cfg.PartialSize, cfg.Queries)
	table := texttable.New(title, "System", "TotalJ", "MaxNode mJ", "Gini")

	src := rng.New(cfg.Seed + 9500)
	poolReg, dimReg := metrics.New(), metrics.New()
	env, err := newEnv(field.DefaultSpec(cfg.PartialSize), cfg.Dims, src, poolReg, dimReg)
	if err != nil {
		return nil, err
	}
	// One deployment, so parallelism comes from the concurrent pool/dim
	// query passes; each pass writes only its own registry.
	env.Workers = cfg.parallel()
	if err := env.load(src, cfg.Dims, cfg.EventsPerNode); err != nil {
		return nil, err
	}
	queries := exact(workload.NewQueries(src.Fork("queries"), cfg.Dims), cfg.Queries, workload.ExponentialSizes)
	if _, _, err := env.QueryCosts(place(src.Fork("sinks"), cfg.PartialSize, queries)); err != nil {
		return nil, err
	}

	addRow := func(name string, reg *metrics.Registry) {
		b := metrics.Analyze(reg.NodeValues("net_node_energy_joules"))
		table.AddRow(name,
			texttable.Float(reg.Value("net_energy_joules"), 3),
			texttable.Float(b.Max*1e3, 2),
			texttable.Float(b.Gini, 3))
	}
	addRow("DIM", dimReg)
	addRow("Pool", poolReg)
	return &Result{ID: "ablation-energy", Title: title, Table: table}, nil
}

// Fragmentation re-runs the §3.2.3 aggregation comparison on a radio with
// a realistic 64-byte MTU, where large replies fragment into many frames:
// aggregation then saves messages, not just bytes.
func Fragmentation(cfg Config) (*Result, error) {
	const mtu = 64
	title := fmt.Sprintf("Aggregation under a %d-byte radio MTU, N=%d", mtu, cfg.PartialSize)
	table := texttable.New(title, "Operation", "Frames", "ReplyBytes")

	// The deployment draws from a "layout" fork of its own (one fork
	// deeper than the other runners'), which the seeded table depends on.
	src := rng.New(cfg.Seed + 9600)
	layout, router, err := deploy.Substrate(field.DefaultSpec(cfg.PartialSize), src.Fork("layout"))
	if err != nil {
		return nil, err
	}
	net := network.New(layout, network.WithMTU(mtu))
	sys, err := pool.New(net, router, cfg.Dims, src.Fork("pivots"))
	if err != nil {
		return nil, err
	}
	for _, pe := range GenerateEvents(layout, cfg.EventsPerNode, workload.NewUniformEvents(src.Fork("events"), cfg.Dims)) {
		if err := sys.Insert(pe.Origin, pe.Event); err != nil {
			return nil, err
		}
	}

	q := event.NewQuery(event.Span(0, 1), event.Span(0, 1), event.Span(0, 1))
	sink := src.Fork("sinks").Intn(cfg.PartialSize)
	for _, op := range []struct {
		name string
		run  func() error
	}{
		{"SELECT *", func() error { _, err := sys.Query(sink, q); return err }},
		{"COUNT", func() error { _, err := sys.Aggregate(sink, q, pool.AggCount, 0); return err }},
	} {
		frames, bytes, err := replyCost(net, op.run)
		if err != nil {
			return nil, err
		}
		table.AddRow(op.name, texttable.Int(frames), texttable.Int(bytes))
	}
	return &Result{ID: "ablation-fragmentation", Title: title, Table: table}, nil
}
