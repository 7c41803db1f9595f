package experiment

import (
	"fmt"

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
	events := GenerateEvents(env.Layout, cfg.EventsPerNode, workload.NewUniformEvents(src.Fork("events"), cfg.Dims))
	if err := env.InsertAll(events); err != nil {
		return nil, err
	}
	qgen := workload.NewQueries(src.Fork("queries"), cfg.Dims)
	sinkSrc := src.Fork("sinks")
	queries := make([]PlacedQuery, cfg.Queries)
	for i := range queries {
		queries[i] = PlacedQuery{Sink: sinkSrc.Intn(cfg.PartialSize), Query: qgen.ExactMatch(workload.ExponentialSizes)}
	}
	if _, _, err := env.QueryCosts(queries); err != nil {
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

	src := rng.New(cfg.Seed + 9600)
	layoutSrc := src.Fork("layout")
	env, err := NewEnv(cfg.PartialSize, cfg.Dims, layoutSrc)
	if err != nil {
		return nil, err
	}
	// Rebuild the Pool system over an MTU-limited network on the same
	// deployment.
	net := network.New(env.Layout, network.WithMTU(mtu))
	sys, err := pool.New(net, env.Router, cfg.Dims, src.Fork("pivots"))
	if err != nil {
		return nil, err
	}
	events := GenerateEvents(env.Layout, cfg.EventsPerNode, workload.NewUniformEvents(src.Fork("events"), cfg.Dims))
	for _, pe := range events {
		if err := sys.Insert(pe.Origin, pe.Event); err != nil {
			return nil, err
		}
	}

	q := event.NewQuery(event.Span(0, 1), event.Span(0, 1), event.Span(0, 1))
	sink := src.Fork("sinks").Intn(cfg.PartialSize)

	before := net.Snapshot()
	if _, err := sys.Query(sink, q); err != nil {
		return nil, err
	}
	diff := net.Diff(before)
	table.AddRow("SELECT *",
		texttable.Int(int(diff.Messages[network.KindQuery]+diff.Messages[network.KindReply])),
		texttable.Int(int(diff.Bytes[network.KindReply])))

	before = net.Snapshot()
	if _, err := sys.Aggregate(sink, q, pool.AggCount, 0); err != nil {
		return nil, err
	}
	diff = net.Diff(before)
	table.AddRow("COUNT",
		texttable.Int(int(diff.Messages[network.KindQuery]+diff.Messages[network.KindReply])),
		texttable.Int(int(diff.Bytes[network.KindReply])))

	return &Result{ID: "ablation-fragmentation", Title: title, Table: table}, nil
}
