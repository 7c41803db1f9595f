package experiment

import (
	"fmt"

	"pooldcs/internal/event"
	"pooldcs/internal/ght"
	"pooldcs/internal/network"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
	"pooldcs/internal/texttable"
	"pooldcs/internal/workload"
)

// InsertCost regenerates the §5.2 data-insertion comparison the paper
// summarizes in prose: the per-event insertion cost of Pool and DIM is
// conceptually the same since both route events over GPSR.
func InsertCost(cfg Config) (*Result, error) {
	title := "Insertion cost (avg messages/event)"
	table := texttable.New(title, "NetworkSize", "DIM", "Pool")

	rows, err := forEach(cfg.parallel(), len(cfg.NetworkSizes), func(i int) ([2]float64, error) {
		n := cfg.NetworkSizes[i]
		src := rng.New(cfg.Seed + int64(n) + 9000)
		env, err := NewEnv(n, cfg.Dims, src)
		if err != nil {
			return [2]float64{}, err
		}
		events := GenerateEvents(env.Layout, cfg.EventsPerNode, workload.NewUniformEvents(src.Fork("events"), cfg.Dims))
		if err := env.InsertAll(events); err != nil {
			return [2]float64{}, err
		}
		perEvent := func(net *network.Network) float64 {
			return float64(net.Messages(network.KindInsert)) / float64(len(events))
		}
		return [2]float64{perEvent(env.DIMNet), perEvent(env.PoolNet)}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, n := range cfg.NetworkSizes {
		table.AddRow(texttable.Int(n),
			texttable.Float(rows[i][0], 1),
			texttable.Float(rows[i][1], 1))
	}
	return &Result{ID: "ablation-insert", Title: title, Table: table}, nil
}

// Hotspot regenerates the skew claim (§1, §4.2): under a skewed event
// distribution, DIM concentrates storage while Pool spreads it, and Pool's
// workload sharing bounds the peak per-node storage further.
func Hotspot(cfg Config, quota int) (*Result, error) {
	title := fmt.Sprintf("Hotspot under skewed events, N=%d (per-node stored events)", cfg.PartialSize)
	table := texttable.New(title, "System", "MaxLoad", "P99Load", "NodesUsed", "ExtraMsgs")

	src := rng.New(cfg.Seed + 9100)
	env, err := NewEnv(cfg.PartialSize, cfg.Dims, src)
	if err != nil {
		return nil, err
	}
	// A second Pool system with workload sharing over its own counters.
	sharedNet := network.New(env.Layout)
	sharedPool, err := pool.New(sharedNet, env.Router, cfg.Dims, src.Fork("pivots-shared"), pool.WithWorkloadSharing(quota))
	if err != nil {
		return nil, err
	}

	gen := workload.NewHotspotEvents(src.Fork("events"),
		hotspotCenter(cfg.Dims), 0.02)
	events := GenerateEvents(env.Layout, cfg.EventsPerNode, gen)
	if err := env.InsertAll(events); err != nil {
		return nil, err
	}
	for _, pe := range events {
		if err := sharedPool.Insert(pe.Origin, pe.Event); err != nil {
			return nil, err
		}
	}

	addRow := func(name string, loads []int, extra uint64) {
		maxLoad, p99, used := loadStats(loads)
		table.AddRow(name, texttable.Int(maxLoad), texttable.Int(p99), texttable.Int(used), texttable.Int(int(extra)))
	}
	addRow("DIM", env.DIM.StorageLoad(), 0)
	addRow("Pool", env.Pool.StorageLoad(), 0)
	addRow(fmt.Sprintf("Pool+sharing(q=%d)", quota), sharedPool.StorageLoad(),
		sharedNet.Snapshot().Messages[network.KindControl])
	return &Result{ID: "ablation-hotspot", Title: title, Table: table}, nil
}

// hotspotCenter places the skew centre in the value region of one Pool so
// that the hotspot hits a single cell hard.
func hotspotCenter(dims int) []float64 {
	c := make([]float64, dims)
	for i := range c {
		c[i] = 0.2
	}
	c[0] = 0.8
	return c
}

// loadStats summarizes a per-node load vector: the maximum, the 99th
// percentile, and the number of nodes holding anything.
func loadStats(loads []int) (maxLoad, p99, used int) {
	var nonZero []int
	for _, l := range loads {
		if l > maxLoad {
			maxLoad = l
		}
		if l > 0 {
			nonZero = append(nonZero, l)
		}
	}
	used = len(nonZero)
	if used == 0 {
		return 0, 0, 0
	}
	// Insertion sort: load vectors are short.
	for i := 1; i < len(nonZero); i++ {
		for j := i; j > 0 && nonZero[j] < nonZero[j-1]; j-- {
			nonZero[j], nonZero[j-1] = nonZero[j-1], nonZero[j]
		}
	}
	p99 = nonZero[(len(nonZero)*99)/100]
	return maxLoad, p99, used
}

// PoolSize sweeps the Pool side length l at a fixed network size: the
// paper's scalability argument (§1) is that the number of index nodes —
// and hence the per-query cost — tracks the Pool configuration (the
// workload), not the network size.
func PoolSize(cfg Config, sides []int) (*Result, error) {
	title := fmt.Sprintf("Pool side-length ablation, N=%d", cfg.PartialSize)
	table := texttable.New(title, "PoolSide", "IndexNodes", "Pool msgs/query")

	type row struct {
		indexNodes int
		perQuery   float64
	}
	rows, err := forEach(cfg.parallel(), len(sides), func(i int) (row, error) {
		side := sides[i]
		src := rng.New(cfg.Seed + 9200 + int64(side))
		env, err := NewEnv(cfg.PartialSize, cfg.Dims, src, pool.WithPoolSide(side))
		if err != nil {
			return row{}, err
		}
		events := GenerateEvents(env.Layout, cfg.EventsPerNode, workload.NewUniformEvents(src.Fork("events"), cfg.Dims))
		for _, pe := range events {
			if err := env.Pool.Insert(pe.Origin, pe.Event); err != nil {
				return row{}, err
			}
		}

		qgen := workload.NewQueries(src.Fork("queries"), cfg.Dims)
		sinkSrc := src.Fork("sinks")
		before := env.PoolNet.Messages(network.KindQuery) + env.PoolNet.Messages(network.KindReply)
		for i := 0; i < cfg.Queries; i++ {
			if _, err := env.Pool.Query(sinkSrc.Intn(cfg.PartialSize), qgen.ExactMatch(workload.ExponentialSizes)); err != nil {
				return row{}, err
			}
		}
		delta := env.PoolNet.Messages(network.KindQuery) + env.PoolNet.Messages(network.KindReply) - before
		perQuery := float64(delta) / float64(cfg.Queries)

		indexNodes := make(map[int]bool)
		for _, p := range env.Pool.Pools() {
			for _, c := range p.Cells() {
				indexNodes[env.Pool.IndexNode(c)] = true
			}
		}
		return row{indexNodes: len(indexNodes), perQuery: perQuery}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, side := range sides {
		table.AddRow(texttable.Int(side), texttable.Int(rows[i].indexNodes), texttable.Float(rows[i].perQuery, 1))
	}
	return &Result{ID: "ablation-poolsize", Title: title, Table: table}, nil
}

// PointQuery compares exact-match point query cost across GHT, DIM and
// Pool — the §1 context: GHT handles only this query class, which is why
// multi-dimensional schemes exist at all.
func PointQuery(cfg Config) (*Result, error) {
	title := fmt.Sprintf("Exact-match point query cost, N=%d (avg messages/query)", cfg.PartialSize)
	table := texttable.New(title, "System", "Insert msgs/event", "Query msgs/query")

	src := rng.New(cfg.Seed + 9300)
	env, err := NewEnv(cfg.PartialSize, cfg.Dims, src)
	if err != nil {
		return nil, err
	}
	ghtNet := network.New(env.Layout)
	g := ght.New(ghtNet, env.Router)

	events := GenerateEvents(env.Layout, cfg.EventsPerNode, workload.NewUniformEvents(src.Fork("events"), cfg.Dims))
	if err := env.InsertAll(events); err != nil {
		return nil, err
	}
	for _, pe := range events {
		if err := g.Insert(pe.Origin, pe.Event); err != nil {
			return nil, err
		}
	}

	// Point queries target known stored events, so every system returns
	// exactly one match.
	sinkSrc := src.Fork("sinks")
	pickSrc := src.Fork("picks")
	queries := make([]PlacedQuery, cfg.Queries)
	for i := range queries {
		e := events[pickSrc.Intn(len(events))].Event
		queries[i] = PlacedQuery{Sink: sinkSrc.Intn(cfg.PartialSize), Query: event.PointQuery(e)}
	}

	cost := func(net *network.Network, run func(pq PlacedQuery) error) (float64, error) {
		before := net.Messages(network.KindQuery) + net.Messages(network.KindReply)
		for _, pq := range queries {
			if err := run(pq); err != nil {
				return 0, err
			}
		}
		delta := net.Messages(network.KindQuery) + net.Messages(network.KindReply) - before
		return float64(delta) / float64(len(queries)), nil
	}

	// The three systems run over disjoint networks and share only the
	// (planarized, read-only) router, so their query passes fan out.
	env.Router.PlanarNeighbors(0)
	passes := []func() (float64, error){
		func() (float64, error) {
			return cost(ghtNet, func(pq PlacedQuery) error { _, err := g.Query(pq.Sink, pq.Query); return err })
		},
		func() (float64, error) {
			return cost(env.DIMNet, func(pq PlacedQuery) error { _, err := env.DIM.Query(pq.Sink, pq.Query); return err })
		},
		func() (float64, error) {
			return cost(env.PoolNet, func(pq PlacedQuery) error { _, err := env.Pool.Query(pq.Sink, pq.Query); return err })
		},
	}
	costs, err := forEach(cfg.parallel(), len(passes), func(i int) (float64, error) { return passes[i]() })
	if err != nil {
		return nil, err
	}
	ghtQ, dimQ, poolQ := costs[0], costs[1], costs[2]

	perEvent := func(net *network.Network) float64 {
		return float64(net.Snapshot().Messages[network.KindInsert]) / float64(len(events))
	}
	table.AddRow("GHT", texttable.Float(perEvent(ghtNet), 1), texttable.Float(ghtQ, 1))
	table.AddRow("DIM", texttable.Float(perEvent(env.DIMNet), 1), texttable.Float(dimQ, 1))
	table.AddRow("Pool", texttable.Float(perEvent(env.PoolNet), 1), texttable.Float(poolQ, 1))
	return &Result{ID: "ext-pointquery", Title: title, Table: table}, nil
}

// Aggregates demonstrates §3.2.3's in-network aggregation: reply bytes of
// a full query versus COUNT/SUM/AVG aggregates over the same predicate.
func Aggregates(cfg Config) (*Result, error) {
	title := fmt.Sprintf("Splitter aggregation, N=%d (reply traffic per query)", cfg.PartialSize)
	table := texttable.New(title, "Operation", "Messages", "ReplyBytes", "Value")

	src := rng.New(cfg.Seed + 9400)
	env, err := NewEnv(cfg.PartialSize, cfg.Dims, src)
	if err != nil {
		return nil, err
	}
	events := GenerateEvents(env.Layout, cfg.EventsPerNode, workload.NewUniformEvents(src.Fork("events"), cfg.Dims))
	for _, pe := range events {
		if err := env.Pool.Insert(pe.Origin, pe.Event); err != nil {
			return nil, err
		}
	}

	q := event.NewQuery(event.Span(0, 1), event.Span(0, 1), event.Span(0, 1))
	sink := src.Fork("sinks").Intn(cfg.PartialSize)

	before := env.PoolNet.Snapshot()
	results, err := env.Pool.Query(sink, q)
	if err != nil {
		return nil, err
	}
	diff := env.PoolNet.Diff(before)
	table.AddRow("SELECT *",
		texttable.Int(int(diff.Messages[network.KindQuery]+diff.Messages[network.KindReply])),
		texttable.Int(int(diff.Bytes[network.KindReply])),
		fmt.Sprintf("%d events", len(results)))

	for _, op := range []pool.AggOp{pool.AggCount, pool.AggSum, pool.AggAvg} {
		before := env.PoolNet.Snapshot()
		v, err := env.Pool.Aggregate(sink, q, op, 1)
		if err != nil {
			return nil, err
		}
		diff := env.PoolNet.Diff(before)
		table.AddRow(op.String()+"(attr1)",
			texttable.Int(int(diff.Messages[network.KindQuery]+diff.Messages[network.KindReply])),
			texttable.Int(int(diff.Bytes[network.KindReply])),
			texttable.Float(v, 2))
	}
	return &Result{ID: "ext-aggregate", Title: title, Table: table}, nil
}
