package experiment

import (
	"fmt"

	"pooldcs/internal/dcs"
	"pooldcs/internal/event"
	"pooldcs/internal/field"
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
		env, err := loadedEnv(cfg.Seed+int64(n)+9000, field.DefaultSpec(n), cfg.Dims, cfg.EventsPerNode)
		if err != nil {
			return [2]float64{}, err
		}
		return [2]float64{env.insertCost(env.DIMNet), env.insertCost(env.PoolNet)}, nil
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
		sharedNet.Messages(network.KindControl))
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
		env, err := loadedEnv(cfg.Seed+9200+int64(side), field.DefaultSpec(cfg.PartialSize), cfg.Dims, cfg.EventsPerNode, pool.WithPoolSide(side))
		if err != nil {
			return row{}, err
		}
		queries := exact(workload.NewQueries(env.src.Fork("queries"), cfg.Dims), cfg.Queries, workload.ExponentialSizes)
		msgs, err := queryPass("pool", env.PoolNet, env.Pool, place(env.src.Fork("sinks"), cfg.PartialSize, queries), nil)
		if err != nil {
			return row{}, err
		}
		perQuery := float64(msgs) / float64(cfg.Queries)

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

	env, err := loadedEnv(cfg.Seed+9300, field.DefaultSpec(cfg.PartialSize), cfg.Dims, cfg.EventsPerNode)
	if err != nil {
		return nil, err
	}
	ghtNet := network.New(env.Layout)
	g := ght.New(ghtNet, env.Router)
	for _, pe := range env.events {
		if err := g.Insert(pe.Origin, pe.Event); err != nil {
			return nil, err
		}
	}

	// Point queries target known stored events, so every system returns
	// exactly one match.
	sinkSrc := env.src.Fork("sinks")
	pickSrc := env.src.Fork("picks")
	points := make([]event.Query, cfg.Queries)
	for i := range points {
		points[i] = event.PointQuery(env.events[pickSrc.Intn(len(env.events))].Event)
	}
	queries := place(sinkSrc, cfg.PartialSize, points)

	// The three systems run over disjoint networks and share only the
	// (planarized, read-only) router, so their query passes fan out.
	env.Router.PlanarNeighbors(0)
	passes := []struct {
		name string
		net  *network.Network
		sys  dcs.System
	}{{"GHT", ghtNet, g}, {"DIM", env.DIMNet, env.DIM}, {"Pool", env.PoolNet, env.Pool}}
	msgs, err := forEach(cfg.parallel(), len(passes), func(i int) (uint64, error) {
		return queryPass(passes[i].name, passes[i].net, passes[i].sys, queries, nil)
	})
	if err != nil {
		return nil, err
	}
	for i, p := range passes {
		table.AddRow(p.name, texttable.Float(env.insertCost(p.net), 1),
			texttable.Float(float64(msgs[i])/float64(len(queries)), 1))
	}
	return &Result{ID: "ext-pointquery", Title: title, Table: table}, nil
}

// Aggregates demonstrates §3.2.3's in-network aggregation: reply bytes of
// a full query versus COUNT/SUM/AVG aggregates over the same predicate.
func Aggregates(cfg Config) (*Result, error) {
	title := fmt.Sprintf("Splitter aggregation, N=%d (reply traffic per query)", cfg.PartialSize)
	table := texttable.New(title, "Operation", "Messages", "ReplyBytes", "Value")

	env, err := loadedEnv(cfg.Seed+9400, field.DefaultSpec(cfg.PartialSize), cfg.Dims, cfg.EventsPerNode)
	if err != nil {
		return nil, err
	}
	q := event.NewQuery(event.Span(0, 1), event.Span(0, 1), event.Span(0, 1))
	sink := env.src.Fork("sinks").Intn(cfg.PartialSize)

	var results []event.Event
	msgs, bytes, err := replyCost(env.PoolNet, func() (err error) {
		results, err = env.Pool.Query(sink, q)
		return err
	})
	if err != nil {
		return nil, err
	}
	table.AddRow("SELECT *", texttable.Int(msgs), texttable.Int(bytes), fmt.Sprintf("%d events", len(results)))

	for _, op := range []pool.AggOp{pool.AggCount, pool.AggSum, pool.AggAvg} {
		var v float64
		msgs, bytes, err := replyCost(env.PoolNet, func() (err error) {
			v, err = env.Pool.Aggregate(sink, q, op, 1)
			return err
		})
		if err != nil {
			return nil, err
		}
		table.AddRow(op.String()+"(attr1)", texttable.Int(msgs), texttable.Int(bytes), texttable.Float(v, 2))
	}
	return &Result{ID: "ext-aggregate", Title: title, Table: table}, nil
}

// replyCost runs op and returns the queryMsgs and the reply payload
// bytes it moved on net.
func replyCost(net *network.Network, op func() error) (msgs, replyBytes int, err error) {
	m, b := queryMsgs(net), net.PayloadBytes(network.KindReply)
	if err := op(); err != nil {
		return 0, 0, err
	}
	return int(queryMsgs(net) - m), int(net.PayloadBytes(network.KindReply) - b), nil
}
