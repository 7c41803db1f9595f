// Comparison: run the same event and query workload through Pool, DIM,
// and GHT side by side — a miniature of the paper's §5 evaluation plus the
// §1 context that GHT handles only exact-match point queries.
package main

import (
	"errors"
	"fmt"
	"log"

	"pooldcs/internal/dcs"
	"pooldcs/internal/event"
	"pooldcs/internal/experiment"
	"pooldcs/internal/ght"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
	"pooldcs/internal/texttable"
	"pooldcs/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const nodes = 600
	src := rng.New(7)
	env, err := experiment.NewEnv(nodes, 3, src)
	if err != nil {
		return err
	}
	ghtNet := network.New(env.Layout)
	g := ght.New(ghtNet, env.Router)

	// Shared event population, inserted into all three systems.
	events := experiment.GenerateEvents(env.Layout, 3,
		workload.NewUniformEvents(src.Fork("events"), 3))
	if err := env.InsertAll(events); err != nil {
		return err
	}
	for _, pe := range events {
		if err := g.Insert(pe.Origin, pe.Event); err != nil {
			return err
		}
	}
	fmt.Printf("%d events inserted into Pool, DIM, and GHT over %d nodes\n\n", len(events), nodes)

	// Range queries: Pool and DIM answer them; GHT cannot (§1).
	qgen := workload.NewQueries(src.Fork("queries"), 3)
	sinkSrc := src.Fork("sinks")
	queries := make([]experiment.PlacedQuery, 50)
	for i := range queries {
		queries[i] = experiment.PlacedQuery{
			Sink:  sinkSrc.Intn(nodes),
			Query: qgen.ExactMatch(workload.ExponentialSizes),
		}
	}
	poolAvg, dimAvg, err := env.QueryCosts(queries)
	if err != nil {
		return err
	}

	if _, err := g.Query(0, queries[0].Query); !errors.Is(err, ght.ErrUnsupported) {
		return fmt.Errorf("GHT unexpectedly accepted a range query: %v", err)
	}

	table := texttable.New("Exact-match range queries (avg messages/query)",
		"System", "Cost", "Note")
	table.AddRow("Pool", texttable.Float(poolAvg, 1), "")
	table.AddRow("DIM", texttable.Float(dimAvg, 1), "")
	table.AddRow("GHT", "-", "range queries unsupported")
	fmt.Println(table)

	// Point queries: all three can answer those.
	pickSrc := src.Fork("picks")
	var poolPt, dimPt, ghtPt float64
	const pointQueries = 50
	for i := 0; i < pointQueries; i++ {
		q := event.PointQuery(events[pickSrc.Intn(len(events))].Event)
		sink := sinkSrc.Intn(nodes)

		cost := func(net *network.Network, run func() error) (float64, error) {
			before := net.Snapshot()
			if err := run(); err != nil {
				return 0, err
			}
			d := net.Diff(before)
			return float64(d.Messages[network.KindQuery] + d.Messages[network.KindReply]), nil
		}
		c, err := cost(env.PoolNet, func() error { _, err := env.Pool.Query(sink, q); return err })
		if err != nil {
			return err
		}
		poolPt += c
		c, err = cost(env.DIMNet, func() error { _, err := env.DIM.Query(sink, q); return err })
		if err != nil {
			return err
		}
		dimPt += c
		c, err = cost(ghtNet, func() error { _, err := g.Query(sink, q); return err })
		if err != nil {
			return err
		}
		ghtPt += c
	}

	table2 := texttable.New("Exact-match point queries (avg messages/query)", "System", "Cost")
	table2.AddRow("GHT", texttable.Float(ghtPt/pointQueries, 1))
	table2.AddRow("DIM", texttable.Float(dimPt/pointQueries, 1))
	table2.AddRow("Pool", texttable.Float(poolPt/pointQueries, 1))
	fmt.Println(table2)

	ins := func(net *network.Network) string {
		r := dcs.Report(net.Snapshot())
		return texttable.Float(float64(r.InsertMessages)/float64(len(events)), 1)
	}
	table3 := texttable.New("Insertion (avg messages/event)", "System", "Cost")
	table3.AddRow("GHT", ins(ghtNet))
	table3.AddRow("DIM", ins(env.DIMNet))
	table3.AddRow("Pool", ins(env.PoolNet))
	fmt.Println(table3)
	return nil
}
