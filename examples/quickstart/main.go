// Quickstart: deploy a sensor network, stand up the Pool storage scheme,
// insert multi-dimensional events, and answer exact- and partial-match
// range queries while counting radio messages.
package main

import (
	"fmt"
	"log"

	"pooldcs/internal/dcs"
	"pooldcs/internal/deploy"
	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/network"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Deploy 300 sensors with the paper's density (≈20 neighbours in a
	//    40 m radio range) and build the GPSR routing substrate.
	src := rng.New(1)
	layout, router, err := deploy.Substrate(field.DefaultSpec(300), src)
	if err != nil {
		return err
	}
	net := network.New(layout)
	fmt.Printf("deployed %d sensors on a %.0f m field (avg degree %.1f)\n",
		layout.N(), layout.Side, layout.AvgDegree())

	// 2. Stand up Pool for 3-dimensional events (temperature, humidity,
	//    pressure — all normalized to [0,1)).
	sys, err := pool.New(net, router, 3, src.Fork("pivots"))
	if err != nil {
		return err
	}
	for _, p := range sys.Pools() {
		fmt.Printf("  %v\n", p)
	}

	// 3. Every sensor detects a few events and stores them data-centrically.
	gen := src.Fork("events")
	seq := uint64(0)
	for node := 0; node < layout.N(); node++ {
		for i := 0; i < 3; i++ {
			seq++
			e := event.Event{
				Values: []float64{gen.Float64(), gen.Float64(), gen.Float64()},
				Seq:    seq,
			}
			if err := sys.Insert(node, e); err != nil {
				return err
			}
		}
	}
	insertCost := dcs.Report(net.Snapshot())
	fmt.Printf("inserted %d events in %d messages (%.1f msgs/event)\n",
		seq, insertCost.InsertMessages, float64(insertCost.InsertMessages)/float64(seq))

	// 4. An exact-match range query: all three attributes bounded.
	sink := 7
	exact := event.NewQuery(
		event.Span(0.2, 0.4), // temperature in [0.2, 0.4]
		event.Span(0.1, 0.6), // humidity in [0.1, 0.6]
		event.Span(0.0, 0.9), // pressure in [0.0, 0.9]
	)
	before := net.Snapshot()
	matches, err := sys.Query(sink, exact)
	if err != nil {
		return err
	}
	cost := dcs.Report(net.Diff(before))
	fmt.Printf("exact query %v → %d events, %d messages\n",
		exact, len(matches), cost.QueryMessages+cost.ReplyMessages)

	// 5. A partial-match range query: only pressure is constrained; the
	//    other attributes are "don't care" (the paper's Example 3.2).
	partial := event.NewQuery(event.Unspecified(), event.Unspecified(), event.Span(0.8, 0.84))
	before = net.Snapshot()
	matches, err = sys.Query(sink, partial)
	if err != nil {
		return err
	}
	cost = dcs.Report(net.Diff(before))
	fmt.Printf("partial query %v → %d events, %d messages\n",
		partial, len(matches), cost.QueryMessages+cost.ReplyMessages)

	// 6. Aggregates travel the same splitter tree with constant-size
	//    partials.
	avg, err := sys.Aggregate(sink, partial, pool.AggAvg, 3)
	if err != nil {
		return err
	}
	fmt.Printf("AVG(pressure) over the partial query = %.3f\n", avg)
	return nil
}
