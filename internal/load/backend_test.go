package load

import (
	"testing"

	"pooldcs/internal/event"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
	"pooldcs/internal/workload"
)

// TestPoolInsertStationIsStoringNode checks that the station an insert is
// charged to is the node that actually stores the event, for distinct
// and tied greatest attributes alike.
func TestPoolInsertStationIsStoringNode(t *testing.T) {
	dep, err := Deploy("pool", 200, 3, 0, rng.New(31), sim.NewScheduler(), CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	sys := dep.Sys.(*pool.System)
	b := &PoolBackend{Sys: sys}
	gen := workload.NewUniformEvents(rng.New(32), 3)
	for origin := 0; origin < dep.Nodes; origin++ {
		for _, ev := range []event.Event{gen.Next(), event.New(0.4, 0.4, 0.2), event.New(0.7, 0.1, 0.7)} {
			station := b.Station(&Op{Class: Insert, Node: origin, Event: ev})
			before := sys.StorageLoad()
			if err := sys.Insert(origin, ev); err != nil {
				t.Fatal(err)
			}
			after := sys.StorageLoad()
			for id := range after {
				if grew := after[id] > before[id]; grew != (id == station) {
					t.Fatalf("insert of %v at node %d: station %d, load of node %d went %d→%d",
						ev.Values, origin, station, id, before[id], after[id])
				}
			}
		}
	}
}
