// Package systemtest is the cross-system conformance harness: one table
// of fault/recovery/query scenarios executed against every backend in
// the deploy registry (Pool, Pool with replication, DIM, GHT, GHT with
// structured replication, and the actor engine with and without
// repair), so their degradation semantics are pinned by a single spec
// instead of per-package test files that can drift.
//
// The contract under test is the shared fault surface grown around the
// paper's protocols: FailNode/RecoverNode/Failed, QueryWithReport with
// a dcs.Completeness report, graceful degradation against undetected
// corpses, and — through chaos.Engine plus discovery.Protocol — crash
// teardown driven by emergent beacon-timeout detection.
package systemtest

import (
	"fmt"
	"time"

	"pooldcs/internal/deploy"
	"pooldcs/internal/discovery"
	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
)

// SUT is the surface every backend conforms to.
type SUT = deploy.SUT

// Universe is one system under test with its full substrate (see
// deploy.Universe) plus the ground-truth oracle.
type Universe struct {
	*deploy.Universe

	// Events is the ground-truth oracle: every event ever inserted.
	Events []event.Event
}

// BuildUniverse assembles one backend over a fresh deployment, with
// beacon-timeout failure detection wired into the chaos engine, and
// loads events from random origins. The same seed always yields the same
// universe, event placement, and beacon timeline.
func BuildUniverse(b deploy.Backend, n, nEvents, dims int, seed int64) (*Universe, error) {
	src := rng.New(seed)
	layout, err := deploy.Layout(field.DefaultSpec(n), src)
	if err != nil {
		return nil, err
	}
	du, err := deploy.NewUniverse(layout, sim.NewScheduler(), b.Name, dims, src.Fork("system"), nil)
	if err != nil {
		return nil, err
	}
	du.Detect(src.Fork("beacons"), discovery.Config{Interval: time.Second})

	u := &Universe{Universe: du}
	evSrc := src.Fork("events")
	for i := 0; i < nEvents; i++ {
		vals := make([]float64, dims)
		for d := range vals {
			vals[d] = evSrc.Float64()
		}
		e := event.New(vals...)
		e.Seq = uint64(i + 1)
		if err := u.Insert(evSrc.Intn(n), e); err != nil {
			return nil, fmt.Errorf("%s: load event %d: %w", b.Name, i, err)
		}
	}
	return u, nil
}

// Insert stores one event and records it in the oracle.
func (u *Universe) Insert(origin int, e event.Event) error {
	if err := u.Sys.Insert(origin, e); err != nil {
		return err
	}
	u.Events = append(u.Events, e)
	return nil
}

// MostLoaded returns the node holding the most events — the crash target
// that maximizes data at risk — or -1 when storage is empty.
func (u *Universe) MostLoaded() int {
	victim, max := -1, 0
	for i, l := range u.Sys.StorageLoad() {
		if l > max {
			victim, max = i, l
		}
	}
	return victim
}

// PickAlive returns the lowest node id the engine holds up.
func (u *Universe) PickAlive() int {
	for id := 0; id < u.Net.Layout().N(); id++ {
		if !u.Engine.Down(id) && !u.Sys.Failed(id) {
			return id
		}
	}
	return -1
}

// Report aggregates one scenario's query sweep over a universe.
type Report struct {
	Queries    int
	SumRecall  float64
	SumComp    float64
	Retries    int
	Complete   int // queries whose fan-out was fully served
	Violations []string
}

// RunQueries issues the point query of every oracle event from sink and
// aggregates recall and completeness, enforcing the report invariants on
// every single query:
//
//   - the error return covers only programming faults — degradation must
//     not error;
//   - 0 ≤ CellsReached ≤ CellsTotal and the Unreached list matches the
//     gap exactly;
//   - every returned event matches the query (no phantom results).
func (u *Universe) RunQueries(sink int) Report {
	var rep Report
	for _, e := range u.Events {
		q := event.PointQuery(e)
		oracle := q.Rewrite().Filter(u.Events)
		got, comp, err := u.Sys.QueryWithReport(sink, q)
		rep.Queries++
		if err != nil {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("event %d: query error: %v", e.Seq, err))
			continue
		}
		if comp.CellsReached < 0 || comp.CellsReached > comp.CellsTotal {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("event %d: reached %d of %d cells", e.Seq, comp.CellsReached, comp.CellsTotal))
		}
		if len(comp.Unreached) != comp.CellsTotal-comp.CellsReached {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("event %d: unreached list %d entries, want %d",
					e.Seq, len(comp.Unreached), comp.CellsTotal-comp.CellsReached))
		}
		if f := comp.Fraction(); f < 0 || f > 1 {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("event %d: completeness fraction %v", e.Seq, f))
		}
		rq := q.Rewrite()
		for _, g := range got {
			if !rq.Matches(g) {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("event %d: phantom result %d", e.Seq, g.Seq))
			}
		}
		rep.SumRecall += event.Recall(got, oracle)
		rep.SumComp += comp.Fraction()
		rep.Retries += comp.Retries
		if comp.Complete() {
			rep.Complete++
		}
	}
	return rep
}

// MeanRecall returns the sweep's mean recall (1 for an empty sweep).
func (r Report) MeanRecall() float64 {
	if r.Queries == 0 {
		return 1
	}
	return r.SumRecall / float64(r.Queries)
}

// AllComplete reports whether every query's fan-out was fully served.
func (r Report) AllComplete() bool { return r.Complete == r.Queries }
