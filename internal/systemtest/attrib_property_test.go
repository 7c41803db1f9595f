package systemtest

import (
	"fmt"
	"testing"
	"time"

	"pooldcs/internal/attrib"
	"pooldcs/internal/node"
	"pooldcs/internal/trace"
)

// TestConformanceAutopsySumsToTotal is the attribution's correctness
// property run across the whole conformance fault table: for every
// scenario — healthy, silent corpses, detected crashes, repair,
// recovery, cascades — every traced query span of the actor engine must
// decompose into phases that are individually non-negative and sum to
// the span's wall clock EXACTLY, with the span bounds consistent. The
// name keeps it inside the `make conformance` race-enabled run.
func TestConformanceAutopsySumsToTotal(t *testing.T) {
	for _, flavour := range []string{"node", "node+repair"} {
		flavour := flavour
		for _, sc := range scenarios() {
			sc := sc
			t.Run(fmt.Sprintf("%s/%s", flavour, sc.name), func(t *testing.T) {
				u, err := BuildUniverse(mustLookup(t, flavour), confNodes, confEvents, confDims, confSeed)
				if err != nil {
					t.Fatal(err)
				}
				// Attach the tracer after the bulk load: the sweep's query
				// spans are the property's subject, and the scenario's
				// crash/repair markers still land in the trace through the
				// network layer.
				tr := trace.New(u.Sched)
				u.Sys.(*node.Sync).Engine().SetTracer(tr)
				sc.apply(t, u)
				if t.Failed() {
					return
				}
				sink := u.PickAlive()
				if sink < 0 {
					t.Fatal("no alive sink")
				}
				u.RunQueries(sink)

				events := tr.Events()
				a, err := trace.Analyze(events)
				if err != nil {
					t.Fatal(err)
				}
				bds := attrib.Attribute(events, a, attrib.Options{})
				if len(bds) == 0 {
					t.Fatal("sweep left no query spans to attribute")
				}
				for _, bd := range bds {
					if bd.Total != bd.End-bd.Start {
						t.Errorf("span %d: total %v != end-start %v", bd.Span, bd.Total, bd.End-bd.Start)
					}
					var sum time.Duration
					for p, d := range bd.Phases {
						if d < 0 {
							t.Errorf("span %d: phase %v negative: %v", bd.Span, attrib.Phase(p), d)
						}
						sum += d
					}
					if sum != bd.Total {
						t.Errorf("span %d: phases sum to %v, want exactly %v", bd.Span, sum, bd.Total)
					}
				}
			})
		}
	}
}
