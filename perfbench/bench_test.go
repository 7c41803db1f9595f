package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"pooldcs/internal/event"
	"pooldcs/internal/experiment"
	"pooldcs/internal/load"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
)

// Short versions of the three workloads: the same code paths at a size a
// test can run twice.
func shortRange() rangeParams {
	p := defaultRangeParams()
	p.Sizes, p.OpsPerSize = []int{300}, 300
	return p
}

func shortChurn() churnParams {
	p := defaultChurnParams()
	p.N, p.Horizon, p.Queries = 300, 20*time.Second, 60
	return p
}

func shortServe() serveParams {
	p := defaultServeParams()
	p.N, p.Duration, p.Rate = 300, 10*time.Second, 100
	return p
}

func shortWorkloads() map[string]func(seed int64, tr *tracer) (*passResult, error) {
	return map[string]func(seed int64, tr *tracer) (*passResult, error){
		"range": func(seed int64, tr *tracer) (*passResult, error) { return runRange(shortRange(), seed, tr) },
		"churn": func(seed int64, tr *tracer) (*passResult, error) { return runChurn(shortChurn(), seed, tr) },
		"serve": func(seed int64, tr *tracer) (*passResult, error) { return runServe(shortServe(), seed, tr) },
	}
}

// TestDeterminism runs each workload twice with one seed, once of them
// traced, and requires every deterministic output to match exactly; a
// second seed must change them.
func TestDeterminism(t *testing.T) {
	for name, pass := range shortWorkloads() {
		t.Run(name, func(t *testing.T) {
			a, err := pass(1, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := pass(1, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			c, err := pass(2, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*passResult{a, b, c} {
				if r.failed > 0 {
					t.Fatalf("oracle failures: %v", r.failures)
				}
			}
			for _, key := range []string{"pool_msgs_per_query", "recall"} {
				if _, ok := a.det[key]; !ok {
					t.Errorf("deterministic outputs lack %s", key)
				}
			}
			if !reflect.DeepEqual(a.det, b.det) {
				t.Errorf("same seed, different outputs:\n%v\n%v", a.det, b.det)
			}
			if reflect.DeepEqual(a.det, c.det) {
				t.Errorf("seeds 1 and 2 gave identical outputs %v", a.det)
			}
		})
	}
}

// TestRangeCountsMatchQueryCosts holds the range workload's message counts
// to the counters experiment.QueryCosts reports for the paper's figures.
func TestRangeCountsMatchQueryCosts(t *testing.T) {
	p := shortRange()
	d, err := buildRange(p, 300, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := d.ops(p)
	if err != nil {
		t.Fatal(err)
	}
	var queries []experiment.PlacedQuery
	var poolMsgs, dimMsgs uint64
	for _, op := range ops {
		if op.insert {
			continue
		}
		_, _, pm, dm, perr, derr := d.queryBoth(op.node, op.q, nil)
		if perr != nil || derr != nil {
			t.Fatal(perr, derr)
		}
		poolMsgs += pm
		dimMsgs += dm
		queries = append(queries, experiment.PlacedQuery{Sink: op.node, Query: op.q})
	}
	env := &experiment.Env{Layout: d.layout, Router: d.router, PoolNet: d.poolNet, DIMNet: d.dimNet, Pool: d.pool, DIM: d.dim}
	poolAvg, dimAvg, err := env.QueryCosts(queries)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(len(queries))
	if got := float64(poolMsgs) / n; got != poolAvg {
		t.Errorf("pool msgs/query %v, QueryCosts %v", got, poolAvg)
	}
	if got := float64(dimMsgs) / n; got != dimAvg {
		t.Errorf("dim msgs/query %v, QueryCosts %v", got, dimAvg)
	}
}

// TestServeMatchesLoadDeploy holds the serve deployment, and the checked
// target launching its operations, to load.Deploy("pool-actor") driven by
// load's own ActorTarget.
func TestServeMatchesLoadDeploy(t *testing.T) {
	p := shortServe()
	cfg := load.Config{Seed: 3, Rate: p.Rate, Duration: p.Duration, Dims: p.Dims, Mix: p.Mix, Skew: p.Skew}

	sched := sim.NewScheduler()
	dep, err := load.Deploy("pool-actor", p.N, p.Dims, p.PerNode, rng.New(deploySeed), sched, load.CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	le, err := load.NewEngine(sched, dep.Target, dep.Nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := le.Run()
	if err != nil {
		t.Fatal(err)
	}

	sched = sim.NewScheduler()
	eng, _, _, err := deployActor(p, rng.New(deploySeed), sched, nil)
	if err != nil {
		t.Fatal(err)
	}
	target := &checkedTarget{ActorTarget: load.NewActorTarget(eng, 0), eng: eng}
	le, err = load.NewEngine(sched, target, p.N, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := le.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.Offered != want.Offered || got.Served != want.Served || got.MaxDepth != want.MaxDepth {
		t.Errorf("offered/served/depth %d/%d/%d, load.Deploy %d/%d/%d",
			got.Offered, got.Served, got.MaxDepth, want.Offered, want.Served, want.MaxDepth)
	}
	for _, pct := range []float64{50, 99} {
		if g, w := got.QueryLatency().Quantile(pct), want.QueryLatency().Quantile(pct); g != w {
			t.Errorf("p%v latency %dms, load.Deploy %dms", pct, g, w)
		}
	}
	if len(target.answers) == 0 || len(target.inserts) == 0 {
		t.Errorf("checked target kept %d answers, %d inserts", len(target.answers), len(target.inserts))
	}
}

// TestBenchmarkJSONMatchesMetrics holds BENCHMARK.json's metric lists to
// the ones the program prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the program's:\n%v\n%v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the program's:\n%v\n%v", spec.PerLayer, perLayer)
	}
}

// TestOracleRejectsWrongAnswers feeds the oracle a missing, an extra and a
// duplicated event.
func TestOracleRejectsWrongAnswers(t *testing.T) {
	stored := []event.Event{
		{Values: []float64{0.1, 0.1}, Seq: 1},
		{Values: []float64{0.2, 0.2}, Seq: 2},
		{Values: []float64{0.9, 0.9}, Seq: 3},
	}
	q := event.NewQuery(event.Span(0, 0.5), event.Span(0, 0.5))
	want := matchKeys(q, stored)
	k1, k2, k3 := eventKey(stored[0]), eventKey(stored[1]), eventKey(stored[2])
	for _, c := range []struct {
		name   string
		keys   []uint64
		recall float64
		clean  bool
	}{
		{"exact", []uint64{k2, k1}, 1, true},
		{"missing", []uint64{k1}, 0.5, true},
		{"extra", []uint64{k1, k2, k3}, 1, false},
		{"duplicate", []uint64{k1, k1, k2}, 1, false},
	} {
		recall, clean := judge(c.keys, want, nil)
		if recall != c.recall || clean != c.clean {
			t.Errorf("%s: recall %v clean %v, want %v %v", c.name, recall, clean, c.recall, c.clean)
		}
	}
	if oracleDigest(q, stored) != digestOf(stored[:2]) || digestOf(stored[:2]) == digestOf([]event.Event{stored[0], stored[0]}) {
		t.Error("digest does not tell answers apart")
	}
	// Events of two generators may share a sequence number.
	if eventKey(event.Event{Values: []float64{0.3}, Seq: 1}) == eventKey(event.Event{Values: []float64{0.4}, Seq: 1}) {
		t.Error("event key ignores values")
	}
}

// TestSelfTime checks that a span's self time excludes its children.
func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{parent: -1, name: "sim.Run", start: 0, end: 100},
		{parent: 0, name: "pool.QueryWithReport", start: 10, end: 40},
		{parent: 0, name: "pool.QueryWithReport", start: 50, end: 60},
		{parent: -1, name: "pool.Insert", start: 100, end: 105},
	}}
	lt := tr.layerTimes()
	if got := lt["sim.Run"]; got.calls != 1 || got.total != 100 || got.self != 60 {
		t.Errorf("sim.Run %+v, want 1 call, 100 total, 60 self", *got)
	}
	if got := lt["pool.QueryWithReport"]; got.calls != 2 || got.self != 40 {
		t.Errorf("pool.QueryWithReport %+v, want 2 calls, 40 self", *got)
	}
}
