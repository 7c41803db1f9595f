package main

import (
	"fmt"
	"time"

	"pooldcs/internal/dim"
	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/network"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
	"pooldcs/internal/workload"
)

// rangeParams sizes the range workload: the §5.1 deployments, each built
// once per pass, then a fixed stream of operations per deployment.
type rangeParams struct {
	Sizes       []int `json:"sizes"`
	Dims        int   `json:"dims"`
	PerNode     int   `json:"events_per_node"`
	OpsPerSize  int   `json:"ops_per_size"`
	InsertPct   int   `json:"insert_pct"`
	QueryMixPct []int `json:"query_mix_pct_fig6a_fig6b_fig7"`
}

func defaultRangeParams() rangeParams {
	return rangeParams{
		Sizes:       []int{300, 600, 900, 1200},
		Dims:        3,
		PerNode:     3,
		OpsPerSize:  2000,
		InsertPct:   20,
		QueryMixPct: []int{34, 33, 33},
	}
}

// rangeDeployment is one network size carrying Pool and DIM over separate
// traffic counters and a shared router.
type rangeDeployment struct {
	n       int
	layout  *field.Layout
	router  *gpsr.Router
	poolNet *network.Network
	dimNet  *network.Network
	pool    *pool.System
	dim     *dim.System
	events  []event.Event // every stored event, in insertion order
	gen     *workload.Events
	// insertTime is the host time of every insert call, preload included.
	insertTime time.Duration
	src        *rng.Source
}

// rangeOp is one operation of the stream: a query from a sink or an
// insert of a new event at a sensor.
type rangeOp struct {
	insert bool
	node   int
	ev     event.Event
	q      event.Query
}

func buildRange(p rangeParams, n int, seed int64, tr *tracer) (*rangeDeployment, error) {
	dsrc := rng.New(deploySeed + int64(n))
	src := rng.New(seed).Fork(fmt.Sprintf("n%d", n))
	tr.begin("field.Generate")
	layout, err := field.Generate(field.DefaultSpec(n), dsrc.Fork("layout"))
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("gpsr.New")
	router := gpsr.New(layout)
	tr.end()
	d := &rangeDeployment{n: n, layout: layout, router: router, src: src}
	tr.begin("network.New")
	d.poolNet = network.New(layout)
	tr.end()
	tr.begin("network.New")
	d.dimNet = network.New(layout)
	tr.end()
	tr.begin("pool.New")
	d.pool, err = pool.New(d.poolNet, router, p.Dims, dsrc.Fork("pivots"))
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("dim.New")
	d.dim, err = dim.New(d.dimNet, router, p.Dims)
	tr.end()
	if err != nil {
		return nil, err
	}
	d.gen = workload.NewUniformEvents(src.Fork("events"), p.Dims)
	for node := 0; node < n; node++ {
		for i := 0; i < p.PerNode; i++ {
			if err := d.insertBoth(node, d.gen.Next(), tr); err != nil {
				return nil, fmt.Errorf("preload: %w", err)
			}
		}
	}
	return d, nil
}

func (d *rangeDeployment) insertBoth(node int, ev event.Event, tr *tracer) error {
	t0 := time.Now()
	defer func() { d.insertTime += time.Since(t0) }()
	tr.begin("pool.Insert")
	err := d.pool.Insert(node, ev)
	tr.end()
	if err != nil {
		return fmt.Errorf("pool insert: %w", err)
	}
	tr.begin("dim.Insert")
	err = d.dim.Insert(node, ev)
	tr.end()
	if err != nil {
		return fmt.Errorf("dim insert: %w", err)
	}
	d.events = append(d.events, ev)
	return nil
}

// ops draws the deployment's operation stream from its seed.
func (d *rangeDeployment) ops(p rangeParams) ([]rangeOp, error) {
	osrc := d.src.Fork("ops")
	qgen := workload.NewQueries(osrc.Fork("queries"), p.Dims)
	out := make([]rangeOp, p.OpsPerSize)
	for i := range out {
		op := rangeOp{node: osrc.Intn(d.n)}
		if osrc.Intn(100) < p.InsertPct {
			op.insert = true
			op.ev = d.gen.Next()
			out[i] = op
			continue
		}
		switch r := osrc.Intn(100); {
		case r < p.QueryMixPct[0]:
			op.q = qgen.ExactMatch(workload.UniformSizes)
		case r < p.QueryMixPct[0]+p.QueryMixPct[1]:
			op.q = qgen.ExactMatch(workload.ExponentialSizes)
		default:
			q, err := qgen.MPartial(1 + osrc.Intn(p.Dims-1))
			if err != nil {
				return nil, err
			}
			op.q = q
		}
		out[i] = op
	}
	return out, nil
}

// queryBoth sends one query to Pool and then DIM and returns both answers
// and the query and reply messages each cost.
func (d *rangeDeployment) queryBoth(sink int, q event.Query, tr *tracer) (pres, dres []event.Event, pm, dm uint64, perr, derr error) {
	pm, dm = queryMsgs(d.poolNet), queryMsgs(d.dimNet)
	tr.begin("pool.Query")
	pres, perr = d.pool.Query(sink, q)
	tr.end()
	tr.begin("dim.Query")
	dres, derr = d.dim.Query(sink, q)
	tr.end()
	return pres, dres, queryMsgs(d.poolNet) - pm, queryMsgs(d.dimNet) - dm, perr, derr
}

// queryMsgs is the paper's per-query cost counter: query forwarding plus
// reply messages.
func queryMsgs(net *network.Network) uint64 {
	return net.Messages(network.KindQuery) + net.Messages(network.KindReply)
}

// runRange builds every deployment, then sends each one's operation stream
// to both systems, timing only the calls, and checks every answer against a
// brute-force scan of the events stored so far.
func runRange(p rangeParams, seed int64, tr *tracer) (*passResult, error) {
	r := newPassResult()
	deps := make([]*rangeDeployment, len(p.Sizes))
	setupStart := time.Now()
	for i, n := range p.Sizes {
		d, err := buildRange(p, n, seed, tr)
		if err != nil {
			return nil, fmt.Errorf("range n=%d: %w", n, err)
		}
		deps[i] = d
	}
	r.setup = time.Since(setupStart)

	streams := make([][]rangeOp, len(deps))
	for i, d := range deps {
		ops, err := d.ops(p)
		if err != nil {
			return nil, err
		}
		streams[i] = ops
	}
	r.queryUS = make([]float64, 0, len(deps)*p.OpsPerSize)

	var poolMsgs, dimMsgs, poolAns, dimAns uint64
	var recallSum float64
	r.startTimed()
	for i, d := range deps {
		for _, op := range streams[i] {
			if op.insert {
				t0 := time.Now()
				err := d.insertBoth(op.node, op.ev, tr)
				r.opsTime += time.Since(t0)
				r.ops++
				r.attempted++
				if err != nil {
					r.fail("range n=%d: %v", d.n, err)
				}
				continue
			}
			t0 := time.Now()
			pres, dres, pm, dm, perr, derr := d.queryBoth(op.node, op.q, tr)
			dt := time.Since(t0)
			r.queryTime += dt
			r.opsTime += dt
			r.ops++
			r.queryUS = append(r.queryUS, float64(dt.Nanoseconds())/1e3)
			r.attempted++
			r.queries++
			poolMsgs += pm
			dimMsgs += dm
			poolAns += uint64(len(pres))
			dimAns += uint64(len(dres))
			if perr != nil || derr != nil {
				r.fail("range n=%d query %v: pool %v, dim %v", d.n, op.q, perr, derr)
				continue
			}
			want := oracleDigest(op.q, d.events)
			for _, res := range []struct {
				sys string
				got []event.Event
			}{{"pool", pres}, {"dim", dres}} {
				if digestOf(res.got) == want {
					recallSum++
					continue
				}
				rc, _ := judge(keysOf(res.got), matchKeys(op.q, d.events), nil)
				recallSum += rc
				r.fail("range n=%d query %v: %s answered %d events, oracle %d", d.n, op.q, res.sys, len(res.got), want.n)
			}
		}
	}
	r.stopTimed()
	// insert_per_s counts the preload's inserts too: the stream's alone
	// take too little host time to time steadily.
	for _, d := range deps {
		r.insertTime += d.insertTime
		r.inserts += len(d.events)
	}
	r.heap = liveHeap()

	nq := float64(r.queries)
	var cells, zones int
	for i, d := range deps {
		for _, op := range streams[i] {
			if op.insert {
				continue
			}
			tr.begin("pool.RelevantCells")
			for _, cs := range d.pool.RelevantCells(op.q) {
				cells += len(cs)
			}
			tr.end()
			tr.begin("dim.RelevantZones")
			zones += len(d.dim.RelevantZones(op.q))
			tr.end()
		}
	}
	det := r.det
	det["pool_msgs_per_query"] = float64(poolMsgs) / nq
	det["dim_msgs_per_query"] = float64(dimMsgs) / nq
	det["recall"] = recallSum / (2 * nq)
	det["pool.cells_per_query"] = float64(cells) / nq
	det["dim.zones_per_query"] = float64(zones) / nq
	det["pool.answers_per_msg"] = ratio(float64(poolAns), float64(poolMsgs))
	det["dim.answers_per_msg"] = ratio(float64(dimAns), float64(dimMsgs))
	for _, d := range deps {
		for _, net := range []*network.Network{d.poolNet, d.dimNet} {
			addNetworkCounts(det, net)
		}
	}
	return r, nil
}
