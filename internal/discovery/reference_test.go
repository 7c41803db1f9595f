package discovery

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"pooldcs/internal/field"
	"pooldcs/internal/geo"
	"pooldcs/internal/metrics"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
)

// refProtocol is the map-of-maps beacon table the slot-indexed Protocol
// replaced, kept as the reference model: one closure per beacon, a
// lastHeard map per node, and a sweep that collects and sorts stale
// entries before firing any callback.
type refProtocol struct {
	cfg   Config
	net   *network.Network
	sched *sim.Scheduler
	src   *rng.Source

	lastHeard []map[int]time.Duration
	failed    []bool
	epoch     []uint64
	suspected []bool
	onSuspect func(id int)
	stopped   bool

	beacons, suspicions, evictions uint64
}

func newRef(net *network.Network, sched *sim.Scheduler, src *rng.Source, cfg Config) *refProtocol {
	cfg.applyDefaults()
	n := net.Layout().N()
	r := &refProtocol{
		cfg: cfg, net: net, sched: sched, src: src,
		lastHeard: make([]map[int]time.Duration, n),
		failed:    make([]bool, n),
		epoch:     make([]uint64, n),
		suspected: make([]bool, n),
	}
	for i := range r.lastHeard {
		r.lastHeard[i] = make(map[int]time.Duration)
	}
	return r
}

func (r *refProtocol) Start() {
	for id := 0; id < r.net.Layout().N(); id++ {
		id := id
		ep := r.epoch[id]
		offset := time.Duration(r.src.Int63() % int64(r.cfg.Jitter+1))
		r.sched.After(offset, func() { r.beacon(id, ep) })
	}
}

func (r *refProtocol) Stop() { r.stopped = true }

func (r *refProtocol) Fail(id int) {
	if id < 0 || id >= len(r.failed) || r.failed[id] {
		return
	}
	r.failed[id] = true
	r.epoch[id]++
}

func (r *refProtocol) Recover(id int) {
	if id < 0 || id >= len(r.failed) || !r.failed[id] {
		return
	}
	r.failed[id] = false
	r.epoch[id]++
	ep := r.epoch[id]
	offset := time.Duration(r.src.Int63() % int64(r.cfg.Jitter+1))
	r.sched.After(offset, func() { r.beacon(id, ep) })
}

func (r *refProtocol) Suspect(id int) bool { return r.suspected[id] }

func (r *refProtocol) OnSuspect(fn func(id int)) { r.onSuspect = fn }

func (r *refProtocol) beacon(id int, ep uint64) {
	if r.stopped || r.failed[id] || ep != r.epoch[id] {
		return
	}
	now := r.sched.Now()
	r.beacons++
	for _, nbr := range r.net.Broadcast(id, network.KindControl, r.cfg.PayloadBytes) {
		r.lastHeard[nbr][id] = now
	}
	if r.suspected[id] {
		r.suspected[id] = false
	}
	r.sweep(id, now)
	jitter := time.Duration(r.src.Int63() % int64(r.cfg.Jitter+1))
	r.sched.After(r.cfg.Interval+jitter-r.cfg.Jitter/2, func() { r.beacon(id, ep) })
}

func (r *refProtocol) sweep(id int, now time.Duration) {
	deadline := now - r.cfg.Timeout()
	var stale []int
	for nbr, heard := range r.lastHeard[id] {
		if heard < deadline {
			stale = append(stale, nbr)
		}
	}
	if len(stale) == 0 {
		return
	}
	sort.Ints(stale)
	for _, nbr := range stale {
		delete(r.lastHeard[id], nbr)
		r.evictions++
		if r.suspected[nbr] {
			continue
		}
		r.suspected[nbr] = true
		r.suspicions++
		if r.onSuspect != nil {
			r.onSuspect(nbr)
		}
	}
}

func (r *refProtocol) Neighbors(id int) []int {
	deadline := r.sched.Now() - r.cfg.Timeout()
	out := make([]int, 0, len(r.lastHeard[id]))
	for nbr, heard := range r.lastHeard[id] {
		if heard >= deadline {
			out = append(out, nbr)
		}
	}
	sort.Ints(out)
	return out
}

// suspicion is one OnSuspect call: the suspect and the virtual time.
type suspicion struct {
	id int
	at time.Duration
}

// twin runs the slot-indexed Protocol and the reference model in two
// identical universes — same layout, same loss seed, same beacon seed —
// stepped one event at a time.
type twin struct {
	layout         *field.Layout
	schedP, schedR *sim.Scheduler
	netP, netR     *network.Network
	p              *Protocol
	r              *refProtocol
	logP, logR     []suspicion
}

func newTwin(layout *field.Layout, cfg Config, loss float64, seed int64) *twin {
	w := &twin{layout: layout, schedP: sim.NewScheduler(), schedR: sim.NewScheduler()}
	w.netP = network.New(layout, network.WithLossRate(loss, rng.New(seed)))
	w.netR = network.New(layout, network.WithLossRate(loss, rng.New(seed)))
	w.p = New(w.netP, w.schedP, rng.New(seed+1), cfg)
	w.p.EnableMetrics(metrics.New())
	w.r = newRef(w.netR, w.schedR, rng.New(seed+1), cfg)
	return w
}

// onSuspect installs the same callback on both models: log the call
// and, through react, let it act on its own model mid-sweep.
func (w *twin) onSuspect(react func(id int, fail func(int))) {
	w.p.OnSuspect(func(id int) {
		w.logP = append(w.logP, suspicion{id, w.schedP.Now()})
		react(id, w.p.Fail)
	})
	w.r.OnSuspect(func(id int) {
		w.logR = append(w.logR, suspicion{id, w.schedR.Now()})
		react(id, w.r.Fail)
	})
}

// at schedules the same action on both universes.
func (w *twin) at(t time.Duration, fn func(fail, recover func(int), net *network.Network)) {
	if err := w.schedP.At(t, func() { fn(w.p.Fail, w.p.Recover, w.netP) }); err != nil {
		panic(err)
	}
	if err := w.schedR.At(t, func() { fn(w.r.Fail, w.r.Recover, w.netR) }); err != nil {
		panic(err)
	}
}

// diff compares every observable of the two models at the current step.
func (w *twin) diff() error {
	if w.schedP.Now() != w.schedR.Now() || w.schedP.Executed() != w.schedR.Executed() {
		return fmt.Errorf("clocks diverged: %v/%d vs %v/%d",
			w.schedP.Now(), w.schedP.Executed(), w.schedR.Now(), w.schedR.Executed())
	}
	for id := 0; id < w.layout.N(); id++ {
		if got, want := w.p.Neighbors(id), w.r.Neighbors(id); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("node %d: Neighbors %v, reference %v", id, got, want)
		}
		if got, want := w.p.Suspect(id), w.r.Suspect(id); got != want {
			return fmt.Errorf("node %d: Suspect %v, reference %v", id, got, want)
		}
	}
	if !reflect.DeepEqual(w.logP, w.logR) {
		return fmt.Errorf("OnSuspect calls %v, reference %v", w.logP, w.logR)
	}
	got := [3]float64{w.p.mBeacons.Value(), w.p.mEvictions.Value(), w.p.mSuspicions.Value()}
	want := [3]float64{float64(w.r.beacons), float64(w.r.evictions), float64(w.r.suspicions)}
	if got != want {
		return fmt.Errorf("beacons/evictions/suspicions %v, reference %v", got, want)
	}
	return nil
}

// run steps both universes in lockstep to exhaustion, diffing after
// every event, and returns the number of events fired.
func (w *twin) run(t *testing.T) int {
	t.Helper()
	steps := 0
	for {
		okP, okR := w.schedP.Step(), w.schedR.Step()
		if okP != okR {
			t.Fatalf("step %d: one universe ran dry first (slot=%v reference=%v)", steps, okP, okR)
		}
		if !okP {
			return steps
		}
		steps++
		if err := w.diff(); err != nil {
			t.Fatalf("step %d at %v: %v", steps, w.schedP.Now(), err)
		}
	}
}

// TestSlotTableMatchesReference drives the slot-indexed table and the
// map-of-maps reference with random layouts, beacon configurations,
// lossy links and fail/recover scripts, and requires every observable —
// neighbour tables, suspicion flags, the OnSuspect call sequence with
// its virtual times, and the counters — to agree after every event.
func TestSlotTableMatchesReference(t *testing.T) {
	src := rng.New(21)
	for trial := 0; trial < 6; trial++ {
		n := 30 + src.Intn(40)
		layout, err := field.Generate(field.DefaultSpec(n), rng.New(int64(300+trial)))
		if err != nil {
			t.Fatal(err)
		}
		interval := time.Duration(200+src.Intn(1800)) * time.Millisecond
		cfg := Config{
			Interval:  interval,
			Jitter:    interval / time.Duration(2+src.Intn(6)),
			MissLimit: 1 + src.Intn(4),
		}
		loss := src.Float64() * 0.3
		w := newTwin(layout, cfg, loss, int64(900+trial))
		// Some suspicions fail another node from inside the callback,
		// in the middle of the suspecting node's sweep.
		w.onSuspect(func(id int, fail func(int)) {
			if id%3 == 0 {
				fail((id + 1) % n)
			}
		})

		horizon := 20 * interval
		for f := 0; f < n/4; f++ {
			victim := src.Intn(n)
			at := time.Duration(src.Float64() * float64(horizon))
			switch src.Intn(4) {
			case 0: // crash: beacons and radio both go silent
				w.at(at, func(fail, _ func(int), net *network.Network) { fail(victim); net.FailNode(victim) })
			case 1: // beacon loop silenced, radio still receives
				w.at(at, func(fail, _ func(int), _ *network.Network) { fail(victim) })
			case 2: // radio dead, beacon loop still ticking into the void
				w.at(at, func(_, _ func(int), net *network.Network) { net.FailNode(victim) })
			default: // reboot
				w.at(at, func(_, recover func(int), net *network.Network) { net.RecoverNode(victim); recover(victim) })
			}
		}
		w.at(horizon, func(_, _ func(int), _ *network.Network) {})
		w.p.Start()
		w.r.Start()
		if err := w.schedP.At(horizon, w.p.Stop); err != nil {
			t.Fatal(err)
		}
		if err := w.schedR.At(horizon, w.r.Stop); err != nil {
			t.Fatal(err)
		}
		steps := w.run(t)
		if w.r.evictions == 0 || len(w.logR) == 0 {
			t.Errorf("trial %d: script raised no eviction or suspicion (%d steps); it tests nothing", trial, steps)
		}
	}
}

// TestSuspectCallbackFailsAnotherNodeMidSweep pins the sweep contract
// the reference model defines: the stale set is fixed by the deadline
// before the first callback fires, so a callback that fails another
// node does not change which neighbours this sweep evicts, and every
// eviction of one sweep is reported at the same virtual time in
// ascending id order.
func TestSuspectCallbackFailsAnotherNodeMidSweep(t *testing.T) {
	// A watcher (0) in range of three peers that are also in range of
	// each other.
	layout, err := field.FromPositions([]geo.Point{
		geo.Pt(50, 50), geo.Pt(55, 50), geo.Pt(50, 55), geo.Pt(45, 50),
	}, 100, 20)
	if err != nil {
		t.Fatal(err)
	}
	// A 1 ns jitter keeps every beacon on the same instant of each
	// period, so the first sweep past the deadline finds 1 and 2 stale
	// together.
	w := newTwin(layout, Config{Interval: time.Second, Jitter: 1, MissLimit: 2}, 0, 5)
	w.onSuspect(func(id int, fail func(int)) {
		if id == 1 {
			fail(3)
		}
	})
	w.at(3*time.Second, func(fail, _ func(int), _ *network.Network) { fail(1); fail(2) })
	w.p.Start()
	w.r.Start()
	if err := w.schedP.At(20*time.Second, w.p.Stop); err != nil {
		t.Fatal(err)
	}
	if err := w.schedR.At(20*time.Second, w.r.Stop); err != nil {
		t.Fatal(err)
	}
	w.run(t)

	if len(w.logP) != 3 {
		t.Fatalf("OnSuspect calls = %v, want 1, 2, then 3", w.logP)
	}
	if w.logP[0].id != 1 || w.logP[1].id != 2 || w.logP[0].at != w.logP[1].at {
		t.Errorf("peers silenced together not reported in one sweep in id order: %v", w.logP)
	}
	if w.logP[2].id != 3 || w.logP[2].at <= w.logP[1].at {
		t.Errorf("node failed from the callback reported in the same sweep: %v", w.logP)
	}
	for _, id := range []int{1, 2, 3} {
		if !w.p.Suspect(id) {
			t.Errorf("node %d not suspected", id)
		}
	}
}

// TestReverseSlots checks the O(E) reverse-slot column against a search
// of every neighbour row.
func TestReverseSlots(t *testing.T) {
	p, _, _ := protocolFixture(t, 300, 12, Config{})
	layout := p.net.Layout()
	for a := 0; a < layout.N(); a++ {
		for k, b := range layout.Neighbors(a) {
			pos := sort.SearchInts(layout.Neighbors(b), a)
			if want := p.off[b] + int32(pos); p.rev[p.off[a]+int32(k)] != want {
				t.Fatalf("rev of edge %d→%d = %d, want %d", a, b, p.rev[p.off[a]+int32(k)], want)
			}
		}
	}
}
