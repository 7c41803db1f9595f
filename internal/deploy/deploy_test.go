package deploy_test

import (
	"strings"
	"testing"
	"time"

	"pooldcs/internal/chaos"
	"pooldcs/internal/deploy"
	"pooldcs/internal/discovery"
	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/load"
	"pooldcs/internal/metrics"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
	"pooldcs/internal/systemtest"
)

// TestLayoutForkDiscipline: the builders draw the layout from exactly
// the "layout" fork of the caller's source — position for position the
// layout field.Generate(spec, src.Fork("layout")) draws — and the parent
// stream advances by exactly that one fork, leaving the caller's later
// forks untouched.
func TestLayoutForkDiscipline(t *testing.T) {
	for _, n := range []int{50, 300, 900} {
		for _, seed := range []int64{1, 42, 9901} {
			want, err := field.Generate(field.DefaultSpec(n), rng.New(seed).Fork("layout"))
			if err != nil {
				t.Fatal(err)
			}
			src := rng.New(seed)
			got, router, err := deploy.Substrate(field.DefaultSpec(n), src)
			if err != nil {
				t.Fatal(err)
			}
			if got.N() != want.N() || router == nil {
				t.Fatalf("n=%d seed=%d: %d nodes, want %d", n, seed, got.N(), want.N())
			}
			for i := range want.Positions {
				if got.Positions[i] != want.Positions[i] {
					t.Fatalf("n=%d seed=%d: node %d at %v, want %v", n, seed, i, got.Positions[i], want.Positions[i])
				}
			}
			ref := rng.New(seed)
			ref.Fork("layout")
			if a, b := src.Fork("next").Float64(), ref.Fork("next").Float64(); a != b {
				t.Fatalf("n=%d seed=%d: the builder consumed more than one parent draw", n, seed)
			}
			only, err := deploy.Layout(field.DefaultSpec(n), rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			if only.Positions[n-1] != want.Positions[n-1] {
				t.Fatalf("n=%d seed=%d: Layout and Substrate disagree", n, seed)
			}
		}
	}
}

func TestLayoutClustered(t *testing.T) {
	spec := field.DefaultSpec(300)
	spec.Clusters, spec.ClusterSpread = 4, 0.12
	want, err := field.Generate(spec, rng.New(7).Fork("layout"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := deploy.Layout(spec, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Positions {
		if got.Positions[i] != want.Positions[i] {
			t.Fatalf("node %d at %v, want %v", i, got.Positions[i], want.Positions[i])
		}
	}
}

func TestLayoutInvalidSpec(t *testing.T) {
	if _, _, err := deploy.Substrate(field.DefaultSpec(1), rng.New(1)); err == nil {
		t.Error("one-node deployment accepted")
	}
}

// TestRegistry: every registered backend builds at N=100, conforms to
// the harness surface, stores and answers a point query, and is found
// by name.
func TestRegistry(t *testing.T) {
	layout, router, err := deploy.Substrate(field.DefaultSpec(100), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"pool", "pool+repl", "dim", "ght", "ght+sr", "node", "node+repair"}
	backends := deploy.Backends()
	if len(backends) != len(want) {
		t.Fatalf("%d backends, want %d", len(backends), len(want))
	}
	for i, b := range backends {
		if b.Name != want[i] {
			t.Errorf("backend %d is %q, want %q", i, b.Name, want[i])
		}
		sched := sim.NewScheduler()
		d := deploy.Deps{Net: network.New(layout), Router: router, Sched: sched, Dims: 3}
		if b.Seeded {
			d.Src = rng.New(int64(i))
		}
		sut, err := b.New(d)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		var _ systemtest.SUT = sut
		if sut.Name() == "" {
			t.Errorf("%s: empty name", b.Name)
		}
		e := event.New(0.25, 0.5, 0.75)
		e.Seq = 1
		if err := sut.Insert(3, e); err != nil {
			t.Fatalf("%s: insert: %v", b.Name, err)
		}
		got, _, err := sut.QueryWithReport(60, event.PointQuery(e))
		if err != nil {
			t.Fatalf("%s: query: %v", b.Name, err)
		}
		if len(got) != 1 || got[0].Seq != 1 {
			t.Errorf("%s: point query returned %v", b.Name, got)
		}
		found, err := deploy.Lookup(b.Name)
		if err != nil || found.Name != b.Name {
			t.Errorf("Lookup(%q) = %q, %v", b.Name, found.Name, err)
		}
	}
}

// TestLoadBackendsResolve: every name the load harness deploys is a
// registry entry (or an alias of one).
func TestLoadBackendsResolve(t *testing.T) {
	for _, name := range load.Backends() {
		if _, err := deploy.Lookup(name); err != nil {
			t.Errorf("load backend %q: %v", name, err)
		}
	}
	b, err := deploy.Lookup("pool-actor")
	if err != nil || b.Name != "node" {
		t.Errorf(`Lookup("pool-actor") = %q, %v; want the "node" entry`, b.Name, err)
	}
	if _, err := deploy.Lookup("cuckoo"); err == nil || !strings.Contains(err.Error(), "node+repair") {
		t.Errorf("unknown backend: err = %v, want one listing the registry", err)
	}
}

// TestUniverseDetect: a universe's crash is torn down only after the
// victim's neighbours miss enough beacons, and the registry the caller
// passed instruments every layer in build order.
func TestUniverseDetect(t *testing.T) {
	src := rng.New(11)
	layout, err := deploy.Layout(field.DefaultSpec(150), src)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	sched := sim.NewScheduler()
	u, err := deploy.NewUniverse(layout, sched, "pool+repl", 3, src.Fork("system"), reg)
	if err != nil {
		t.Fatal(err)
	}
	recovered := -1
	u.Detect(src.Fork("beacons"), discovery.Config{Interval: time.Second},
		chaos.WithRecoveryHook(func(id int) { recovered = id }))

	const victim = 17
	u.Detector.Start()
	if err := sched.At(2*time.Second, func() { u.Engine.CrashNode(victim) }); err != nil {
		t.Fatal(err)
	}
	if err := sched.RunUntil(2500*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	if !u.Engine.Down(victim) || u.Sys.Failed(victim) {
		t.Fatalf("right after the crash: down=%v failed=%v, want an undetected corpse",
			u.Engine.Down(victim), u.Sys.Failed(victim))
	}
	if err := sched.RunUntil(10*time.Second, 0); err != nil {
		t.Fatal(err)
	}
	if !u.Detector.Suspect(victim) || !u.Sys.Failed(victim) {
		t.Fatalf("after the beacon timeout: suspected=%v failed=%v", u.Detector.Suspect(victim), u.Sys.Failed(victim))
	}
	u.Engine.RecoverNode(victim)
	u.Detector.Stop()
	sched.Run()
	if recovered != victim {
		t.Errorf("recovery hook saw %d, want %d", recovered, victim)
	}

	var order []string
	for _, name := range reg.Names() {
		prefix := name[:strings.Index(name, "_")]
		if len(order) == 0 || order[len(order)-1] != prefix {
			order = append(order, prefix)
		}
	}
	if got, want := strings.Join(order, ","), "net,pool,discovery,chaos"; got != want {
		t.Errorf("metric families registered as %s, want %s", got, want)
	}
}

// TestUniverseCrashHelpers: CrashSilent leaves an undetected corpse
// (routing and radio down, storage unaware), CrashDetected also repairs,
// and Recover brings the node back at every layer.
func TestUniverseCrashHelpers(t *testing.T) {
	src := rng.New(12)
	layout, err := deploy.Layout(field.DefaultSpec(100), src)
	if err != nil {
		t.Fatal(err)
	}
	u, err := deploy.NewUniverse(layout, sim.NewScheduler(), "pool", 3, src.Fork("system"), nil)
	if err != nil {
		t.Fatal(err)
	}
	const victim = 7
	state := func() [3]bool {
		return [3]bool{u.Router.Excluded(victim), !u.Net.Alive(victim), u.Sys.Failed(victim)}
	}
	u.CrashSilent(victim)
	if got := state(); got != [3]bool{true, true, false} {
		t.Fatalf("after CrashSilent: excluded/radio down/failed = %v", got)
	}
	u.Recover(victim)
	if got := state(); got != [3]bool{} {
		t.Fatalf("after Recover: excluded/radio down/failed = %v", got)
	}
	if err := u.CrashDetected(victim); err != nil {
		t.Fatal(err)
	}
	if got := state(); got != [3]bool{true, true, true} {
		t.Fatalf("after CrashDetected: excluded/radio down/failed = %v", got)
	}
	u.Recover(victim)
	if got := state(); got != [3]bool{} {
		t.Fatalf("after the second Recover: excluded/radio down/failed = %v", got)
	}
}

func TestUniverseBuildError(t *testing.T) {
	layout, err := deploy.Layout(field.DefaultSpec(100), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := deploy.NewUniverse(layout, sim.NewScheduler(), "node", 0, rng.New(2), nil); err == nil {
		t.Error("zero-dimensional backend accepted")
	}
	if _, err := deploy.NewUniverse(layout, sim.NewScheduler(), "cuckoo", 3, rng.New(2), nil); err == nil {
		t.Error("unknown backend accepted")
	}
}
