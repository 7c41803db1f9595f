package metrics

import (
	"math"
	"reflect"
	"testing"
	"time"

	"pooldcs/internal/sim"
	"pooldcs/internal/stats"
)

func TestDisabledRegistryIsInert(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	c := r.Counter("c", "")
	g := r.GaugeFunc("g", "", func() float64 { return 3 })
	h := r.Histogram("h", "")
	cv := r.NodeCounter("cv", "", 4)
	gv := r.GaugeVec("gv", "", "node", NodeLabels(4))
	gf := r.NodeGaugeFunc("gf", "", 4, func(int) float64 { return 7 })
	c.Inc()
	c.Add(5)
	h.Observe(9)
	cv.Inc(2)
	cv.Add(1, 10)
	gv.Set(0, 2)
	gv.Add(0, 1)
	if c.Value() != 0 || g.Value() != 0 || cv.Value(2) != 0 || gv.Value(0) != 0 || gf.Value(0) != 0 {
		t.Fatal("disabled metrics recorded values")
	}
	if cv.Values() != nil || gv.Values() != nil || h.Hist() != nil {
		t.Fatal("disabled metrics returned data")
	}
	r.Sample(time.Second)
	if r.Series("c") != nil || r.Names() != nil || r.NodeValues("cv") != nil || r.Value("c") != 0 {
		t.Fatal("disabled registry returned series")
	}
	snap := r.Snapshot()
	if len(snap.Families) != 0 {
		t.Fatal("disabled registry snapshot has families")
	}
	stop := r.StartSampling(sim.NewScheduler(), time.Second)
	stop()
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := New()
	c := r.Counter("ops_total", "ops")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %v, want 5", got)
	}
	h := r.Histogram("lat_ms", "")
	for _, v := range []int64{1, 2, 2, 3, 100} {
		h.Observe(v)
	}
	if h.Hist().Total() != 5 || h.Hist().Quantile(50) != 2 {
		t.Fatalf("histogram: %v", h.Hist())
	}
	cf := r.CounterFunc("crashes_total", "", func() float64 { return 42 })
	if cf.Value() != 42 {
		t.Fatalf("counter func = %v", cf.Value())
	}
	gf := r.GaugeFunc("pending", "", func() float64 { return 3.5 })
	if gf.Value() != 3.5 {
		t.Fatalf("gauge func = %v", gf.Value())
	}
}

func TestVectors(t *testing.T) {
	r := New()
	cv := r.NodeCounter("tx_total", "frames", 3)
	cv.Inc(0)
	cv.Add(2, 5)
	cv.Inc(99) // out of range: ignored
	cv.Inc(-1)
	if got := cv.Values(); !reflect.DeepEqual(got, []float64{1, 0, 5}) {
		t.Fatalf("counter vec = %v", got)
	}
	if cv.Sum() != 6 || cv.Value(2) != 5 || cv.Value(9) != 0 {
		t.Fatal("counter vec accessors wrong")
	}
	gv := r.GaugeVec("mailbox", "", "node", NodeLabels(2))
	gv.Set(1, 4)
	gv.Add(1, -1)
	if gv.Value(1) != 3 || gv.Sum() != 3 {
		t.Fatalf("gauge vec = %v", gv.Values())
	}
	loads := []float64{10, 20, 30}
	gf := r.NodeGaugeFunc("stored", "", 3, func(i int) float64 { return loads[i] })
	if gf.Sum() != 60 || !reflect.DeepEqual(gf.Values(), loads) {
		t.Fatalf("gauge func vec = %v", gf.Values())
	}
	if got := r.NodeValues("stored"); !reflect.DeepEqual(got, loads) {
		t.Fatalf("NodeValues = %v", got)
	}
	if got := r.NodeValues("tx_total"); !reflect.DeepEqual(got, []float64{1, 0, 5}) {
		t.Fatalf("NodeValues = %v", got)
	}
	if r.NodeValues("nope") != nil || r.NodeValues("mailbox") == nil {
		t.Fatal("NodeValues lookup wrong")
	}
}

func TestIdempotentRegistration(t *testing.T) {
	r := New()
	a := r.Counter("x_total", "first")
	b := r.Counter("x_total", "second help ignored")
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("shared counter not shared")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.GaugeFunc("x_total", "", func() float64 { return 0 })
}

func TestHistogramOf(t *testing.T) {
	r := New()
	shared := stats.NewIntHistogram()
	shared.Add(10)
	h := r.HistogramOf("detect_ms", "", shared)
	if h.Hist() != shared {
		t.Fatal("HistogramOf did not wrap the shared histogram")
	}
	h.Observe(20)
	if shared.Total() != 2 {
		t.Fatal("observation did not reach the shared histogram")
	}
	if r.HistogramOf("other", "", nil) != nil {
		t.Fatal("nil shared histogram should register nothing")
	}
}

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"ok_name:x9": "ok_name:x9",
		"9lead":      "_lead",
		"has-dash":   "has_dash",
		"a b":        "a_b",
		"":           "_",
	}
	for in, want := range cases {
		if got := sanitizeName(in); got != want {
			t.Errorf("sanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSamplingOnScheduler(t *testing.T) {
	r := New()
	sched := sim.NewScheduler()
	c := r.Counter("events_total", "")
	for i := 1; i <= 5; i++ {
		i := i
		sched.At(time.Duration(i)*time.Second, func() { c.Add(uint64(i)) })
	}
	stop := r.StartSampling(sched, 2*time.Second)
	sched.At(7*time.Second, stop)
	sched.RunUntil(10*time.Second, 0)
	got := r.Series("events_total")
	// Ticks at 2s (after the 2s increment: 1+2=3), 4s (+3+4=10), 6s (+5=15);
	// the 8s tick is cancelled by stop at 7s.
	want := []Sample{{2 * time.Second, 3}, {4 * time.Second, 10}, {6 * time.Second, 15}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("series = %v, want %v", got, want)
	}
	sums := r.Summaries(8)
	if len(sums) != 1 || sums[0].Name != "events_total" || sums[0].Points != 3 ||
		sums[0].First != 3 || sums[0].Last != 15 || sums[0].Min != 3 || sums[0].Max != 15 {
		t.Fatalf("summaries = %+v", sums)
	}
	if math.Abs(sums[0].Mean-28.0/3) > 1e-9 {
		t.Fatalf("mean = %v", sums[0].Mean)
	}
	if sums[0].Spark == "" {
		t.Fatal("sparkline empty")
	}
}

func TestSampleScalarReductions(t *testing.T) {
	r := New()
	r.Counter("c", "").Add(2)
	r.GaugeFunc("g", "", func() float64 { return 5 })
	cv := r.NodeCounter("cv", "", 2)
	cv.Inc(0)
	cv.Inc(1)
	h := r.Histogram("h", "")
	h.Observe(1)
	h.Observe(9)
	r.Sample(time.Second)
	for name, want := range map[string]float64{"c": 2, "g": 5, "cv": 2, "h": 2} {
		s := r.Series(name)
		if len(s) != 1 || s[0].V != want {
			t.Errorf("series %q = %v, want one point %v", name, s, want)
		}
		if r.Value(name) != want {
			t.Errorf("Value(%q) = %v, want %v", name, r.Value(name), want)
		}
	}
}

func TestSparkline(t *testing.T) {
	if sparkline(nil, 8) != "" {
		t.Fatal("empty series should render empty")
	}
	flat := []Sample{{0, 5}, {1, 5}, {2, 5}}
	if got := sparkline(flat, 3); got != "▁▁▁" {
		t.Fatalf("flat sparkline = %q", got)
	}
	rising := []Sample{{0, 0}, {1, 7}}
	if got := sparkline(rising, 2); got != "▁█" {
		t.Fatalf("rising sparkline = %q", got)
	}
}
