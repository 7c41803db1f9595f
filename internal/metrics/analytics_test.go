package metrics

import (
	"math"
	"testing"

	"pooldcs/internal/rng"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestGini(t *testing.T) {
	if g := Gini(nil); g != 0 {
		t.Fatalf("empty gini = %v", g)
	}
	if g := Gini([]float64{0, 0, 0}); g != 0 {
		t.Fatalf("zero gini = %v", g)
	}
	if g := Gini([]float64{5, 5, 5, 5}); !almost(g, 0) {
		t.Fatalf("uniform gini = %v", g)
	}
	// All load on one of n nodes → (n-1)/n.
	if g := Gini([]float64{0, 0, 0, 12}); !almost(g, 0.75) {
		t.Fatalf("concentrated gini = %v, want 0.75", g)
	}
	// Known hand value: loads 1,2,3,4 → gini = 0.25.
	if g := Gini([]float64{4, 1, 3, 2}); !almost(g, 0.25) {
		t.Fatalf("1..4 gini = %v, want 0.25", g)
	}
	// Spreading load lowers the coefficient.
	if Gini([]float64{10, 0, 0, 0}) <= Gini([]float64{4, 3, 2, 1}) {
		t.Fatal("Gini not ordering concentration correctly")
	}
	// Negative loads clamp to zero rather than corrupting the sum.
	if g := Gini([]float64{-5, 10}); !almost(g, 0.5) {
		t.Fatalf("clamped gini = %v, want 0.5", g)
	}
}

func TestGiniMatchesStatsGini(t *testing.T) {
	// The sorted-rank formula must agree with the statistical definition
	// of the Gini coefficient, the mean absolute difference over twice
	// the mean: Σ_i Σ_j |x_i − x_j| / (2 n Σ x).
	loads := []float64{3, 0, 7, 7, 1, 12, 4}
	var diff, sum float64
	for _, a := range loads {
		sum += a
		for _, b := range loads {
			diff += math.Abs(a - b)
		}
	}
	want := diff / (2 * float64(len(loads)) * sum)
	if got := Gini(loads); !almost(got, want) {
		t.Fatalf("Gini = %v, mean-absolute-difference Gini = %v", got, want)
	}
}

func TestGiniRandomBounds(t *testing.T) {
	src := rng.New(1)
	for trial := 0; trial < 200; trial++ {
		loads := make([]float64, 1+src.Intn(50))
		for i := range loads {
			loads[i] = float64(src.Intn(100))
		}
		g := Gini(loads)
		if g < -1e-9 || g > 1 {
			t.Fatalf("Gini(%v) = %v out of [0,1]", loads, g)
		}
	}
}

func TestCoV(t *testing.T) {
	if c := CoV(nil); c != 0 {
		t.Fatalf("empty cov = %v", c)
	}
	if c := CoV([]float64{0, 0}); c != 0 {
		t.Fatalf("zero-mean cov = %v", c)
	}
	if c := CoV([]float64{3, 3, 3}); !almost(c, 0) {
		t.Fatalf("uniform cov = %v", c)
	}
	// mean 2, population std dev sqrt(2) → CoV = sqrt(2)/2.
	if c := CoV([]float64{1, 3, 0, 4}); !almost(c, math.Sqrt(2.5)/2) {
		t.Fatalf("cov = %v, want %v", c, math.Sqrt(2.5)/2)
	}
}

func TestTopK(t *testing.T) {
	loads := []float64{2, 8, 8, 1, 6}
	top := TopK(loads, 3)
	if len(top) != 3 {
		t.Fatalf("topk len = %d", len(top))
	}
	// Ties (nodes 1 and 2, both 8) break toward the lower index.
	if top[0].Node != 1 || top[1].Node != 2 || top[2].Node != 4 {
		t.Fatalf("topk order = %+v", top)
	}
	if !almost(top[0].Share, 8.0/25) {
		t.Fatalf("share = %v", top[0].Share)
	}
	if got := TopK(loads, 99); len(got) != len(loads) {
		t.Fatalf("overlong k len = %d", len(got))
	}
	if TopK(nil, 3) != nil || TopK(loads, 0) != nil {
		t.Fatal("degenerate topk should be nil")
	}
}

func TestAnalyze(t *testing.T) {
	b := Analyze([]float64{0, 0, 0, 12})
	if b.Total != 12 || b.Max != 12 || !almost(b.TopShare, 1) || !almost(b.Gini, 0.75) {
		t.Fatalf("balance = %+v", b)
	}
	zero := Analyze(nil)
	if zero.Total != 0 || zero.TopShare != 0 {
		t.Fatalf("zero balance = %+v", zero)
	}
}
