package main

import (
	"strings"
	"testing"
)

func TestRunSingleExperimentText(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-quick", "fig6b"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"Figure 6", "DIM", "Pool", "300"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunCSVFormat(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-quick", "-format", "csv", "fig7a"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "Query,DIM,Pool") {
		t.Errorf("CSV header missing:\n%s", got)
	}
	if !strings.Contains(got, "1-Partial,") {
		t.Errorf("CSV row missing:\n%s", got)
	}
}

func TestRunMarkdownFormat(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-quick", "-format", "markdown", "insert"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "| NetworkSize | DIM | Pool |") {
		t.Errorf("markdown table missing:\n%s", got)
	}
	if !strings.HasPrefix(got, "### ") {
		t.Errorf("markdown heading missing:\n%s", got)
	}
}

func TestRunMultipleExperiments(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-quick", "poolsize", "energy"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "side-length") || !strings.Contains(got, "energy footprint") {
		t.Errorf("missing experiment outputs:\n%s", got)
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil {
		t.Error("no experiment accepted")
	}
	if err := run([]string{"bogus"}, &out); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run([]string{"-format", "xml", "fig6a"}, &out); err == nil {
		t.Error("unknown format accepted")
	}
	if err := run([]string{"-nosuchflag"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-trace-ring", "-1", "saturation"}, &out); err == nil {
		t.Error("negative trace ring accepted")
	}
	if err := run([]string{"-queries", "-5", "-sizes", "50", "fig6a"}, &out); err == nil {
		t.Error("negative query count accepted")
	}
	if err := run([]string{"-queries", "0", "fig7a"}, &out); err == nil {
		t.Error("zero query count accepted")
	}
}

// TestRunTraceRing: a tiny flight recorder must still produce a valid
// saturation table — eviction degrades the attribution columns, never
// the run.
func TestRunTraceRing(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-quick", "-trace-ring", "512", "saturation"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "queue%") {
		t.Errorf("saturation table missing attribution columns:\n%s", out.String())
	}
}

func TestAllCoversEveryExperiment(t *testing.T) {
	if len(order) != len(experiments) {
		t.Fatalf("order lists %d experiments, map has %d", len(order), len(experiments))
	}
	for _, name := range order {
		if _, ok := experiments[name]; !ok {
			t.Errorf("ordered name %q missing from the experiment map", name)
		}
	}
}

func TestParseSizes(t *testing.T) {
	got, err := parseSizes("300, 600,900")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 300 || got[2] != 900 {
		t.Errorf("parseSizes = %v", got)
	}
	if _, err := parseSizes("300,abc"); err == nil {
		t.Error("garbage size accepted")
	}
	if _, err := parseSizes("1"); err == nil {
		t.Error("size below 2 accepted")
	}
}

func TestRunCustomSizes(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-quick", "-sizes", "300", "fig6b"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "300") || strings.Contains(got, "600") {
		t.Errorf("custom sizes not honoured:\n%s", got)
	}
	if err := run([]string{"-sizes", "x", "fig6b"}, &out); err == nil {
		t.Error("bad -sizes accepted")
	}
}
