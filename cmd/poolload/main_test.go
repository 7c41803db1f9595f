package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGolden locks the exact curves of the seeded quick sweeps: any
// change to the arrival stream, the station model, admission control, or
// latency accounting shows up as a golden diff. Regenerate intentionally
// with:
//
//	go test ./cmd/poolload -run Golden -update
func TestGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"pool-open", []string{"-quick"}},
		{"dim-open", []string{"-quick", "-backend", "dim"}},
		{"ght-open", []string{"-quick", "-backend", "ght", "-rates", "50,200,400"}},
		{"pool-actor-open", []string{"-quick", "-backend", "pool-actor", "-rates", "50,200"}},
		{"pool-closed", []string{"-quick", "-mode", "closed", "-admission", "admit-all"}},
		{"pool-batch", []string{"-quick", "-admission", "shed", "-batch", "8", "-rates", "200,400"}},
		{"pool-token", []string{"-quick", "-admission", "token", "-token-rate", "40", "-rates", "100,400"}},
		{"pool-uniform", []string{"-quick", "-arrival", "uniform", "-admission", "admit-all", "-rates", "100,400"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(tc.args, &out); err != nil {
				t.Fatal(err)
			}
			got := out.String()
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("output diverged from %s.\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}

func TestBadFlags(t *testing.T) {
	cases := [][]string{
		{"-mode", "sideways"},
		{"-arrival", "bursty"},
		{"-admission", "magic"},
		{"-backend", "nosuch", "-quick"},
		{"-rates", "10,x"},
		{"-rates", "-5"},
		{"-mix", "1,2"},
		{"-events-per-node", "-1", "-quick", "-rates", "10"},
		{"-format", "yaml", "-quick", "-rates", "10"},
		{"positional"},
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestParseMixDefaults(t *testing.T) {
	m, err := parseMix("", "ght")
	if err != nil {
		t.Fatal(err)
	}
	if m.Range != 0 {
		t.Fatalf("ght default mix includes ranges: %+v", m)
	}
	m, err = parseMix("", "pool")
	if err != nil {
		t.Fatal(err)
	}
	if m.Point <= 0 || m.Range <= 0 {
		t.Fatalf("pool default mix %+v", m)
	}
	if _, err := parseMix("0.5,0.25,0.25", "pool"); err != nil {
		t.Fatal(err)
	}
}
