package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGolden locks the exact output of every experiment's seeded quick
// run, plus the actor-engine resilience variant: any change to
// placement, routing, resolving, or cost accounting shows up as a golden
// diff. Regenerate intentionally with:
//
//	go test ./cmd/poolsim -run Golden -update
func TestGolden(t *testing.T) {
	type goldenCase struct {
		name string
		args []string
	}
	var cases []goldenCase
	for _, name := range order {
		cases = append(cases, goldenCase{name, []string{"-quick", name}})
	}
	cases = append(cases, goldenCase{"resilience-node", []string{"-quick", "-backend=node", "-repair", "resilience"}})
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
