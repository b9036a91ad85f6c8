package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeFixture lays out one fixture package under a fresh
// testdata/src tree and returns its directory.
func writeFixture(t *testing.T, pkg, src string) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "testdata", "src", pkg)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, pkg+".go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// The exit status is the contract CI reads: 0 for a clean package, 1
// when findings were reported, 2 when analysis could not run. Each
// reconstructed historical bug must keep exiting 1 — a rotted analyzer
// would exit 0, a fixture that stopped loading 2.
func TestExitStatus(t *testing.T) {
	regress, err := filepath.Glob("../../internal/vetrules/testdata/src/*/regress")
	if err != nil || len(regress) == 0 {
		t.Fatalf("no */regress fixtures found (err %v)", err)
	}
	cases := map[string]struct {
		dir  string
		want int
	}{
		"clean":  {writeFixture(t, "clean", "package clean\n\nfunc Add(a, b int) int { return a + b }\n"), 0},
		"broken": {writeFixture(t, "broken", "package broken\n\nfunc F() int { return undefined }\n"), 2},
	}
	for _, dir := range regress {
		cases[strings.TrimPrefix(dir, "../../internal/vetrules/testdata/src/")] = struct {
			dir  string
			want int
		}{dir, 1}
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			var stderr strings.Builder
			if got := run([]string{tc.dir}, io.Discard, &stderr); got != tc.want {
				t.Fatalf("noble-vet %s exited %d, want %d; stderr:\n%s", tc.dir, got, tc.want, stderr.String())
			}
		})
	}
}
