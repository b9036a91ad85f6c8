package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestHelpGolden pins the command's -h output (modulo the binary-name
// "Usage of" header): four flags. Adding or renaming a flag has to be
// deliberate enough to update the golden file.
//
// Regenerate with: go test ./cmd/noble-bench -run TestHelpGolden -update
var update = flag.Bool("update", false, "rewrite testdata/help.golden")

func TestHelpGolden(t *testing.T) {
	// The command declares its flags on flag.CommandLine, where the test
	// binary's own live too; render everything that is not the harness's.
	fs := flag.NewFlagSet("noble-bench", flag.ContinueOnError)
	var buf bytes.Buffer
	fs.SetOutput(&buf)
	count := 0
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") && f.Name != "update" {
			fs.Var(f.Value, f.Name, f.Usage)
			count++
		}
	})
	fs.PrintDefaults()
	if count != 4 {
		t.Errorf("%d flags, want 4", count)
	}

	golden := filepath.Join("testdata", "help.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("writing %s: %v", golden, err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading %s: %v", golden, err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("flag help drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, buf.Bytes(), want)
	}
}
