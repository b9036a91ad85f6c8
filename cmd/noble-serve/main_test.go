package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"noble/client"
	"noble/internal/store"
)

// Regenerate with: go test ./cmd/noble-serve -run TestHelpGolden -update
var update = flag.Bool("update", false, "rewrite testdata/help.golden")

// TestHelpGolden pins the command's -h output (modulo the binary-name
// "Usage of" header): twenty flags, each one set by a ci/ gate, a test or
// a runbook step, or a deployment setting. Adding or renaming one has to
// be deliberate enough to update the golden file.
func TestHelpGolden(t *testing.T) {
	fs := newFlagSet(&config{})
	var buf bytes.Buffer
	fs.SetOutput(&buf)
	fs.PrintDefaults()
	count := 0
	fs.VisitAll(func(*flag.Flag) { count++ })
	if count != 20 {
		t.Errorf("%d flags, want 20", count)
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

// Every flag has a row in README's "Flag reference" table, and the table
// names no flag the command does not declare: an operator reading the
// table can set everything it lists, and a row that outlived its flag is
// caught.
func TestEveryServeFlagIsDocumented(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, found := strings.Cut(string(readme), "## Flag reference")
	if !found {
		t.Fatal("README.md has no Flag reference section")
	}
	// The noble-serve table runs from the section start to the next
	// command's table.
	table, _, found := strings.Cut(section, "`noble-retrain`:")
	if !found {
		t.Fatal("README.md Flag reference has no noble-retrain table after noble-serve's")
	}
	documented := map[string]bool{}
	name := regexp.MustCompile("`-([a-z0-9-]+)`")
	for _, line := range strings.Split(table, "\n") {
		if cells := strings.Split(line, "|"); len(cells) > 2 { // | Flags | Control |
			for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
				documented[m[1]] = true
			}
		}
	}

	declared := map[string]bool{}
	newFlagSet(&config{}).VisitAll(func(f *flag.Flag) { declared[f.Name] = true })

	var missing, stale []string
	for n := range declared {
		if !documented[n] {
			missing = append(missing, n)
		}
	}
	for n := range documented {
		if !declared[n] {
			stale = append(stale, n)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("declared by noble-serve but no row in README's flag table:\n  -%s", strings.Join(missing, "\n  -"))
	}
	if len(stale) > 0 {
		t.Errorf("in README's flag table but not a noble-serve flag:\n  -%s", strings.Join(stale, "\n  -"))
	}
}

// Every refused command line names what is wrong and leaves no trace:
// the models directory is not created and no demo training runs, because
// parseConfig checks everything before run does anything. The first four
// groups were silently ignored or silently rewritten before they were
// refused.
func TestParseConfigRefuses(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"retrain trigger without state dir", []string{"-retrain-every", "1h"}, "-retrain-every needs -state-dir"},
		{"drift trigger without state dir", []string{"-retrain-max-error-delta", "3"}, "-retrain-max-error-delta needs -state-dir"},
		{"retrain floor without state dir", []string{"-retrain-min-fixes", "2"}, "-retrain-min-fixes needs -state-dir"},
		{"unknown fsync without state dir", []string{"-fsync", "sometimes"}, "-fsync"},
		{"unknown fsync with state dir", []string{"-state-dir", "unused", "-fsync", "sometimes"}, "-fsync"},
		{"both demo scales", []string{"-demo"}, "-demo and -demo-tiny"},
		{"mirror rate above one", []string{"-mirror-rate", "1.5"}, "-mirror-rate"},
		{"negative mirror rate", []string{"-mirror-rate", "-0.1"}, "-mirror-rate"},
		{"NaN mirror rate", []string{"-mirror-rate", "NaN"}, "-mirror-rate"},
		{"negative reload", []string{"-reload", "-1s"}, "-reload"},
		{"negative batch window", []string{"-batch-window", "-2ms"}, "-batch-window"},
		{"negative lifecycle tick", []string{"-lifecycle-tick", "-5s"}, "-lifecycle-tick"},
		{"negative retrain schedule", []string{"-state-dir", "unused", "-retrain-every", "-1h"}, "-retrain-every"},
		{"batch max below one", []string{"-batch-max", "0"}, "-batch-max"},
		{"stray positional argument", []string{"serve"}, `unexpected argument "serve"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			models := filepath.Join(t.TempDir(), "models")
			args := append([]string{"-demo-tiny", "-models", models}, tc.args...)
			_, err := parseConfig(args)
			if err == nil {
				t.Fatalf("parseConfig(%q) accepted", args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %q", err, tc.want)
			}
			if _, err := os.Stat(models); !os.IsNotExist(err) {
				t.Errorf("refused config left a models dir behind (stat err %v)", err)
			}
		})
	}
}

func TestParseConfigDefaults(t *testing.T) {
	cfg, err := parseConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.fsync != store.FsyncInterval || cfg.batchMax != 32 || cfg.mirrorRate != 0.1 || cfg.stateDir != "" {
		t.Errorf("defaults: %+v", cfg)
	}
	cfg, err = parseConfig([]string{"-state-dir", "s", "-fsync", "always", "-retrain-min-fixes", "1", "-batch-window", "0"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.fsync != store.FsyncAlways || cfg.retrainMinFixes != 1 || cfg.batchWindow != 0 {
		t.Errorf("parsed: %+v", cfg)
	}
}

// TestRunServesAndDrainsBeforeClosingJournal boots the real command on a
// loopback port over tiny demo bundles with a journal under -fsync never,
// so only the journal's Close makes the appended events reach disk. One
// localize and one session append, then cancel: run must return nil, and
// the session must be in the journal a fresh reader recovers.
func TestRunServesAndDrainsBeforeClosingJournal(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, "state")
	cfg, err := parseConfig([]string{"-demo-tiny", "-models", filepath.Join(dir, "models"),
		"-state-dir", state, "-fsync", "never", "-addr", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrs := make(chan string, 1)
	done := make(chan error, 1)
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	go func() { done <- run(ctx, cfg, logger, func(addr string) { addrs <- addr }) }()
	var addr string
	select {
	case addr = <-addrs:
	case err := <-done:
		t.Fatalf("run returned before listening: %v", err)
	case <-time.After(2 * time.Minute):
		t.Fatal("server never listened")
	}

	c := client.New("http://"+addr, client.WithRetries(0, 0))
	req := context.Background()
	models, err := c.Models(req)
	if err != nil {
		t.Fatal(err)
	}
	dims := map[string]int{}
	for _, m := range models {
		dims[m.Name] = m.InputDim + m.SegmentDim
	}
	if _, err := c.Localize(req, "demo-wifi", make([]float64, dims["demo-wifi"])); err != nil {
		t.Fatalf("localize: %v", err)
	}
	st, err := c.Session("dev-1").Append(req, client.AppendRequest{
		Model: "demo-imu", Start: &client.XY{X: 6, Y: 54}, Features: make([]float64, dims["demo-imu"]),
	})
	if err != nil {
		t.Fatalf("session append: %v", err)
	}
	if st.Steps != 1 {
		t.Fatalf("session at %d steps after one segment", st.Steps)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after cancel")
	}

	rec, err := store.Load(state)
	if err != nil {
		t.Fatal(err)
	}
	live := rec.Live()
	if len(live) != 1 || live[0].ID != "dev-1" {
		t.Fatalf("recovered %d live session(s), want dev-1 alone", len(live))
	}
	steps := 0
	for _, ev := range live[0].Events {
		if ev.Type == store.EvSteps {
			steps += ev.Steps.Count
		}
	}
	if steps != 1 {
		t.Errorf("recovered dev-1 with %d committed step(s), want 1", steps)
	}
}

// TestCheckBundlesRefusesCorruptedCalibration runs -check-bundles over
// the tiny demo bundles, whose int8 twins passed the accuracy gate when
// they were published. It passes; after demo-wifi-int8's act_scales are
// multiplied by 1e6 the load-time recheck refuses that bundle by name;
// restoring the file passes again.
func TestCheckBundlesRefusesCorruptedCalibration(t *testing.T) {
	models := t.TempDir()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	check := func(args ...string) error {
		t.Helper()
		cfg, err := parseConfig(append([]string{"-models", models, "-check-bundles"}, args...))
		if err != nil {
			t.Fatal(err)
		}
		return run(context.Background(), cfg, logger, nil)
	}
	if err := check("-demo-tiny"); err != nil {
		t.Fatalf("fresh demo bundles: %v", err)
	}

	path := filepath.Join(models, "demo-wifi-int8", "calibration.json")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Edit the JSON generically, as a hand edit or a foreign tool would.
	var doc map[string]any
	if err := json.Unmarshal(good, &doc); err != nil {
		t.Fatal(err)
	}
	scales, _ := doc["act_scales"].([]any)
	if len(scales) == 0 {
		t.Fatalf("%s has no act_scales", path)
	}
	for i, v := range scales {
		scales[i] = v.(float64) * 1e6
	}
	bad, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := check(); err == nil || !strings.Contains(err.Error(), "demo-wifi-int8") {
		t.Fatalf("corrupted act_scales: %v, want a failure naming demo-wifi-int8", err)
	}

	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := check(); err != nil {
		t.Fatalf("restored calibration: %v", err)
	}
}
