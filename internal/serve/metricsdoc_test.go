package serve_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"noble/internal/retrain"
	"noble/internal/serve"
	"noble/internal/store"
)

// Every metric family the server can emit has a row in the runbook's
// alerting table, and the table names no family the server does not
// emit: an operator paged by a series can look up what it means, and a
// row that outlived its series is caught. The server is scraped with
// every optional subsystem on — journal, tracer, a staged generation with
// mirroring, the retrain manager (the real one: this external test
// package may import it, and a stub would have to repeat its names).
func TestEveryMetricFamilyIsInTheRunbook(t *testing.T) {
	dir := t.TempDir()
	if err := serve.TrainDemoBundles(dir, serve.DemoTiny, nil); err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry(dir, func(string, ...any) {})
	if _, _, err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	active, _ := reg.Get("demo-wifi")
	if err := reg.AddStaged(&serve.Model{Name: active.Name, Kind: active.Kind, WiFi: active.WiFi}, serve.StageShadow); err != nil {
		t.Fatal(err)
	}
	journal, err := store.Open(store.Config{Dir: t.TempDir(), Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	if _, err := journal.Recover(); err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{Registry: reg, Journal: journal, MirrorRate: 1})
	srv.SetRetrain(retrain.NewManager(retrain.ManagerConfig{}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	emitted := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^# TYPE (noble_\w+) `).FindAllStringSubmatch(string(scrape), -1) {
		emitted[m[1]] = true
	}
	if len(emitted) < 40 {
		t.Fatalf("scrape shows only %d noble_* families; a subsystem is off", len(emitted))
	}

	runbook, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, found := strings.Cut(string(runbook), "## Alerting cheat-sheet")
	if !found {
		t.Fatal("docs/OPERATIONS.md has no Alerting cheat-sheet section")
	}
	documented := map[string]bool{}
	family := regexp.MustCompile(`noble_\w+`)
	for _, line := range strings.Split(table, "\n") {
		if cells := strings.Split(line, "|"); len(cells) > 2 { // | Family | Watch | It signals |
			for _, name := range family.FindAllString(cells[1], -1) {
				documented[name] = true
			}
		}
	}

	var missing, stale []string
	for name := range emitted {
		if !documented[name] {
			missing = append(missing, name)
		}
	}
	for name := range documented {
		if !emitted[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("emitted on /metrics but no row in the alerting table (Family column):\n  %s", strings.Join(missing, "\n  "))
	}
	if len(stale) > 0 {
		t.Errorf("in the alerting table but never emitted:\n  %s", strings.Join(stale, "\n  "))
	}
}
