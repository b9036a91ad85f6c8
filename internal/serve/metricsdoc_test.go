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
// row that outlived its series is caught. A row that spells out labels
// (`noble_x{a,b}`) names only labels the family's samples carry, so a
// query copied from the runbook selects something. The server is scraped with
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

	// One served request, so the request families carry samples.
	if resp, err := http.Get(ts.URL + "/v2/models"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	emitted := map[string]bool{}
	samples := map[string][]string{} // family -> the label names of each of its samples
	typeLine := regexp.MustCompile(`^# TYPE (noble_\w+) `)
	sampleLine := regexp.MustCompile(`^noble_\w+(?:\{([^}]*)\})? `)
	labelName := regexp.MustCompile(`(\w+)="`)
	current := ""
	for _, line := range strings.Split(string(scrape), "\n") {
		if m := typeLine.FindStringSubmatch(line); m != nil {
			current = m[1]
			emitted[current] = true
		} else if m := sampleLine.FindStringSubmatch(line); m != nil && current != "" {
			var names []string
			for _, l := range labelName.FindAllStringSubmatch(m[1], -1) {
				names = append(names, l[1])
			}
			samples[current] = append(samples[current], ","+strings.Join(names, ",")+",")
		}
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
	spelled := regexp.MustCompile("`(noble_\\w+)\\{([^}]*)\\}`")
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) <= 2 { // | Family | Watch | It signals |
			continue
		}
		for _, name := range family.FindAllString(cells[1], -1) {
			documented[name] = true
		}
		for _, m := range spelled.FindAllStringSubmatch(cells[1], -1) {
			for _, label := range strings.Split(m[2], ",") {
				label, _, _ = strings.Cut(strings.TrimSpace(label), "=")
				for _, names := range samples[m[1]] {
					if !strings.Contains(names, ","+label+",") {
						t.Errorf("the alerting table writes %s, but a %s sample has no %q label (it has %s)", m[0], m[1], label, strings.Trim(names, ","))
						break
					}
				}
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
