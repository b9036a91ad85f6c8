package serve

import (
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

// TestOperationTable checks the table against the mux and the docs:
// every row is mounted under every dialect that has it (and answers 404
// under one that does not), and every endpoint label a row can be
// counted under is listed in docs/API.md.
func TestOperationTable(t *testing.T) {
	s := newTestServer(t, 0)
	doc, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	labels := map[string]bool{}
	for _, d := range dialects {
		for _, o := range operations {
			path := strings.ReplaceAll(d.prefix+o.path, "{id}", "x")
			_, pattern := s.mux.Handler(httptest.NewRequest(o.method, path, nil))
			want := ""
			if d.version >= o.since {
				want = o.method + " " + d.prefix + o.path
			}
			if pattern != want {
				t.Errorf("%s %s routes to %q, want %q", o.method, path, pattern, want)
			}
			if want == "" {
				continue
			}
			label := d.metricPrefix + o.metric
			if labels[label] {
				t.Errorf("endpoint label %q is used by two rows", label)
			}
			labels[label] = true
			if !strings.Contains(string(doc), "`"+label+"`") {
				t.Errorf("endpoint label %q (%s %s) is not listed in docs/API.md", label, o.method, path)
			}
		}
	}
}
