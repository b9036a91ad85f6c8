package serve

import (
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

// TestOperationTable checks the table against the mux and the docs:
// every row is mounted at its path, the /v1 twin of that path (the
// dialect the server no longer speaks) gets the mux's plain 404, and
// every endpoint label is listed in docs/API.md.
func TestOperationTable(t *testing.T) {
	s := newTestServer(t, 0)
	doc, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	labels := map[string]bool{}
	for _, o := range operations {
		path := strings.ReplaceAll(o.path, "{id}", "x")
		if _, pattern := s.mux.Handler(httptest.NewRequest(o.method, path, nil)); pattern != o.method+" "+o.path {
			t.Errorf("%s %s routes to %q, want %q", o.method, path, pattern, o.method+" "+o.path)
		}
		assertV1Gone(t, s.Handler(), httptest.NewRequest(o.method, path, nil))
		if labels[o.metric] {
			t.Errorf("endpoint label %q is used by two rows", o.metric)
		}
		labels[o.metric] = true
		if !strings.Contains(string(doc), "`"+o.metric+"`") {
			t.Errorf("endpoint label %q (%s %s) is not listed in docs/API.md", o.metric, o.method, path)
		}
	}
}

// assertV1Gone sends req, a /v2 request, under its former /v1 path and
// requires the mux's plain 404: no route, no request ID, no envelope.
func assertV1Gone(t *testing.T, h http.Handler, req *http.Request) {
	t.Helper()
	req.URL.Path = "/v1" + strings.TrimPrefix(req.URL.Path, "/v2")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusNotFound || w.Body.String() != "404 page not found\n" || w.Header().Get("X-Request-Id") != "" {
		t.Errorf("%s %s answers %d %q (X-Request-Id %q), want the mux's plain 404",
			req.Method, req.URL.Path, w.Code, w.Body.String(), w.Header().Get("X-Request-Id"))
	}
}
