package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"noble/internal/geo"
	"noble/internal/obs"
	"noble/internal/store"
)

// findTrace pulls one retained trace out of a tracer dump by ID,
// searching the recent ring first, then the tail-sampled sets.
func findTrace(d obs.DumpResult, id string) (obs.TraceDump, bool) {
	for _, set := range [][]obs.TraceDump{d.Recent, d.Slowest, d.ErroredRing} {
		for _, tr := range set {
			if tr.ID == id {
				return tr, true
			}
		}
	}
	return obs.TraceDump{}, false
}

// spanOf returns the first span with the given stage.
func spanOf(tr obs.TraceDump, stage string) (obs.SpanDump, bool) {
	for _, sp := range tr.Spans {
		if sp.Stage == stage {
			return sp, true
		}
	}
	return obs.SpanDump{}, false
}

// postTraced is postJSON plus a client-supplied X-Trace-Id header.
func postTraced(t *testing.T, h http.Handler, path, body, traceID string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Trace-Id", traceID)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// segFeatures returns k segments' worth of IMU features from the test
// fixture.
func segFeatures(t *testing.T, k int) []float64 {
	t.Helper()
	segDim := imuModel.SegmentDim()
	if len(imuDS.Test[0].Features) < k*segDim {
		t.Fatalf("fixture path too short for %d segments", k)
	}
	return imuDS.Test[0].Features[:k*segDim]
}

// TestTraceStitchesAcrossBatchPass pins the batcher-boundary stitching
// deterministically: the first pass is held open inside predict while
// two more requests enqueue, so when it releases they MUST coalesce
// into one shared pass — and each rider's trace must carry its own
// queue_wait plus the shared batch_pass annotated with the pass's total
// row count, not its own.
func TestTraceStitchesAcrossBatchPass(t *testing.T) {
	tracer := obs.NewTracer(obs.Options{})
	entered := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int32
	predict := func(model string, rows []int) ([]int, error) {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
		}
		return make([]int, len(rows)), nil
	}
	b := NewBatcher[int, int]("stitch", 10*time.Millisecond, 64, predict, nil)

	submit := func(name string) (id string, done chan error) {
		ctx, tr := tracer.Start(context.Background(), name, "")
		done = make(chan error, 1)
		go func() {
			_, err := b.Submit(ctx, "m", []int{1})
			tr.Finish(http.StatusOK)
			done <- err
		}()
		return tr.ID(), done
	}

	id1, done1 := submit("first")
	<-entered // pass 1 formed (request 1 alone) and is now blocked mid-predict

	id2, done2 := submit("second")
	id3, done3 := submit("third")
	// Wait until both riders are actually enqueued before releasing the
	// blocked pass; Submit enqueues synchronously before parking, so the
	// queue row count is the deterministic signal.
	for {
		b.mu.Lock()
		rows := b.queues["m"].rows
		b.mu.Unlock()
		if rows == 2 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	for _, done := range []chan error{done1, done2, done3} {
		if err := <-done; err != nil {
			t.Fatalf("submit: %v", err)
		}
	}

	dump := tracer.Dump()
	first, ok := findTrace(dump, id1)
	if !ok {
		t.Fatalf("trace %s not retained", id1)
	}
	if sp, ok := spanOf(first, obs.StageBatchPass); !ok || sp.Rows != 1 || sp.Kind != "stitch" {
		t.Fatalf("first request's batch pass = %+v, want its solo pass (rows=1 kind=stitch)", sp)
	}
	for _, id := range []string{id2, id3} {
		tr, ok := findTrace(dump, id)
		if !ok {
			t.Fatalf("trace %s not retained", id)
		}
		if _, ok := spanOf(tr, obs.StageQueueWait); !ok {
			t.Fatalf("trace %s has no queue_wait span: %+v", id, tr.Spans)
		}
		sp, ok := spanOf(tr, obs.StageBatchPass)
		if !ok {
			t.Fatalf("trace %s has no batch_pass span: %+v", id, tr.Spans)
		}
		if sp.Rows != 2 || sp.Kind != "stitch" {
			t.Fatalf("trace %s batch pass = %+v, want the shared pass (rows=2 kind=stitch)", id, sp)
		}
	}
}

// newJournaledTestServer wires a server with batching on and a durable
// journal under -fsync=always, so request traces carry the full span
// set: decode, queue_wait, batch_pass, journal_append, journal_fsync,
// encode.
func newJournaledTestServer(t *testing.T) *Server {
	t.Helper()
	fixtures(t)
	journal, err := store.Open(store.Config{Dir: t.TempDir(), Fsync: store.FsyncAlways, Logf: t.Logf})
	if err != nil {
		t.Fatalf("opening journal: %v", err)
	}
	t.Cleanup(func() { journal.Close() })
	reg := NewRegistry("", t.Logf)
	reg.Add(&Model{Name: "wifi-test", Kind: KindWiFi, WiFi: wifiModel})
	reg.Add(&Model{Name: "imu-test", Kind: KindIMU, IMU: imuModel})
	return New(Config{Registry: reg, BatchWindow: 2 * time.Millisecond, MaxBatch: 64, Journal: journal})
}

// TestDebugTracesEndToEnd drives localize, track, and session requests
// through the full HTTP stack and asserts /debug/traces returns their
// complete multi-stage timelines — including the batch-queue wait and,
// for the journaled session append, the journal fsync span — with a
// client-supplied X-Trace-Id honored and echoed.
func TestDebugTracesEndToEnd(t *testing.T) {
	s := newJournaledTestServer(t)
	h := s.Handler()

	locBody, _ := json.Marshal(LocalizeRequest{
		Model: "wifi-test", Fingerprints: [][]float64{wifiDS.Test[0].Features},
	})
	lw := postTraced(t, h, "/v2/localize", string(locBody), "trace-localize")
	if lw.Code != http.StatusOK {
		t.Fatalf("localize: %d %s", lw.Code, lw.Body)
	}
	if got := lw.Header().Get("X-Trace-Id"); got != "trace-localize" {
		t.Fatalf("X-Trace-Id echo = %q, want trace-localize", got)
	}

	p := imuDS.Test[0]
	trkBody, _ := json.Marshal(TrackRequest{
		Model: "imu-test",
		Paths: []TrackPath{{Start: XY{X: p.Start.X, Y: p.Start.Y}, Features: p.Features}},
	})
	tw := postTraced(t, h, "/v2/track", string(trkBody), "trace-track")
	if tw.Code != http.StatusOK {
		t.Fatalf("track: %d %s", tw.Code, tw.Body)
	}

	sesBody, _ := json.Marshal(SessionSegmentsRequest{
		Model: "imu-test", Start: &XY{}, Features: segFeatures(t, 2),
	})
	sw := postTraced(t, h, "/v2/sessions/dev-trace/segments", string(sesBody), "trace-session")
	if sw.Code != http.StatusOK {
		t.Fatalf("session append: %d %s", sw.Code, sw.Body)
	}

	req := httptest.NewRequest(http.MethodGet, "/debug/traces", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/traces: %d %s", w.Code, w.Body)
	}
	var dump obs.DumpResult
	if err := json.Unmarshal(w.Body.Bytes(), &dump); err != nil {
		t.Fatalf("decoding /debug/traces: %v\n%s", err, w.Body)
	}

	loc, ok := findTrace(dump, "trace-localize")
	if !ok {
		t.Fatalf("localize trace not in dump: %s", w.Body)
	}
	for _, stage := range []string{obs.StageDecode, obs.StageQueueWait, obs.StageBatchPass, obs.StageEncode} {
		if _, ok := spanOf(loc, stage); !ok {
			t.Fatalf("localize trace missing %s span: %+v", stage, loc.Spans)
		}
	}
	if sp, _ := spanOf(loc, obs.StageBatchPass); sp.Kind != "localize" || sp.Rows < 1 {
		t.Fatalf("localize batch span = %+v", sp)
	}

	trk, ok := findTrace(dump, "trace-track")
	if !ok {
		t.Fatalf("track trace not in dump: %s", w.Body)
	}
	for _, stage := range []string{obs.StageDecode, obs.StageQueueWait, obs.StageBatchPass, obs.StageEncode} {
		if _, ok := spanOf(trk, stage); !ok {
			t.Fatalf("track trace missing %s span: %+v", stage, trk.Spans)
		}
	}
	if sp, _ := spanOf(trk, obs.StageBatchPass); sp.Kind != "track" {
		t.Fatalf("track batch span = %+v", sp)
	}

	ses, ok := findTrace(dump, "trace-session")
	if !ok {
		t.Fatalf("session trace not in dump: %s", w.Body)
	}
	for _, stage := range []string{obs.StageDecode, obs.StageQueueWait, obs.StageBatchPass,
		obs.StageJournalAppend, obs.StageJournalFsync, obs.StageEncode} {
		if _, ok := spanOf(ses, stage); !ok {
			t.Fatalf("session trace missing %s span: %+v", stage, ses.Spans)
		}
	}
}

// TestMetricsExposesStageHistograms asserts the per-stage histograms
// and runtime gauges land on the serving /metrics endpoint.
func TestMetricsExposesStageHistograms(t *testing.T) {
	s := newTestServer(t, 2*time.Millisecond)
	h := s.Handler()
	locBody, _ := json.Marshal(LocalizeRequest{
		Model: "wifi-test", Fingerprints: [][]float64{wifiDS.Test[0].Features},
	})
	if w := postJSON(t, h, "/v2/localize", string(locBody)); w.Code != http.StatusOK {
		t.Fatalf("localize: %d %s", w.Code, w.Body)
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	body := w.Body.String()
	for _, want := range []string{
		`noble_stage_seconds_bucket{stage="total"`,
		`noble_stage_seconds_bucket{stage="batch_pass"`,
		`noble_traces_total{class="all"}`,
		"noble_goroutines",
		"noble_gc_pause_seconds_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestConcurrentSessionCreateFsyncAlways races many creators on one
// brand-new session under -fsync=always and then replays the journal:
// the create record (seq 1) must be present and the history gap-free —
// the regression this pins is a racing later-seq commit fsyncing and
// acking before seq 1 was appended.
func TestConcurrentSessionCreateFsyncAlways(t *testing.T) {
	fixtures(t)
	dir := t.TempDir()
	journal, err := store.Open(store.Config{Dir: dir, Fsync: store.FsyncAlways, Logf: t.Logf})
	if err != nil {
		t.Fatalf("opening journal: %v", err)
	}
	reg := NewRegistry("", t.Logf)
	reg.Add(&Model{Name: "wifi-test", Kind: KindWiFi, WiFi: wifiModel})
	reg.Add(&Model{Name: "imu-test", Kind: KindIMU, IMU: imuModel})
	engine := NewEngine(Config{Registry: reg, BatchWindow: time.Millisecond, MaxBatch: 64, Journal: journal})

	origin := geo.Point{}
	seg := segFeatures(t, 1)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Every worker sends a full create spec: exactly one wins the
			// create, the rest race it as plain appends that must commit
			// AFTER the create record is durable.
			_, err := engine.AppendSegments(context.Background(), SegmentQuery{
				Session:  "dev-race",
				Model:    "imu-test",
				Start:    &origin,
				Features: seg,
			})
			if err != nil {
				t.Errorf("append: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := journal.Close(); err != nil {
		t.Fatalf("closing journal: %v", err)
	}

	rec, err := store.Load(dir)
	if err != nil {
		t.Fatalf("loading journal: %v", err)
	}
	if len(rec.Histories) != 1 {
		t.Fatalf("histories = %d, want 1", len(rec.Histories))
	}
	hist := rec.Histories[0]
	if hist.Damaged {
		t.Fatalf("history damaged: %+v", hist.Events)
	}
	if len(hist.Events) == 0 || hist.Events[0].Type != store.EvCreate || hist.Events[0].Seq != 1 {
		t.Fatalf("first event = %+v, want the seq-1 create record", hist.Events[0])
	}
	if hist.LastSeq != int64(workers)+1 {
		t.Fatalf("last seq = %d, want %d (create + %d step records)", hist.LastSeq, workers+1, workers)
	}
}

// TestSessionModelConflictDoesNotLeakLock pins the create-path lock
// discipline: after a model-conflict rejection the session must still
// be appendable — a leaked lock would deadlock the follow-up request.
func TestSessionModelConflictDoesNotLeakLock(t *testing.T) {
	fixtures(t)
	reg := NewRegistry("", t.Logf)
	reg.Add(&Model{Name: "wifi-test", Kind: KindWiFi, WiFi: wifiModel})
	reg.Add(&Model{Name: "imu-test", Kind: KindIMU, IMU: imuModel})
	engine := NewEngine(Config{Registry: reg, MaxBatch: 64})

	ctx := context.Background()
	origin := geo.Point{}
	if _, err := engine.AppendSegments(ctx, SegmentQuery{
		Session: "dev-conflict", Model: "imu-test", Start: &origin,
	}); err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := engine.AppendSegments(ctx, SegmentQuery{
		Session: "dev-conflict", Model: "wifi-test",
	}); err == nil {
		t.Fatal("conflicting model accepted")
	}
	done := make(chan error, 1)
	go func() {
		_, err := engine.AppendSegments(ctx, SegmentQuery{
			Session: "dev-conflict", Features: segFeatures(t, 1),
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("append after conflict: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("append after conflict deadlocked: session lock leaked")
	}
}

// TestStreamLinesTraceThemselves pins the long-lived-row contract: an
// NDJSON connection is not a request, so its lifetime must never land
// in the "total" stage — each line is traced (and totalled) on its own,
// under the connection's trace ID. The connection idles far longer than
// any line takes; before the fix that idle time WAS the one total
// sample.
func TestStreamLinesTraceThemselves(t *testing.T) {
	const idle = 300 * time.Millisecond
	s := newTestServer(t, 0)
	open, _ := json.Marshal(streamOpen{SessionSegmentsRequest: SessionSegmentsRequest{Model: "imu-test", Start: &XY{}}})
	step, _ := json.Marshal(SessionSegmentsRequest{Features: segFeatures(t, 1)})

	pr, pw := io.Pipe()
	req := httptest.NewRequest(http.MethodPost, "/v2/track/stream", pr)
	req.Header.Set("X-Trace-Id", "trace-stream")
	w := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(w, req)
	}()
	pw.Write(append(open, '\n'))
	time.Sleep(idle)
	pw.Write(append(step, '\n'))
	pw.Close()
	<-done
	if w.Code != http.StatusOK || strings.Count(w.Body.String(), "\n") != 2 {
		t.Fatalf("stream: %d %s", w.Code, w.Body)
	}
	if got := w.Header().Get("X-Trace-Id"); got != "trace-stream" {
		t.Fatalf("X-Trace-Id echo = %q", got)
	}

	total := s.engine.Tracer().StageSnapshot()[obs.StageTotal]
	if total.Count != 2 {
		t.Fatalf("total stage has %d samples for a 2-line stream, want one per line", total.Count)
	}
	if max := time.Duration(total.MaxSeconds * float64(time.Second)); max >= idle/2 {
		t.Fatalf("total stage max %v: the connection's %v idle leaked into a line's total", max, idle)
	}
	var lines []obs.TraceDump
	for _, tr := range s.engine.Tracer().Dump().Recent {
		if tr.ID == "trace-stream" {
			if tr.Name != "v2_track_stream" || tr.RequestID == "" {
				t.Fatalf("line trace %+v: want the row's metric name and the stream's request ID", tr)
			}
			lines = append(lines, tr)
		}
	}
	if len(lines) != 2 {
		t.Fatalf("%d retained traces for trace-stream, want one per line", len(lines))
	}
	// Dump is newest first: the step line carries the forward pass.
	for _, stage := range []string{obs.StageDecode, obs.StageBatchPass, obs.StageEncode} {
		if _, ok := spanOf(lines[0], stage); !ok {
			t.Fatalf("step line trace missing %s span: %+v", stage, lines[0].Spans)
		}
	}
}
