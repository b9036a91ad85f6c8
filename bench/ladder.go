package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"path/filepath"
	"slices"
	"time"

	"noble/internal/core"
	"noble/internal/geo"
	"noble/internal/imu"
	"noble/internal/mat"
	"noble/internal/serve"
	"noble/internal/store"
)

// rungDef declares one timed rung of the ladder. parent is the rung that
// contains this one's work (its span's parent): the same seeded payloads
// go through both, so a layer's self time is its rung minus the rung
// below, and a child slower than its parent is a measurement fault.
type rungDef struct {
	name     string
	parent   string
	minCalls int     // calls timed even when the rung's time budget is spent
	scale    float64 // reported value = p50 microseconds per call x scale
}

// ladderRungs lists the rungs outside in, in the order they are timed.
var ladderRungs = []rungDef{
	{"client.localize_b1_us", "", 50, 1},
	{"client.localize_b32_us", "", 30, 1},
	{"client.append_us", "", 50, 1},
	{"serve.http.localize_b1_us", "client.localize_b1_us", 50, 1},
	{"serve.http.localize_b32_us", "client.localize_b32_us", 30, 1},
	{"serve.http.append_us", "client.append_us", 50, 1},
	{"serve.engine.localize_b1_us", "serve.http.localize_b1_us", 50, 1},
	{"serve.engine.localize_b32_us", "serve.http.localize_b32_us", 30, 1},
	{"serve.engine.append_us", "serve.http.append_us", 50, 1},
	{"serve.engine.append_journal_us", "", 50, 1},
	{"serve.engine.append_fix_us", "", 50, 1},
	{"serve.batcher.noop_submit_us", "serve.engine.localize_b1_us", 50, 1},
	{"core.wifi_predict_b1_us", "serve.engine.localize_b1_us", 50, 1},
	{"core.wifi_predict_b8_us_per_row", "", 50, 1.0 / 8},
	{"core.wifi_predict_b32_us_per_row", "serve.engine.localize_b32_us", 30, 1.0 / bulkRows},
	{"core.wifi_predict_int8_b1_us", "", 50, 1},
	{"core.wifi_predict_int8_b32_us_per_row", "", 30, 1.0 / bulkRows},
	{"core.imu_predict_paths_b1_us", "serve.engine.append_us", 50, 1},
	{"core.tracker_step_commit_us", "serve.engine.append_us", 50, 1},
	{"mat.gemm_b1_us", "core.wifi_predict_b1_us", 50, 1},
	{"mat.gemm_b32_us", "core.wifi_predict_b32_us_per_row", 30, 1},
	{"mat.qgemm_b32_us", "core.wifi_predict_int8_b32_us_per_row", 30, 1},
	{"store.append_us", "serve.engine.append_journal_us", 50, 1},
	{"store.sync_ms", "", 5, 1e-3},
	{"store.recover_ms", "", 3, 1e-3},
}

// ladderPasses is how many times the ladder walks its rungs: each rung's
// samples come from this many moments of the run, so a slow phase of a
// shared host lands on a part of every rung instead of all of a few, and
// rungs stay comparable with each other.
const ladderPasses = 4

// timeRung times one pass of a rung: sequential calls of f after a short
// warm-up — a pass's share of p.rungCalls at most, of r.minCalls at least,
// and past those only while the pass's share of p.rungBudget lasts. It
// returns the per-call microseconds and the pass's span.
func timeRung(p *plan, r rungDef, f func() error) ([]float64, span, error) {
	maxCalls, minCalls := max(1, p.rungCalls/ladderPasses), max(1, r.minCalls/ladderPasses)
	for i := 0; i < max(2, minCalls/4); i++ {
		if err := f(); err != nil {
			return nil, span{}, fmt.Errorf("ladder: %s: %w", r.name, err)
		}
	}
	us := make([]float64, 0, maxCalls)
	start := time.Now()
	for len(us) < maxCalls && (len(us) < minCalls || time.Since(start) < p.rungBudget/ladderPasses) {
		t0 := time.Now()
		if err := f(); err != nil {
			return nil, span{}, fmt.Errorf("ladder: %s: %w", r.name, err)
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	sp := newSpan(r.name, "ladder", r.parent, start, time.Now())
	sp.N, sp.P50Us = len(us), percentile(sorted(us), 0.5)
	return us, sp, nil
}

// memWriter is an in-memory http.ResponseWriter for the serve.http rungs.
type memWriter struct {
	hdr    http.Header
	body   bytes.Buffer
	status int
}

func (w *memWriter) Header() http.Header         { return w.hdr }
func (w *memWriter) Write(b []byte) (int, error) { return w.body.Write(b) }
func (w *memWriter) WriteHeader(code int)        { w.status = code }

// serveHTTP runs one POST through the server's handler in memory.
func serveHTTP(h http.Handler, path string, body []byte) error {
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	w := &memWriter{hdr: http.Header{}, status: http.StatusOK}
	h.ServeHTTP(w, req)
	if w.status != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", path, w.status, w.body.Bytes())
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// ladderRig is what the rungs call into: one model set, the seeded
// payloads, an engine behind a loopback listener, and a journaled engine.
type ladderRig struct {
	p         *plan
	m         *models
	single    []localizeCase
	bulk      []localizeCase
	script    *trackScript
	plain     *server
	journaled *server
	next      int // payload cursor shared by the rungs

	journalSteps int // appends the journaled engine has taken
}

func newLadderRig(p *plan) (*ladderRig, error) {
	m, err := buildModels(p.shape, p.seed, true)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.seed))
	rig := &ladderRig{p: p, m: m}
	rig.single = localizePool(rng, m.wifi, singlePool, 1)
	rig.bulk = localizePool(rng, m.wifi, bulkPool, bulkRows)
	rig.script = newTrackScript(rng, m.imu.SegmentDim(), m.wifi.InputDim())
	if rig.plain, err = bootServer(p, m.registry(), serverOptions{listen: true}); err != nil {
		return nil, err
	}
	if rig.journaled, err = bootServer(p, m.registry(), serverOptions{wal: true}); err != nil {
		rig.plain.close()
		return nil, err
	}
	return rig, nil
}

func (rig *ladderRig) close() error {
	err := rig.plain.close()
	if jerr := rig.journaled.close(); err == nil {
		err = jerr
	}
	return err
}

// pick returns the next pooled case.
func (rig *ladderRig) pick(pool []localizeCase) *localizeCase {
	rig.next++
	return &pool[rig.next%len(pool)]
}

var errWrongAnswer = fmt.Errorf("answer differs from the model's")

// rungs returns the function each rung times, by rung name.
func (rig *ladderRig) rungs() map[string]func() error {
	ctx := context.Background()
	fns := map[string]func() error{}

	// client: the SDK over loopback.
	viaClient := func(pool []localizeCase) func() error {
		return func() error {
			c := rig.pick(pool)
			got, err := rig.plain.cli.LocalizePrepared(ctx, c.req)
			if err == nil && !positionsMatch(got, c.want) {
				err = errWrongAnswer
			}
			return err
		}
	}
	fns["client.localize_b1_us"] = viaClient(rig.single)
	fns["client.localize_b32_us"] = viaClient(rig.bulk)
	sess, sessStep := rig.plain.cli.Session("ladder-client"), 0
	fns["client.append_us"] = func() error {
		_, err := sess.Append(ctx, rig.script.request(0, sessStep, false))
		sessStep++
		return err
	}

	// serve.http: Server.Handler().ServeHTTP into memory.
	viaHandler := func(pool []localizeCase) func() error {
		bodies := make([][]byte, len(pool))
		for i := range pool {
			// Plain floats always marshal.
			bodies[i], _ = json.Marshal(map[string]any{"model": wifiName, "fingerprints": pool[i].fps})
		}
		return func() error {
			rig.next++
			return serveHTTP(rig.plain.handler, "/v2/localize", bodies[rig.next%len(bodies)])
		}
	}
	fns["serve.http.localize_b1_us"] = viaHandler(rig.single)
	fns["serve.http.localize_b32_us"] = viaHandler(rig.bulk)
	httpStep := 0
	fns["serve.http.append_us"] = func() error {
		body, _ := json.Marshal(rig.script.request(0, httpStep, false)) // the SDK marshals per call too
		httpStep++
		return serveHTTP(rig.plain.handler, "/v2/sessions/ladder-http/segments", body)
	}

	// serve.engine: the transport-independent facade.
	viaEngine := func(pool []localizeCase) func() error {
		return func() error {
			c := rig.pick(pool)
			got, err := rig.plain.eng.Localize(ctx, serve.LocalizeQuery{Model: wifiName, Fingerprints: c.fps})
			if err == nil && !slices.Equal(got, c.want) {
				err = errWrongAnswer
			}
			return err
		}
	}
	fns["serve.engine.localize_b1_us"] = viaEngine(rig.single)
	fns["serve.engine.localize_b32_us"] = viaEngine(rig.bulk)
	engineAppend := func(eng *serve.Engine, id string, fix bool) func() error {
		step := 0
		return func() error {
			r := rig.script.request(0, step, fix)
			step++
			q := serve.SegmentQuery{
				Session: id, Model: r.Model, Window: r.Window, Features: r.Features,
				WiFiModel: r.WiFiModel, Fingerprint: r.Fingerprint,
			}
			if r.Start != nil {
				q.Start = &geo.Point{X: r.Start.X, Y: r.Start.Y}
			}
			_, err := eng.AppendSegments(ctx, q)
			return err
		}
	}
	fns["serve.engine.append_us"] = engineAppend(rig.plain.eng, "ladder-engine", false)
	journaledAppend := engineAppend(rig.journaled.eng, "ladder-journal", false)
	fns["serve.engine.append_journal_us"] = func() error {
		rig.journalSteps++
		return journaledAppend()
	}
	fns["serve.engine.append_fix_us"] = engineAppend(rig.plain.eng, "ladder-fix", true)

	// serve.batcher: a lone Submit over a no-op predict at the shipped
	// window — pure hand-off plus wait.
	noop := serve.NewBatcher("noop", batchWindow, maxBatch,
		func(_ string, rows [][]float64) ([]int, error) { return make([]int, len(rows)), nil }, nil)
	fns["serve.batcher.noop_submit_us"] = func() error {
		_, err := noop.Submit(ctx, wifiName, rig.pick(rig.single).fps)
		return err
	}

	// core: the models, called directly.
	predict := func(model *core.WiFiModel, rows int) func() error {
		return func() error {
			model.PredictBatch(rig.pick(rig.bulk).fps[:rows])
			return nil
		}
	}
	fns["core.wifi_predict_b1_us"] = predict(rig.m.wifi, 1)
	fns["core.wifi_predict_b8_us_per_row"] = predict(rig.m.wifi, 8)
	fns["core.wifi_predict_b32_us_per_row"] = predict(rig.m.wifi, bulkRows)
	fns["core.wifi_predict_int8_b1_us"] = predict(rig.m.wifiInt8, 1)
	fns["core.wifi_predict_int8_b32_us_per_row"] = predict(rig.m.wifiInt8, bulkRows)
	// A session's steady-state windows, decoded ahead so the rung times the
	// forward pass alone.
	tracker := rig.m.imu.NewPathTracker(geo.Point{}, sessionWindow)
	paths := make([]imu.Path, trackPool)
	var pred core.IMUPrediction
	for i, seg := range rig.script.segs {
		paths[i], _ = tracker.Step(seg) // the script's segments have the model's width
		pred = rig.m.imu.PredictPaths(paths[i : i+1])[0]
		tracker.Commit(seg, pred)
	}
	fns["core.imu_predict_paths_b1_us"] = func() error {
		rig.next++
		i := rig.next % trackPool
		rig.m.imu.PredictPaths(paths[i : i+1])
		return nil
	}
	fns["core.tracker_step_commit_us"] = func() error {
		rig.next++
		seg := rig.script.segs[rig.next%trackPool]
		_, err := tracker.Step(seg)
		tracker.Commit(seg, pred)
		return err
	}

	rig.matRungs(fns)

	// store: the journal, called directly on the journaled engine's WAL.
	journal, seq := rig.journaled.journal, int64(0)
	appendEvent := func() error {
		seq++
		//vet:ignore journalock -- the ladder's store rung owns a synthetic session no engine ever serves: one goroutine appends its records in order, so there is no session lock to take
		return journal.Append(&store.Event{
			Type: store.EvSteps, Session: "ladder-store", Gen: 1, Seq: seq, Time: time.Now().UnixNano(),
			Steps: &store.StepsEvent{
				SegDim: rig.m.imu.SegmentDim(), Count: 1,
				Features: rig.script.segs[int(seq)%trackPool], Preds: make([]store.PredRecord, 1),
			},
		})
	}
	fns["store.append_us"] = appendEvent
	fns["store.sync_ms"] = func() error {
		if err := appendEvent(); err != nil {
			return err
		}
		return journal.Sync()
	}
	fns["store.recover_ms"] = func() error {
		_, err := store.Load(rig.journaled.walDir)
		return err
	}
	return fns
}

// matRungs adds the GEMM kernels over the WiFi model's layer shapes
// (trunk plus fine head): one call is one forward pass worth of
// MatMulInto, or of QMat.MulInto for the int8 kernel. The first layer's
// input is real (sparse) fingerprints; hidden activations are dense.
func (rig *ladderRig) matRungs(fns map[string]func() error) {
	dims := rig.gemmDims()
	rng := rand.New(rand.NewSource(rig.p.seed))
	layers := len(dims) - 1
	weights := make([]*mat.Dense, layers)
	for i := range weights {
		weights[i] = mat.New(dims[i], dims[i+1])
		mat.FillUniform(weights[i], rng, -0.1, 0.1)
	}
	inputs := func(rows int) []*mat.Dense {
		in := make([]*mat.Dense, layers)
		in[0] = mat.FromRows(rig.bulk[0].fps[:rows])
		for i := 1; i < layers; i++ {
			in[i] = mat.New(rows, dims[i])
			mat.FillUniform(in[i], rng, -1, 1)
		}
		return in
	}
	gemm := func(rows int) func() error {
		in, dst := inputs(rows), make([]*mat.Dense, layers)
		for i := range dst {
			dst[i] = mat.New(rows, dims[i+1])
		}
		return func() error {
			for i, w := range weights {
				mat.MatMulInto(dst[i], in[i], w)
			}
			return nil
		}
	}
	fns["mat.gemm_b1_us"] = gemm(1)
	fns["mat.gemm_b32_us"] = gemm(bulkRows)

	in := inputs(bulkRows)
	qweights, codes, acc := make([]*mat.QMat, layers), make([][]int8, layers), make([][]int32, layers)
	for i, w := range weights {
		q := mat.QuantizeWeights(w)
		qweights[i] = q
		codes[i] = make([]int8, bulkRows*q.Kp)
		for r := 0; r < bulkRows; r++ {
			mat.QuantizeRowInto(codes[i][r*q.Kp:(r+1)*q.Kp], in[i].Row(r), 1.0/127)
		}
		acc[i] = make([]int32, bulkRows*q.N)
	}
	fns["mat.qgemm_b32_us"] = func() error {
		for i, q := range qweights {
			q.MulInto(acc[i], codes[i], bulkRows)
		}
		return nil
	}
}

// gemmDims is the chain of layer widths the mat rungs multiply through.
func (rig *ladderRig) gemmDims() []int {
	return append(append([]int{rig.m.wifi.InputDim()}, rig.p.shape.wifiHidden...), rig.m.wifi.Classes())
}

// runLadder times every rung in order and fills the ladder's per-layer
// metrics, including the derived ones: GEMM rate, WAL bytes per step, and
// the codec and transport self times.
func runLadder(p *plan, out *layerRun) (err error) {
	rig, err := newLadderRig(p)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := rig.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	fns, v := rig.rungs(), out.values
	walBefore, err := dirBytes(rig.journaled.walDir)
	if err != nil {
		return err
	}
	samples := map[string][]float64{}
	for pass := 0; pass < ladderPasses; pass++ {
		for _, r := range ladderRungs {
			us, sp, err := timeRung(p, r, fns[r.name])
			if err != nil {
				return err
			}
			samples[r.name] = append(samples[r.name], us...)
			out.spans = append(out.spans, sp)
			if pass == 0 && r.name == "serve.engine.append_journal_us" {
				// Everything in the WAL so far is this rung's first pass:
				// one create and one step record per call.
				if err := rig.journaled.journal.Sync(); err != nil {
					return err
				}
				walAfter, err := dirBytes(rig.journaled.walDir)
				if err != nil {
					return err
				}
				v["store.wal_bytes_per_step"] = float64(walAfter-walBefore) / float64(rig.journalSteps)
			}
		}
	}
	for _, r := range ladderRungs {
		p50 := percentile(sorted(samples[r.name]), 0.5)
		out.rungUs[r.name] = p50
		v[r.name] = p50 * r.scale
	}
	var flops float64
	dims := rig.gemmDims()
	for i := 0; i+1 < len(dims); i++ {
		flops += 2 * float64(dims[i]*dims[i+1])
	}
	v["mat.gemm_b32_gflops"] = bulkRows * flops / (v["mat.gemm_b32_us"] * 1e3)
	v["serve.http.codec_self_b32_us"] = v["serve.http.localize_b32_us"] - v["serve.engine.localize_b32_us"]
	v["client.transport_self_b1_us"] = v["client.localize_b1_us"] - v["serve.http.localize_b1_us"]
	return nil
}

// ladderNoise is how far a rung's p50 may exceed the p50 of the rung that
// contains it before it is reported: rungs a few percent apart (a codec
// around a 3 ms forward pass) trade places on a shared host.
const ladderNoise = 0.10

// ladderInversions lists the rungs whose p50 exceeds the p50 of the rung
// that contains them by more than ladderNoise.
func ladderInversions(rungUs map[string]float64) []string {
	var bad []string
	for _, r := range ladderRungs {
		if r.parent != "" && rungUs[r.name] > rungUs[r.parent]*(1+ladderNoise) {
			bad = append(bad, fmt.Sprintf("%s %.1f us > %s %.1f us", r.name, rungUs[r.name], r.parent, rungUs[r.parent]))
		}
	}
	return bad
}
