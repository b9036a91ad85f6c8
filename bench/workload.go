package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"noble/client"
	"noble/internal/serve"
	"noble/internal/store"
)

// Engine tuning under test: the defaults noble-serve ships with.
const (
	batchWindow = 2 * time.Millisecond
	maxBatch    = 32
)

// Load shape constants.
const (
	singlePool    = 64          // pooled single-fingerprint requests
	bulkPool      = 32          // pooled 32-fingerprint requests
	bulkRows      = maxBatch    // fingerprints per localize_bulk request
	fleetPool     = 256         // pooled fleet fingerprints
	fleetRate     = 2000.0      // fleet_open offered rate, fingerprints/s
	fleetDeadline = time.Second // fleet_open per-arrival deadline past its due time
	fleetLimitMs  = 10.0        // fleet.max_rate_within_limit latency limit on p95
	walSync       = 100 * time.Millisecond
)

// maxWorkers is how many load workers (connections) may run at once:
// more than the CPUs would measure the benchmark's own scheduling.
func maxWorkers() int { return min(runtime.NumCPU(), 2) }

// workloadDef names one workload and knows how to set it up.
type workloadDef struct {
	name string
	why  string
	// setup builds the workload's models, payload pools and reference
	// answers from the seed, boots its engine (and listener and client),
	// and sends one warm-up operation.
	setup func(p *plan, traced bool) (instance, error)
}

// instance is one booted workload: it keeps its engine, listener, client
// and traffic position for the whole run.
type instance interface {
	// drive runs the load for d and records into rec: latency per
	// request, ops attempted and failed (an error, an expired deadline or
	// a wrong answer), elapsed and CPU time.
	drive(d time.Duration, rec *sliceStats)
	engine() *serve.Engine
	batchKind() string
	close() error
}

// workloads is the fixed workload set, in reporting order.
func workloads() []*workloadDef {
	return []*workloadDef{
		{
			name: "localize_single",
			why:  "closed loop, 1 connection, 1 fingerprint per request: the lone-device fix, where the batcher's wait and the batch-1 pass are the request",
			setup: func(p *plan, traced bool) (instance, error) {
				return newLocalizeInstance(p, traced, "ls", singlePool, 1)
			},
		},
		{
			name: "localize_bulk",
			why:  "closed loop, 1 connection, 32 fingerprints per request: every pass is a full batch, so the forward pass and the codec are the request",
			setup: func(p *plan, traced bool) (instance, error) {
				return newLocalizeInstance(p, traced, "lb", bulkPool, bulkRows)
			},
		},
		{
			name:  "track_durable",
			why:   "closed loop, 2 sessions on 2 connections, one IMU segment per append, WiFi fix every 16th step, WAL on: the write path (session lock, journal, JSON codec)",
			setup: newTrackInstance,
		},
		{
			name:  "fleet_open",
			why:   "open loop, Poisson arrivals at 2000 fingerprints/s calling Engine.Localize in-process: the only workload where batches form from uncoordinated arrivals",
			setup: newFleetInstance,
		},
	}
}

// sliceStats is what one slice of one workload measured.
type sliceStats struct {
	latMs     []float64 // one per successful request
	attempted int       // ops: fingerprints located or tracking steps
	failed    int
	elapsed   time.Duration
	cpu       time.Duration // process user+sys over the slice

	// Open loop only.
	lateMs      []float64 // how late each arrival was released
	inflightEnd int       // arrivals still unanswered when the schedule ended

	// keepSpans makes the slice retain one span per request (traced runs).
	keepSpans bool
	spans     []span
}

// observe records one request of ops operations that started at t0 and
// ended at t1. name and id label its span when spans are kept.
func (s *sliceStats) observe(name, id string, t0, t1 time.Time, ops int, ok bool) {
	s.attempted += ops
	if !ok {
		s.failed += ops
		return
	}
	s.latMs = append(s.latMs, float64(t1.Sub(t0))/1e6)
	if s.keepSpans {
		s.spans = append(s.spans, newSpan(name, id, "", t0, t1))
	}
}

// merge folds a worker's private stats into s.
func (s *sliceStats) merge(w *sliceStats) {
	s.latMs = append(s.latMs, w.latMs...)
	s.attempted += w.attempted
	s.failed += w.failed
	s.spans = append(s.spans, w.spans...)
}

// timed runs load and stamps rec with its wall and CPU time.
func timed(rec *sliceStats, load func()) {
	cpu0, t0 := cpuTime(), time.Now()
	load()
	rec.elapsed = time.Since(t0)
	rec.cpu = cpuTime() - cpu0
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// server is one engine with whatever sits around it: an optional WAL, an
// optional loopback listener with an SDK client wired to it.
type server struct {
	eng     *serve.Engine
	handler http.Handler
	cli     *client.Client

	httpSrv   *http.Server
	serveDone chan struct{}
	journal   *store.Journal
	walDir    string
	stopSync  context.CancelFunc
	syncDone  chan struct{}
}

// serverOptions selects what boots around the engine.
type serverOptions struct {
	traced bool
	wal    bool // journal under p.outDir at the shipped fsync=interval/100ms
	listen bool // loopback listener + SDK client
}

// bootServer builds a fresh engine over reg at the shipped batching
// defaults.
func bootServer(p *plan, reg *serve.Registry, opt serverOptions) (*server, error) {
	s := &server{}
	cfg := serve.Config{Registry: reg, BatchWindow: batchWindow, MaxBatch: maxBatch, NoTrace: !opt.traced}
	if opt.wal {
		if err := os.MkdirAll(p.outDir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(p.outDir, "wal-")
		if err != nil {
			return nil, err
		}
		s.walDir = dir
		j, err := store.Open(store.Config{
			Dir: dir, Fsync: store.FsyncInterval, SyncInterval: walSync,
			Logf: func(string, ...any) {},
		})
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("opening journal: %w", err)
		}
		if _, err := j.Recover(); err != nil {
			j.Close()
			os.RemoveAll(dir)
			return nil, fmt.Errorf("recovering fresh journal: %w", err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		s.journal, s.stopSync, s.syncDone = j, cancel, make(chan struct{})
		go func() {
			defer close(s.syncDone)
			j.Run(ctx)
		}()
		cfg.Journal = j
	}
	s.eng = serve.NewEngine(cfg)
	s.handler = serve.NewServer(s.eng).Handler()
	if opt.listen {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		s.httpSrv = &http.Server{Handler: s.handler}
		s.serveDone = make(chan struct{})
		go func() {
			defer close(s.serveDone)
			s.httpSrv.Serve(ln) // returns ErrServerClosed on close
		}()
		s.cli = client.New("http://"+ln.Addr().String(), client.WithRetries(0, 0), client.WithFastTransport())
	}
	return s, nil
}

// close stops the listener and the journal and removes the WAL.
func (s *server) close() error {
	var first error
	if s.httpSrv != nil {
		first = s.httpSrv.Close()
		<-s.serveDone
	}
	if s.journal != nil {
		s.stopSync()
		<-s.syncDone
		if err := s.journal.Close(); err != nil && first == nil {
			first = err
		}
		if err := os.RemoveAll(s.walDir); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// booted is what every instance carries: its server, whether it traces,
// and the batcher kind its load rides.
type booted struct {
	srv    *server
	traced bool
	kind   string
}

func (b *booted) engine() *serve.Engine { return b.srv.eng }
func (b *booted) batchKind() string     { return b.kind }
func (b *booted) close() error          { return b.srv.close() }

// traceCtx tags ctx with a request identifier when the run is traced, so
// the server's trace of the request and the benchmark's span share it.
func traceCtx(ctx context.Context, traced bool, prefix string, n int) (context.Context, string) {
	if !traced {
		return ctx, ""
	}
	id := prefix + "-" + strconv.Itoa(n)
	return client.WithTraceID(ctx, id), id
}

// localizeInstance is the closed-loop localize workload on one
// connection: localize_single (1 row) and localize_bulk (32 rows).
type localizeInstance struct {
	booted
	prefix string
	pool   []localizeCase
	step   int
}

func newLocalizeInstance(p *plan, traced bool, prefix string, poolSize, rows int) (instance, error) {
	m, err := buildModels(p.shape, p.seed, false)
	if err != nil {
		return nil, err
	}
	in := &localizeInstance{booted: booted{traced: traced, kind: "localize"}, prefix: prefix}
	in.pool = localizePool(rand.New(rand.NewSource(p.seed)), m.wifi, poolSize, rows)
	if in.srv, err = bootServer(p, m.registry(), serverOptions{traced: traced, listen: true}); err != nil {
		return nil, err
	}
	var warm sliceStats
	in.request(&warm)
	if warm.failed > 0 {
		in.close()
		return nil, fmt.Errorf("warm-up localize failed or answered wrongly")
	}
	return in, nil
}

// request sends the next pooled request and checks its answer.
func (in *localizeInstance) request(rec *sliceStats) {
	c := &in.pool[in.step%len(in.pool)]
	ctx, id := traceCtx(context.Background(), in.traced, in.prefix, in.step)
	in.step++
	t0 := time.Now()
	got, err := in.srv.cli.LocalizePrepared(ctx, c.req)
	t1 := time.Now()
	rec.observe("client.localize", id, t0, t1, len(c.want), err == nil && positionsMatch(got, c.want))
}

func (in *localizeInstance) drive(d time.Duration, rec *sliceStats) {
	timed(rec, func() {
		for end := time.Now().Add(d); time.Now().Before(end); {
			in.request(rec)
		}
	})
}

// trackInstance is track_durable: one SDK session per worker, each on its
// own connection, one segment per append, journaled.
type trackInstance struct {
	booted
	script   *trackScript
	sessions []*trackSession
}

// trackSession is one worker's session and its reference replay.
type trackSession struct {
	sess *client.Session
	ref  trackReference
	step int
	log  []stepObs // observations not yet verified
}

func newTrackInstance(p *plan, traced bool) (instance, error) {
	m, err := buildModels(p.shape, p.seed, false)
	if err != nil {
		return nil, err
	}
	in := &trackInstance{booted: booted{traced: traced, kind: "track"}}
	in.script = newTrackScript(rand.New(rand.NewSource(p.seed)), m.imu.SegmentDim(), m.wifi.InputDim())
	if in.srv, err = bootServer(p, m.registry(), serverOptions{traced: traced, wal: true, listen: true}); err != nil {
		return nil, err
	}
	for w := 0; w < maxWorkers(); w++ {
		in.sessions = append(in.sessions, &trackSession{
			sess: in.srv.cli.Session(fmt.Sprintf("bench%d-%d", p.seed, w)),
			ref:  trackReference{wifi: m.wifi, imu: m.imu, script: in.script, sess: w},
		})
	}
	// Warm-up: every session's create request.
	var warm sliceStats
	for w, ts := range in.sessions {
		in.append(w, ts, &warm)
	}
	in.verify(&warm)
	if warm.failed > 0 {
		in.close()
		return nil, fmt.Errorf("warm-up session create failed or answered wrongly")
	}
	return in, nil
}

// append sends session w's next step and logs the answer for replay.
func (in *trackInstance) append(w int, ts *trackSession, rec *sliceStats) {
	req := in.script.request(w, ts.step, isFix(ts.step))
	ctx, id := traceCtx(context.Background(), in.traced, "td"+strconv.Itoa(w), ts.step)
	ts.step++
	t0 := time.Now()
	st, err := ts.sess.Append(ctx, req)
	t1 := time.Now()
	o := observeStep(st, err)
	ts.log = append(ts.log, o)
	rec.observe("client.append", id, t0, t1, 1, !o.failed)
}

// verify replays every logged step against the models directly and moves
// mismatches from rec's successes to its failures.
func (in *trackInstance) verify(rec *sliceStats) {
	for _, ts := range in.sessions {
		rec.failed += ts.ref.verify(ts.log)
		ts.log = ts.log[:0]
	}
}

func (in *trackInstance) drive(d time.Duration, rec *sliceStats) {
	workers := make([]sliceStats, len(in.sessions))
	timed(rec, func() {
		end := time.Now().Add(d)
		var wg sync.WaitGroup
		for w, ts := range in.sessions {
			workers[w].keepSpans = rec.keepSpans
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(end) {
					in.append(w, ts, &workers[w])
				}
			}()
		}
		wg.Wait()
	})
	for w := range workers {
		rec.merge(&workers[w])
	}
	in.verify(rec) // off the clock
}

// fleetInstance is fleet_open: independent devices calling
// Engine.Localize in-process on a seeded Poisson schedule. HTTP is
// bypassed on purpose so arrival concurrency is not capped by a
// connection count.
type fleetInstance struct {
	booted
	rate float64
	pool []localizeCase
	rng  *rand.Rand
	seq  int
}

func newFleetInstance(p *plan, traced bool) (instance, error) {
	m, err := buildModels(p.shape, p.seed, false)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.seed))
	in := &fleetInstance{booted: booted{traced: traced, kind: "localize"}, rate: fleetRate, rng: rng}
	in.pool = localizePool(rng, m.wifi, fleetPool, 1)
	if in.srv, err = bootServer(p, m.registry(), serverOptions{traced: traced}); err != nil {
		return nil, err
	}
	got, err := in.srv.eng.Localize(context.Background(), serve.LocalizeQuery{Model: wifiName, Fingerprints: in.pool[0].fps})
	if err != nil || !slices.Equal(got, in.pool[0].want) {
		in.close()
		return nil, fmt.Errorf("warm-up Engine.Localize failed or answered wrongly: %v", err)
	}
	return in, nil
}

// poissonSchedule draws arrival offsets of a Poisson process of the given
// rate over d, with the pooled payload each arrival sends.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration, pool int) (due []time.Duration, payload []int) {
	for t := rng.ExpFloat64() / rate; t < d.Seconds(); t += rng.ExpFloat64() / rate {
		due = append(due, time.Duration(t*float64(time.Second)))
		payload = append(payload, rng.Intn(pool))
	}
	return due, payload
}

func (in *fleetInstance) drive(d time.Duration, rec *sliceStats) {
	due, payload := poissonSchedule(in.rng, in.rate, d, len(in.pool))
	n := len(due)
	var (
		lat      = make([]time.Duration, n) // from the due time; 0 = failed
		late     = make([]float64, n)
		inflight atomic.Int64
		wg       sync.WaitGroup
	)
	eng, tracer := in.srv.eng, in.srv.eng.Tracer()
	base := in.seq
	in.seq += n
	var start time.Time
	timed(rec, func() {
		start = time.Now()
		for i := 0; i < n; i++ {
			dueAt := start.Add(due[i])
			sleepUntil(dueAt)
			late[i] = float64(time.Since(dueAt)) / 1e6
			inflight.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer inflight.Add(-1)
				c := &in.pool[payload[i]]
				ctx, cancel := context.WithDeadline(context.Background(), dueAt.Add(fleetDeadline))
				defer cancel()
				// The HTTP adapter starts a request's trace; a direct caller
				// does it itself. Both are no-ops on an untraced engine.
				ctx, tr := tracer.Start(ctx, "localize", "")
				got, err := eng.Localize(ctx, serve.LocalizeQuery{Model: wifiName, Fingerprints: c.fps})
				tr.Finish(http.StatusOK)
				if err == nil && slices.Equal(got, c.want) {
					lat[i] = time.Since(dueAt)
				}
			}()
		}
		sleepUntil(start.Add(d))
		rec.inflightEnd = int(inflight.Load())
		wg.Wait()
	})
	// Goodput is measured against the schedule, not against how long the
	// stragglers took to drain.
	rec.elapsed = d
	rec.lateMs = late
	for i := range lat {
		id := ""
		if in.traced {
			id = "fo-" + strconv.Itoa(base+i)
		}
		dueAt := start.Add(due[i])
		rec.observe("engine.localize", id, dueAt, dueAt.Add(lat[i]), 1, lat[i] > 0)
	}
}
