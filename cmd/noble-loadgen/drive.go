package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"noble/client"
)

// Env is what a driver sees: a client wired to the server under load,
// the recorder, the models to address, and the boundary of the measured
// window.
type Env struct {
	Ctx         context.Context
	Client      *client.Client
	Rec         *Recorder
	Seed        int64
	Concurrency int
	FixEvery    int              // tracking: a WiFi fix every N steps (0 = none)
	WiFi        client.ModelInfo // the named wifi model, else the first fp64 one
	IMU         client.ModelInfo // the named imu model, else the first fp64 one

	deadline time.Time
	pacer    *pacer // nil = closed loop
}

// Next blocks until the calling worker may start its next operation and
// reports false once the measured window is over. Closed loop that is
// only the deadline check; open loop it is the wait for the next paced
// arrival. Worker loops call it before every operation, so no driver
// knows which kind of load it is generating.
func (e *Env) Next() bool { return e.pacer.next(e.deadline) }

// EachWorker runs f on n goroutines (worker index passed in) and waits.
func (e *Env) EachWorker(n int, f func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f(w)
		}(w)
	}
	wg.Wait()
}

// pickModels fills the model slots from the server's listing: the named
// model where a name is given, else the first fp64 one of its kind.
// A model with no precision field (an old server) is fp64: the int8 tier
// always reports itself. A slot nothing matched stays zero, and the
// driver that needs it says so.
func (e *Env) pickModels(models []client.ModelInfo, wifi, imu string) {
	pick := func(slot *client.ModelInfo, m client.ModelInfo, wanted bool) {
		if wanted && slot.Name == "" {
			*slot = m
		}
	}
	for _, m := range models {
		int8 := m.Precision == "int8"
		switch m.Kind {
		case "wifi":
			pick(&e.WiFi, m, m.Name == wifi || wifi == "" && !int8)
		case "imu":
			pick(&e.IMU, m, m.Name == imu || imu == "" && !int8)
		}
	}
}

// pacer is the open-loop arrival schedule: arrival n is due at
// start+n*interval, and a worker asking for work takes the next arrival
// nobody has claimed and sleeps until it is due. An arrival already
// older than maxLag (one interval per worker) when a worker reaches it
// came due while every worker was busy: it is skipped, which is how
// arrivals are shed. Nothing runs between calls — no ticker, no
// goroutine — so there is nothing to stop.
type pacer struct {
	start            time.Time
	interval, maxLag time.Duration
	claimed, taken   atomic.Int64
}

// next is Env.Next; the nil pacer is closed-loop load.
func (p *pacer) next(deadline time.Time) bool {
	if p == nil {
		return time.Now().Before(deadline)
	}
	for {
		due := p.start.Add(time.Duration(p.claimed.Add(1)) * p.interval)
		if !due.Before(deadline) {
			return false
		}
		if wait := time.Until(due); wait > -p.maxLag {
			time.Sleep(wait)
			p.taken.Add(1)
			return true
		}
	}
}

// arrivals reports how many arrivals the schedule held before deadline
// and how many of them no worker took.
func (p *pacer) arrivals(deadline time.Time) (offered, shed int64) {
	if p == nil {
		return 0, 0
	}
	offered = int64((deadline.Sub(p.start) - 1) / p.interval)
	return offered, offered - p.taken.Load()
}

// Load is one run of a driver against a server that is already up.
type Load struct {
	Run         func(env *Env) error // the driver, from Workload
	Concurrency int
	Duration    time.Duration
	Seed        int64
	FixEvery    int     // tracking: a WiFi fix every N steps (0 = none)
	QPS         float64 // open-loop arrival rate over all workers; 0 = closed loop
	WiFi, IMU   string  // models to drive; "" = the first fp64 one of the kind
}

// interval is the open-loop arrival spacing.
func (l Load) interval() time.Duration { return time.Duration(float64(time.Second) / l.QPS) }

// validate rejects a load that cannot be generated: no workers, no
// window, or arrivals closer than 1µs apart, which no scheduler paces
// (and whose interval rounds to zero past 1e9).
func (l Load) validate() error {
	if l.Concurrency <= 0 || l.Duration <= 0 {
		return fmt.Errorf("concurrency %d and duration %v must both be positive", l.Concurrency, l.Duration)
	}
	if !(l.QPS >= 0 && l.QPS <= 1e6) {
		return fmt.Errorf("qps %v: want 0 (closed loop) or a rate up to 1e6", l.QPS)
	}
	return nil
}

// Driven is what one Load measured.
type Driven struct {
	Counts
	Elapsed time.Duration
	// Offered and Shed count open-loop arrivals: Offered is what the
	// target rate asked for, Shed the part dropped because every worker
	// was busy. Both are zero closed loop.
	Offered, Shed int64
	WiFi, IMU     client.ModelInfo // the models the drivers addressed
}

// Drive runs one load against the server at baseURL through the public
// client SDK and reduces what the recorder saw to a result. An error
// means the generator could not do its job — cannot list models, cannot
// open a stream; per-request failures are data in the result.
func Drive(ctx context.Context, baseURL string, l Load) (Driven, error) {
	var zero Driven
	if err := l.validate(); err != nil {
		return zero, err
	}
	rec := NewRecorder()
	c := client.New(baseURL,
		client.WithRetries(0, 0),   // measure the server as it is
		client.WithFastTransport(), // the generator may share cores with the server
		client.WithRequestHook(rec.Hook()),
	)
	models, err := c.Models(ctx)
	if err != nil {
		return zero, fmt.Errorf("listing models: %w", err)
	}
	env := &Env{
		Ctx: ctx, Client: c, Rec: rec,
		Seed: l.Seed, Concurrency: l.Concurrency, FixEvery: l.FixEvery,
	}
	env.pickModels(models, l.WiFi, l.IMU)
	start := time.Now()
	env.deadline = start.Add(l.Duration)
	if l.QPS > 0 {
		env.pacer = &pacer{start: start, interval: l.interval(), maxLag: l.interval() * time.Duration(l.Concurrency)}
	}

	rec.Arm()
	runErr := l.Run(env)
	elapsed := time.Since(start)
	if runErr != nil {
		return zero, runErr
	}
	offered, shed := env.pacer.arrivals(env.deadline)
	return Driven{
		Counts: rec.Snapshot(), Elapsed: elapsed,
		Offered: offered, Shed: shed,
		WiFi: env.WiFi, IMU: env.IMU,
	}, nil
}

// Workload returns the driver behind a noble-loadgen mode — localize
// (stateless fingerprints), track (stateful sessions) or stream (NDJSON
// streaming sessions) — with every request under the given deadline
// (0 = none).
func Workload(mode string, deadline time.Duration) (func(env *Env) error, error) {
	var perRequest func(w, step int) time.Duration
	if deadline > 0 {
		perRequest = func(int, int) time.Duration { return deadline }
	}
	switch mode {
	case "localize":
		return func(env *Env) error { return runLocalize(env, perRequest) }, nil
	case "track":
		return func(env *Env) error { return runTrackSessions(env, perRequest) }, nil
	case "stream":
		if deadline > 0 {
			// The stream protocol has no per-line deadlines (one
			// long-lived connection per device); silently ignoring one
			// would make a zero-error report read as "none expired".
			return nil, errors.New("a deadline is not supported in stream mode")
		}
		return runTrackStream, nil
	}
	return nil, fmt.Errorf("unknown mode %q (want localize, track, or stream)", mode)
}
