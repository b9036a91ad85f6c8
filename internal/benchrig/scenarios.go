package benchrig

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"noble/client"
)

// Default engine tuning for batched scenarios — the production defaults
// noble-serve ships with, so BENCH numbers describe the shipped config.
const (
	defaultWindow   = 2 * time.Millisecond
	defaultMaxBatch = 32
	payloadPool     = 64 // pre-generated payloads per pass, reused round-robin
	fixEvery        = 16 // tracking: the suite's WiFi re-anchor cadence in steps
	sessionWindow   = 2  // tracking: decode window in segments
)

// Suite returns the full named scenario set, in reporting order. Names
// are stable identifiers: the CI gate matches baseline to current run by
// name, so renaming one is a baseline-breaking change (see docs/BENCH.md).
func Suite() []Scenario {
	batched := EngineOptions{BatchWindow: defaultWindow, MaxBatch: defaultMaxBatch}
	return []Scenario{
		{
			Name: "cold_localize",
			Description: "sequential single-fingerprint localize on a just-booted engine, " +
				"first request included — the cold-start and lone-device path",
			Concurrency: 1,
			Unit:        "req/s",
			Kinds:       []string{"localize"},
			Engine:      batched,
			Run:         func(env *Env) error { return runLocalize(env, nil) },
		},
		{
			Name:        "localize_batch_c8",
			Description: "closed-loop batched localize, 8 concurrent devices (ramping concurrency, low)",
			Concurrency: 8,
			Unit:        "req/s",
			Kinds:       []string{"localize"},
			Engine:      batched,
			Run:         func(env *Env) error { return runLocalize(env, nil) },
		},
		{
			Name:        "localize_batch_c32",
			Description: "closed-loop batched localize, 32 concurrent devices (ramping concurrency, high)",
			Concurrency: 32,
			Unit:        "req/s",
			Kinds:       []string{"localize"},
			Engine:      batched,
			Run:         func(env *Env) error { return runLocalize(env, nil) },
		},
		{
			Name: "localize_int8_c32",
			Description: "localize_batch_c32 against the int8 quantized bundle — the quantized " +
				"tier's end-to-end speedup is this throughput over localize_batch_c32's",
			Concurrency: 32,
			Unit:        "req/s",
			Kinds:       []string{"localize"},
			Engine:      batched,
			Run: func(env *Env) error {
				envQ := *env
				envQ.WiFi = env.WiFiInt8
				return runLocalize(&envQ, nil)
			},
		},
		{
			Name: "localize_unbatched_c32",
			Description: "closed-loop localize at 32 devices with micro-batching OFF — " +
				"the baseline the batching speedup is measured against",
			Concurrency: 32,
			Unit:        "req/s",
			Kinds:       []string{"localize"},
			Engine:      EngineOptions{BatchWindow: 0, MaxBatch: defaultMaxBatch},
			Run:         func(env *Env) error { return runLocalize(env, nil) },
		},
		{
			Name: "shadow_mirror_c32",
			Description: "localize_batch_c32 with a same-weights shadow generation staged and " +
				"10% of traffic mirrored through it off the request path — the mirrored-traffic " +
				"overhead scenario (budget: ≤5% throughput cost vs localize_batch_c32 on a " +
				"multi-core box; a saturated single vCPU pays the mirrored compute itself, ~10%)",
			Concurrency: 32,
			Unit:        "req/s",
			Kinds:       []string{"localize"},
			Engine: EngineOptions{
				BatchWindow: defaultWindow, MaxBatch: defaultMaxBatch,
				MirrorRate: 0.1, ShadowWiFi: true,
			},
			Run: func(env *Env) error { return runLocalize(env, nil) },
		},
		{
			Name: "track_sessions_c16",
			Description: "steady-state stateful tracking: 16 device sessions streaming one IMU " +
				"segment per request, WiFi re-anchor every 16 steps, journal off",
			Concurrency: 16,
			Unit:        "steps/s",
			Kinds:       []string{"track", "localize"},
			Engine:      batched,
			Run:         func(env *Env) error { return runTrackSessions(env, nil) },
		},
		{
			Name: "track_int8_c16",
			Description: "track_sessions_c16 with both the IMU tracker and the re-anchor " +
				"localizer on the int8 tier",
			Concurrency: 16,
			Unit:        "steps/s",
			Kinds:       []string{"track", "localize"},
			Engine:      batched,
			Run: func(env *Env) error {
				envQ := *env
				envQ.IMU = env.IMUInt8
				envQ.WiFi = env.WiFiInt8
				return runTrackSessions(&envQ, nil)
			},
		},
		{
			Name: "track_journal_c16",
			Description: "track_sessions_c16 with durable sessions on (-fsync=interval WAL) — " +
				"the journaling overhead scenario",
			Concurrency: 16,
			Unit:        "steps/s",
			Kinds:       []string{"track", "localize"},
			Engine: EngineOptions{
				BatchWindow: defaultWindow, MaxBatch: defaultMaxBatch, Journal: true,
			},
			Run: func(env *Env) error { return runTrackSessions(env, nil) },
		},
		{
			Name: "track_stream_c8",
			Description: "NDJSON streaming tracking over POST /v2/track/stream: 8 device " +
				"connections, one segment line per estimate line",
			Concurrency: 8,
			Unit:        "steps/s",
			Kinds:       []string{"track"},
			Engine:      batched,
			Run:         runTrackStream,
		},
		{
			Name: "mixed_deadline_c24",
			Description: "deadline-heavy mixed traffic: 16 localize + 8 session-track workers, " +
				"every request deadlined, every 4th localize deadline (1 ms) set below the wait behind " +
				"a running pass so expiry and queue-drop paths stay hot; expired requests count as completed ops " +
				"(expiry is the designed outcome) but still show under errors",
			Concurrency: 24,
			Unit:        "ops/s",
			Kinds:       []string{"localize", "track"},
			Engine:      batched,
			Run:         runMixedDeadline,
			OpsClasses:  []string{ErrClassDeadline},
		},
		{
			Name: "mixed_precision_c24",
			Description: "mixed-registry localize: 12 workers on the fp64 bundle and 12 on its " +
				"int8 twin, concurrently against one engine — the rolling-upgrade traffic shape",
			Concurrency: 24,
			Unit:        "req/s",
			Kinds:       []string{"localize"},
			Engine:      batched,
			Run:         runMixedPrecision,
		},
	}
}

// runMixedPrecision splits the localize workers evenly across the fp64
// bundle and its int8 twin — the traffic shape of a fleet mid-way
// through a precision rollout, where both tiers batch on one engine.
func runMixedPrecision(env *Env) error {
	half := env.Concurrency / 2
	done := make(chan error, 2)
	go func() {
		envF := *env
		envF.Concurrency = half
		done <- runLocalize(&envF, nil)
	}()
	go func() {
		envQ := *env
		envQ.Concurrency = env.Concurrency - half
		envQ.WiFi = env.WiFiInt8
		done <- runLocalize(&envQ, nil)
	}()
	if err := <-done; err != nil {
		return err
	}
	return <-done
}

// rng returns the scenario payload generator: seeded, so every pass and
// every machine replays the identical request stream.
func (e *Env) rng() *rand.Rand { return rand.New(rand.NewSource(e.Seed)) }

// deadlineFor wraps env.Ctx with a per-request deadline; d <= 0 means
// none.
func deadlineFor(env *Env, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return env.Ctx, func() {}
	}
	return context.WithTimeout(env.Ctx, d)
}

// runLocalize is the stateless localize workload: every worker keeps
// one single-fingerprint request in flight. deadline may assign a
// per-request deadline by (worker, step); nil means none. Latency and
// errors are recorded by the client request hook.
func runLocalize(env *Env, deadline func(w, step int) time.Duration) error {
	if env.WiFi.Name == "" {
		return errors.New("localize: no such wifi model on the server")
	}
	rng := env.rng()
	pool := make([]*client.PreparedLocalize, payloadPool)
	for i := range pool {
		pool[i] = client.PrepareLocalize(env.WiFi.Name, synthFingerprint(rng, env.WiFi.InputDim))
	}
	env.EachWorker(env.Concurrency, func(w int) {
		for step := 0; env.Next(); step++ {
			var d time.Duration
			if deadline != nil {
				d = deadline(w, step)
			}
			ctx, cancel := deadlineFor(env, d)
			// Errors are data: the hook records them by class.
			_, _ = env.Client.LocalizePrepared(ctx, pool[(w*31+step)%payloadPool])
			cancel()
		}
	})
	return nil
}

// trackRequests pre-builds one pass's session request pools; fixes is
// empty when the env sends none.
func trackRequests(env *Env) (create client.AppendRequest, steps, fixes []client.AppendRequest, err error) {
	if env.IMU.Name == "" || env.FixEvery > 0 && env.WiFi.Name == "" {
		return create, nil, nil, fmt.Errorf("track: no such model on the server (imu %q, wifi for fixes %q)", env.IMU.Name, env.WiFi.Name)
	}
	rng := env.rng()
	create = client.AppendRequest{
		Model: env.IMU.Name, Start: &client.XY{}, Window: sessionWindow,
		Features: synthSegment(rng, env.IMU.SegmentDim),
	}
	steps = make([]client.AppendRequest, payloadPool)
	for i := range steps {
		steps[i] = client.AppendRequest{Features: synthSegment(rng, env.IMU.SegmentDim)}
	}
	if env.FixEvery > 0 {
		fixes = make([]client.AppendRequest, payloadPool)
	}
	for i := range fixes {
		fixes[i] = client.AppendRequest{
			Features:    synthSegment(rng, env.IMU.SegmentDim),
			WiFiModel:   env.WiFi.Name,
			Fingerprint: synthFingerprint(rng, env.WiFi.InputDim),
		}
	}
	return create, steps, fixes, nil
}

// stepRequest sequences one tracking worker's traffic: create first,
// then segment appends with a periodic WiFi fix.
func stepRequest(step, fixEvery int, create client.AppendRequest, steps, fixes []client.AppendRequest) client.AppendRequest {
	switch {
	case step == 0:
		return create
	case fixEvery > 0 && step%fixEvery == 0:
		return fixes[step%payloadPool]
	default:
		return steps[step%payloadPool]
	}
}

// runTrackSessions is the stateful tracking workload: each worker is one
// device session appending a segment per request. deadline is as in
// runLocalize.
func runTrackSessions(env *Env, deadline func(w, step int) time.Duration) error {
	create, steps, fixes, err := trackRequests(env)
	if err != nil {
		return err
	}
	env.EachWorker(env.Concurrency, func(w int) {
		sess := env.Client.Session(fmt.Sprintf("perf%d-%d", env.Seed, w))
		for step := 0; env.Next(); step++ {
			var d time.Duration
			if deadline != nil {
				d = deadline(w, step)
			}
			ctx, cancel := deadlineFor(env, d)
			_, _ = sess.Append(ctx, stepRequest(step, env.FixEvery, create, steps, fixes))
			cancel()
		}
	})
	return nil
}

// runTrackStream drives tracking over the /v2 NDJSON streaming protocol:
// one connection per device, one segment line per estimate line. The
// stream bypasses the request hook, so each send→recv round trip is
// recorded explicitly.
func runTrackStream(env *Env) error {
	create, steps, fixes, err := trackRequests(env)
	if err != nil {
		return err
	}
	errs := make(chan error, env.Concurrency)
	env.EachWorker(env.Concurrency, func(w int) {
		st, err := env.Client.TrackStream(env.Ctx, client.StreamOpen{
			Session:       fmt.Sprintf("perf%d-%d", env.Seed, w),
			AppendRequest: create,
		})
		if err != nil {
			errs <- fmt.Errorf("worker %d: opening stream: %w", w, err)
			return
		}
		defer st.Close()
		if _, err := st.Recv(); err != nil {
			errs <- fmt.Errorf("worker %d: stream open ack: %w", w, err)
			return
		}
		for step := 1; env.Next(); step++ {
			t0 := time.Now()
			err := st.Send(stepRequest(step, env.FixEvery, create, steps, fixes))
			if err == nil {
				_, err = st.Recv()
			}
			env.Rec.Record(time.Since(t0), err)
			if err != nil {
				// A stream error is terminal for this device: the
				// connection (or the server side of it) is gone.
				return
			}
		}
	})
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// Mixed-traffic deadline ladder: every request carries a deadline; every
// 4th localize request gets one below what a request queued behind a
// running pass waits, so a deterministic slice of traffic exercises
// expiry + queue-drop.
const (
	generousDeadline = 25 * time.Millisecond
	tightDeadline    = 1 * time.Millisecond
)

// runMixedDeadline mixes stateless localize and stateful tracking under
// per-request deadlines: 2/3 of workers localize, 1/3 track.
func runMixedDeadline(env *Env) error {
	localizers := env.Concurrency * 2 / 3
	ladder := func(w, step int) time.Duration {
		if step%4 == 3 {
			return tightDeadline
		}
		return generousDeadline
	}
	trackDeadline := func(w, step int) time.Duration { return generousDeadline }

	done := make(chan error, 2)
	go func() {
		envL := *env
		envL.Concurrency = localizers
		done <- runLocalize(&envL, ladder)
	}()
	go func() {
		envT := *env
		envT.Concurrency = env.Concurrency - localizers
		done <- runTrackSessions(&envT, trackDeadline)
	}()
	if err := <-done; err != nil {
		return err
	}
	return <-done
}
