package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"noble/client"
)

const (
	payloadPool   = 64 // pre-generated payloads per pass, reused round-robin
	sessionWindow = 2  // tracking: decode window in segments
)

// rng returns the payload generator: seeded, so every run and every
// machine replays the identical request stream.
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
