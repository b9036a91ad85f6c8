// Stateful tracking sessions: the serving-layer walkthrough for the
// paper's hybrid tracking setup, driven through the typed client SDK. A
// device streams IMU segments to the server one request at a time; the
// server keeps the path state (anchor, sliding feature window, estimate)
// in a per-device session, decodes each step through the batched IMU
// model, and — when the device also reports a WiFi scan — re-anchors
// the trajectory through the localize path, fusing the paper's two
// model kinds into one track.
//
// This example trains two small models, starts the real HTTP server
// in-process, and drives it with noble/client — first request by
// request against the session endpoint, then over the /v2 NDJSON
// streaming protocol (one connection, one line per segment).
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"

	"noble/client"
	"noble/internal/core"
	"noble/internal/dataset"
	"noble/internal/imu"
	"noble/internal/serve"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	// --- Train two small models (seconds, not minutes). In a real
	// deployment these come from `noble-train -bundle` and both are
	// surveyed in the same building frame; here each lives on its own
	// small synthetic map, which is enough to show the mechanics.
	fmt.Println("training a small IMU tracker and WiFi localizer...")
	net := imu.NewCampusNetwork(8)
	sensors := imu.DefaultConfig()
	sensors.ReadingsPerSegment = 64
	sensors.TotalSegments = 120
	track := imu.Synthesize(net, sensors, 42)
	pathCfg := imu.PathConfig{
		NumPaths: 600, MaxLen: 8, Frames: 4,
		TrainFrac: 0.7, ValFrac: 0.1, Seed: 7,
	}
	ds := imu.BuildPaths(track, pathCfg)
	imuCfg := core.DefaultIMUConfig()
	imuCfg.Hidden = []int{48, 48}
	imuCfg.Tau = 1.0
	imuCfg.Epochs = 15
	imuModel := core.TrainIMU(ds, imuCfg)

	wifiData := dataset.SmallIPINConfig()
	wifiData.NumWAPs = 24
	wifiData.RefSpacing = 6
	wifiData.SamplesPerRef = 3
	wifiDS := dataset.SynthIPIN(wifiData)
	wifiCfg := core.DefaultWiFiConfig()
	wifiCfg.Hidden = []int{32}
	wifiCfg.Epochs = 5
	wifiCfg.TauFine = 1
	wifiCfg.TauCoarse = 8
	wifiModel := core.TrainWiFi(wifiDS, wifiCfg)

	// --- Serve both models. SessionTTL would evict idle devices in a
	// long-running deployment; the sweeper runs via Sessions().Run.
	reg := serve.NewRegistry("", log.Printf)
	reg.Add(&serve.Model{Name: "imu", Kind: serve.KindIMU, IMU: imuModel})
	reg.Add(&serve.Model{Name: "wifi", Kind: serve.KindWiFi, WiFi: wifiModel})
	srv := httptest.NewServer(serve.New(serve.Config{Registry: reg, BatchWindow: 0}).Handler())
	defer srv.Close()
	fmt.Printf("serving on %s\n\n", srv.URL)

	// --- The SDK client: speaks /v2 (structured errors, request IDs,
	// deadlines).
	c := client.New(srv.URL)
	sess := c.Session("phone-1")
	must := func(st client.SessionState, err error) client.SessionState {
		if err != nil {
			log.Fatalf("session request failed: %v", err)
		}
		return st
	}

	// --- Walk a device along a recorded walk: create the session at the
	// walk's true start, then append one segment per request — what a
	// phone would send every few seconds.
	walk := track.Walks[0]
	start := net.Refs[walk.RefSeq[0]]
	segDim := imuModel.SegmentDim()
	r := must(sess.Append(ctx, client.AppendRequest{
		Model: "imu",
		Start: &client.XY{X: start.X, Y: start.Y},
	}))
	fmt.Printf("created session (model %s) anchored at (%.1f, %.1f)\n", r.Model, r.Position.X, r.Position.Y)

	steps := 8
	if steps > len(walk.Segments) {
		steps = len(walk.Segments)
	}
	for i := 0; i < steps; i++ {
		feats := imu.SegmentFeatures(walk.Segments[i].Readings, imuModel.Frames())
		if len(feats) != segDim {
			log.Fatalf("segment feature width %d != model segment_dim %d", len(feats), segDim)
		}
		r = must(sess.Append(ctx, client.AppendRequest{Features: feats}))
		truth := net.Refs[walk.RefSeq[i+1]]
		fmt.Printf("step %2d: estimate (%6.1f, %5.1f)  truth (%6.1f, %5.1f)  traveled (%.1f, %.1f)\n",
			r.Steps, r.Position.X, r.Position.Y, truth.X, truth.Y, r.Traveled.X, r.Traveled.Y)
	}

	// --- Fuse a WiFi fix. The scan is a surveyed test fingerprint; the
	// server localizes it through the same batched path as /v2/localize
	// and snaps the session there. Dead reckoning restarts from the fix.
	scan := wifiDS.Test[0]
	before := r.Position
	r = must(sess.Append(ctx, client.AppendRequest{
		WiFiModel:   "wifi",
		Fingerprint: scan.Features,
		Features:    imu.SegmentFeatures(walk.Segments[steps%len(walk.Segments)].Readings, imuModel.Frames()),
	}))
	fmt.Printf("\nwifi fix: estimate jumped (%.1f, %.1f) -> anchor (%.1f, %.1f); surveyed scan was at (%.1f, %.1f)\n",
		before.X, before.Y, r.Anchor.X, r.Anchor.Y, scan.Pos.X, scan.Pos.Y)
	fmt.Printf("next step after the fix: (%.1f, %.1f), traveled (%.1f, %.1f) since the fix\n",
		r.Position.X, r.Position.Y, r.Traveled.X, r.Traveled.Y)

	// --- Typed errors: the SDK surfaces the /v2 machine-readable code.
	if _, err := sess.Append(ctx, client.AppendRequest{Model: "wifi"}); client.IsCode(err, client.CodeSessionConflict) {
		fmt.Printf("\nrebinding the session to another model is refused: %v\n", err)
	}

	// --- Session introspection and cleanup, as a device manager would.
	state := must(sess.Get(ctx))
	fmt.Printf("\nGET session: %d steps, position (%.1f, %.1f)\n", state.Steps, state.Position.X, state.Position.Y)
	if err := sess.Delete(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("DELETE session: done")

	// --- The same walk over the /v2 NDJSON stream: one connection, one
	// line per segment, estimates flushed per line.
	fmt.Println("\nstreaming the same walk over POST /v2/track/stream:")
	st, err := c.TrackStream(ctx, client.StreamOpen{AppendRequest: client.AppendRequest{
		Model: "imu",
		Start: &client.XY{X: start.X, Y: start.Y},
	}})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Recv(); err != nil { // ack of the open line
		log.Fatal(err)
	}
	for i := 0; i < 4 && i < len(walk.Segments); i++ {
		if err := st.Send(client.AppendRequest{
			Features: imu.SegmentFeatures(walk.Segments[i].Readings, imuModel.Frames()),
		}); err != nil {
			log.Fatal(err)
		}
		u, err := st.Recv()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("stream line %d: estimate (%6.1f, %5.1f) after %d steps\n",
			u.Seq, u.Position.X, u.Position.Y, u.Steps)
	}
	if err := st.CloseSend(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("stream closed; its ephemeral session was cleaned up server-side")
}
