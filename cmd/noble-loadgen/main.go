// Command noble-loadgen replays synthetic device traffic against a
// running noble-serve and reports throughput and latency, so serving
// performance (and the effect of micro-batching) is measurable against
// whatever is deployed. main is flag parsing, one Drive call and a
// report; the worker loops (scenarios.go), payload synthesis and error
// classes (loadshape.go), pacing (drive.go) and recorder (stats.go) speak
// to the server through the public client SDK a real device fleet uses.
//
// Usage:
//
//	noble-loadgen [-url http://localhost:8080] [-mode localize|track|stream]
//	              [-model NAME] [-concurrency 32] [-duration 10s]
//	              [-qps 0] [-seed 1] [-deadline 0]
//	              [-wifi-model NAME] [-fix-every 16]
//
// In localize mode (the default) each in-flight request carries one
// fingerprint — the paper's workload shape, where every device asks for
// its own position — and -concurrency is how many devices query at once.
// In track mode each worker is one device with a stateful tracking
// session: one IMU segment per request to /sessions/{id}/segments, and
// every -fix-every steps also a WiFi fingerprint that re-anchors the
// session through the localize path (the paper's hybrid IMU+WiFi
// tracking at fleet scale); latency is then per tracking step. Stream
// mode is track mode over the /v2 NDJSON stream: one connection per
// device, one line per segment. With -qps 0 the load is closed-loop
// (every worker fires as fast as the server answers); otherwise arrivals
// are paced open-loop at the target rate, and the report says how many
// were offered and how many were shed because every worker was busy.
// -deadline sets a per-request deadline (sent as X-Deadline-Ms): expired
// requests count as errors and their rows are dropped server-side before
// their forward pass — the report scrapes batch occupancy and the
// dropped-row counter from /metrics, so coalescing and cancellation are
// visible end to end.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"noble/client"
)

// The flag surface, pinned by the golden help test.
var (
	url         = flag.String("url", "http://localhost:8080", "noble-serve base URL")
	mode        = flag.String("mode", "localize", "workload: localize (stateless fingerprints), track (stateful sessions), or stream (NDJSON streaming sessions)")
	model       = flag.String("model", "", "model name (default: first model of the mode's kind from the server)")
	concurrency = flag.Int("concurrency", 32, "concurrent in-flight requests (track/stream: concurrent device sessions)")
	duration    = flag.Duration("duration", 10*time.Second, "measurement duration")
	qps         = flag.Float64("qps", 0, "target request rate (0 = closed-loop, as fast as possible)")
	seed        = flag.Int64("seed", 1, "payload generator seed (also keys track-mode session ids)")
	deadline    = flag.Duration("deadline", 0, "per-request deadline (0 disables); expired requests count as errors")
	wifiModel   = flag.String("wifi-model", "", "track/stream mode: wifi model for fixes (default: first wifi model)")
	fixEvery    = flag.Int("fix-every", 16, "track/stream mode: carry a wifi fingerprint fix every N steps (0 disables fixes)")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("noble-loadgen: ")
	flag.Parse()
	run, err := Workload(*mode, *deadline)
	if err != nil {
		log.Fatal(err)
	}
	load := Load{
		Run: run, Concurrency: *concurrency, Duration: *duration,
		Seed: *seed, FixEvery: *fixEvery, QPS: *qps,
	}
	kind, unit := "localize", "req/s"
	if *mode == "localize" {
		load.WiFi = *model
	} else {
		kind, unit = "track", "steps/s"
		load.IMU, load.WiFi = *model, *wifiModel
	}
	ctx := context.Background()
	scraper := client.New(*url, client.WithRetries(0, 0))
	before := scrapeBatchStats(ctx, scraper, kind)
	d, err := Drive(ctx, *url, load)
	if err != nil {
		log.Fatal(err)
	}
	after := scrapeBatchStats(ctx, scraper, kind)

	fmt.Printf("noble-loadgen report\n")
	fmt.Printf("  mode        %s seed=%d (server models: wifi=%s imu=%s)\n", *mode, *seed, d.WiFi.Name, d.IMU.Name)
	loop := "closed-loop"
	if *qps > 0 {
		loop = fmt.Sprintf("open-loop %g qps", *qps)
	}
	fmt.Printf("  load        %s, concurrency %d, %v\n", loop, *concurrency, d.Elapsed.Round(time.Millisecond))
	fmt.Printf("  requests    %d ok, %d errors\n", d.Ok, d.Errors)
	if d.Errors > 0 {
		fmt.Printf("  errors      http-4xx=%d http-5xx=%d deadline=%d conn=%d\n",
			d.ByClass[ErrClass4xx], d.ByClass[ErrClass5xx],
			d.ByClass[ErrClassDeadline], d.ByClass[ErrClassConn])
		if *mode == "stream" {
			// A stream error is terminal for its device and recorded once.
			fmt.Printf("  streams     %d device stream(s) ended early on an error\n", d.Errors)
		}
	}
	if *qps > 0 {
		fmt.Printf("  arrivals    %d offered, %d shed\n", d.Offered, d.Shed)
	}
	fmt.Printf("  throughput  %.1f %s\n", float64(d.Ok)/d.Elapsed.Seconds(), unit)
	fmt.Printf("  latency ms  mean=%.2f p50=%.2f p95=%.2f p99=%.2f max=%.2f\n",
		d.Latency.Mean, d.Latency.P50, d.Latency.P95, d.Latency.P99, d.Latency.Max)
	if passes := after.passes - before.passes; passes > 0 {
		rows := after.rows - before.rows
		fmt.Printf("  batching    %d %s rows in %d forward passes (avg batch %.2f)\n",
			rows, kind, passes, float64(rows)/float64(passes))
	} else {
		fmt.Printf("  batching    no server batch stats observed for kind %q\n", kind)
	}
	if dropped := after.dropped - before.dropped; dropped > 0 {
		fmt.Printf("  cancelled   %d %s rows dropped from the batch queue before their pass\n", dropped, kind)
	}
}

// batchStats is the server-side micro-batch counters from /metrics.
type batchStats struct{ rows, passes, dropped int64 }

// scrapeBatchStats reads one batcher kind's noble_batch_size_{sum,count}
// and noble_batch_dropped_rows_total series from the server's metrics;
// zeros on any failure (the report then omits batching).
func scrapeBatchStats(ctx context.Context, c *client.Client, kind string) batchStats {
	var out batchStats
	text, _ := c.Metrics(ctx)
	label := fmt.Sprintf("{kind=%q}", kind)
	for _, line := range strings.Split(text, "\n") {
		series, value, _ := strings.Cut(line, " ")
		n, _ := strconv.ParseInt(value, 10, 64)
		switch series {
		case "noble_batch_size_sum" + label:
			out.rows = n
		case "noble_batch_size_count" + label:
			out.passes = n
		case "noble_batch_dropped_rows_total" + label:
			out.dropped = n
		}
	}
	return out
}
