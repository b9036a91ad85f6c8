// Command corruptcalib simulates post-publish bundle damage for the CI
// int8 gate (ci/int8-gate.sh): it multiplies every entry of a bundle's
// act_scales by a factor and rewrites calibration.json in place. It
// deliberately edits the JSON generically — the way a buggy deploy
// script or a hand edit would — rather than going through the
// serve package's typed writer, so the load-time gate is exercised
// against genuinely foreign bytes.
package main

import (
	"encoding/json"
	"flag"
	"log"
	"os"
	"path/filepath"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("corruptcalib: ")
	bundle := flag.String("bundle", "", "bundle directory containing calibration.json")
	factor := flag.Float64("factor", 1e6, "multiply every activation scale by this")
	flag.Parse()
	if *bundle == "" {
		log.Fatal("-bundle is required")
	}

	path := filepath.Join(*bundle, "calibration.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		log.Fatalf("reading: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		log.Fatalf("parsing %s: %v", path, err)
	}
	scales, ok := doc["act_scales"].([]any)
	if !ok || len(scales) == 0 {
		log.Fatalf("%s has no act_scales array", path)
	}
	for i, v := range scales {
		f, ok := v.(float64)
		if !ok {
			log.Fatalf("act_scales[%d] is not a number: %v", i, v)
		}
		scales[i] = f * *factor
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatalf("encoding: %v", err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		log.Fatalf("writing: %v", err)
	}
	log.Printf("multiplied %d scale(s) in %s by %g", len(scales), path, *factor)
}
