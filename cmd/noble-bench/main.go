// Command noble-bench runs the paper-reproduction experiment suite and
// prints paper-vs-measured tables for every table and figure in the
// evaluation (see DESIGN.md §3 for the index).
//
// Usage:
//
//	noble-bench [-preset small|full] [-only T1,T3,F4] [-list] [-o file]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"noble/internal/experiments"
)

// The flag surface, pinned by the golden help test.
var (
	presetFlag = flag.String("preset", "small", "experiment scale: small or full")
	onlyFlag   = flag.String("only", "", "comma-separated experiment IDs to run (default: all)")
	listFlag   = flag.Bool("list", false, "list experiments and exit")
	outFlag    = flag.String("o", "", "write reports to this file instead of stdout")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("noble-bench: ")
	flag.Parse()

	if *listFlag {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Name)
		}
		return
	}

	var preset experiments.Preset
	switch *presetFlag {
	case "small":
		preset = experiments.Small
	case "full":
		preset = experiments.Full
	default:
		log.Fatalf("unknown preset %q (want small or full)", *presetFlag)
	}

	want := map[string]bool{}
	if *onlyFlag != "" {
		for _, id := range strings.Split(*onlyFlag, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}

	// The output file is closed on every exit path with the close error
	// checked: a bare `defer f.Close()` would silently drop write-back
	// errors (a full disk would go unnoticed) and would never run at all
	// past log.Fatalf, which exits without unwinding deferred calls.
	out := os.Stdout
	var outFile *os.File
	if *outFlag != "" {
		f, err := os.Create(*outFlag)
		if err != nil {
			log.Fatalf("creating %s: %v", *outFlag, err)
		}
		out = f
		outFile = f
	}

	runErr := runExperiments(out, preset, want, *onlyFlag)
	if outFile != nil {
		if err := outFile.Close(); err != nil {
			log.Fatalf("closing %s: %v", *outFlag, err)
		}
	}
	if runErr != nil {
		log.Fatal(runErr)
	}
}

// runExperiments executes the selected experiments, writing each report to
// out as it completes.
func runExperiments(out io.Writer, preset experiments.Preset, want map[string]bool, onlyFlag string) error {
	ran := 0
	for _, e := range experiments.All() {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		start := time.Now()
		report := e.Run(preset)
		if err := report.Fprint(out); err != nil {
			return fmt.Errorf("writing report %s: %w", e.ID, err)
		}
		if _, err := fmt.Fprintf(out, "[%s completed in %v at preset %s]\n\n",
			e.ID, time.Since(start).Round(time.Millisecond), preset); err != nil {
			return fmt.Errorf("writing report %s: %w", e.ID, err)
		}
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiments matched -only=%q", onlyFlag)
	}
	return nil
}
