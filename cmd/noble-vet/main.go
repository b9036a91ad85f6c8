// Command noble-vet runs the repo's custom invariant analyzers (see
// internal/vetrules and docs/LINT.md) over Go packages.
//
// Usage:
//
//	noble-vet [-list] [packages or fixture dirs]
//
// Arguments are normally package patterns handed to `go list` (the CI
// gate runs `noble-vet ./...`). An argument that names a directory
// under a testdata/src tree is loaded as an analysistest fixture
// package instead — that is how the command's test asserts the
// historical-bug regression fixtures still trip their analyzers.
//
// Exit status: 0 for a clean tree, 1 when findings were reported, 2
// when analysis itself failed (load or type-check error).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"noble/internal/vetrules"
	"noble/internal/vetrules/analysis"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("noble-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: noble-vet [-list] [packages or fixture dirs]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	suite := vetrules.Suite()
	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	args = fs.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}

	var patterns []string
	var pkgs []*analysis.Package
	for _, arg := range args {
		if srcRoot, pkgPath, ok := analysis.SplitFixtureDir(arg); ok {
			if st, err := os.Stat(arg); err == nil && st.IsDir() {
				pkg, err := analysis.LoadFixture(srcRoot, pkgPath)
				if err != nil {
					fmt.Fprintf(stderr, "noble-vet: loading fixture %s: %v\n", arg, err)
					return 2
				}
				pkgs = append(pkgs, pkg)
				continue
			}
		}
		patterns = append(patterns, arg)
	}
	if len(patterns) > 0 {
		loaded, err := analysis.LoadPatterns(patterns...)
		if err != nil {
			fmt.Fprintf(stderr, "noble-vet: %v\n", err)
			return 2
		}
		pkgs = append(pkgs, loaded...)
	}

	findings, err := analysis.RunAnalyzers(pkgs, suite)
	if err != nil {
		fmt.Fprintf(stderr, "noble-vet: %v\n", err)
		return 2
	}
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "noble-vet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
