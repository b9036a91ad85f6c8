// Package experiments contains one runner per table and figure in the
// paper's evaluation (see DESIGN.md §3 for the full index). Every runner
// prints a text table with the paper's reported numbers side by side with
// the values measured on the synthetic substrates, so the reproduction
// target — the *shape* of each result, who wins and by roughly what factor
// — is auditable at a glance. Runners come in two presets: Small (seconds,
// used by `go test -bench`) and Full (paper scale; its numbers are not
// recorded in the repo yet, and ROADMAP direction 1(b) records them).
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Preset selects the experiment scale.
type Preset int

// Available presets.
const (
	Small Preset = iota
	Full
)

// String names the preset.
func (p Preset) String() string {
	if p == Full {
		return "full"
	}
	return "small"
}

// Report is a rendered experiment result.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Artifacts holds named text blocks (ASCII scatters, CSV dumps).
	Artifacts []Artifact
}

// Artifact is one named text artifact attached to a report.
type Artifact struct {
	Name string
	Text string
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// AddNote appends a free-text note line.
func (r *Report) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// AddArtifact attaches a named text block.
func (r *Report) AddArtifact(name, text string) {
	r.Artifacts = append(r.Artifacts, Artifact{Name: name, Text: text})
}

// Fprint renders the report as an aligned text table.
func (r *Report) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s — %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			parts[i] = c + strings.Repeat(" ", pad)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if len(r.Header) > 0 {
		if _, err := fmt.Fprintln(w, line(r.Header)); err != nil {
			return err
		}
		total := len(widths) - 1
		for _, wd := range widths {
			total += wd + 1
		}
		if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
			return err
		}
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	for _, a := range r.Artifacts {
		if _, err := fmt.Fprintf(w, "\n-- %s --\n%s", a.Name, a.Text); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// f2 formats a float with 2 decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// f5 formats a float with 5 decimals (energy values).
func f5(v float64) string { return fmt.Sprintf("%.5f", v) }

// pct formats a ratio as a percentage with 2 decimals.
func pct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }

// Runner is one registered experiment.
type Runner struct {
	ID   string
	Name string
	Run  func(Preset) *Report
}

// All returns every experiment in the paper order of DESIGN.md §3.
func All() []Runner {
	return []Runner{
		{"T1", "Table I — NObLe on UJIIndoorLoc", RunTable1},
		{"T2", "Table II — comparative baselines", RunTable2},
		{"T2b", "IPIN2016 comparison", RunIPIN},
		{"T3", "Table III — IMU tracking", RunTable3},
		{"F1", "Figure 1 — ground-truth structure", RunFigure1},
		{"F4", "Figure 4 — prediction structure", RunFigure4},
		{"F5", "Figure 5 — IMU prediction structure", RunFigure5},
		{"E1", "§IV-C — Wi-Fi energy", RunEnergyWiFi},
		{"E2", "§V-D — IMU energy & GPS ratio", RunEnergyIMU},
		{"A1", "Ablation — quantization τ", RunAblationTau},
		{"A2", "Ablation — head configuration", RunAblationHeads},
		{"A3", "Ablation — input noise", RunAblationNoise},
		{"A4", "Ablation — IMU location module", RunAblationIMUArch},
		{"X1", "Extension — online trajectory decoding", RunOnlineTracking},
		{"X2", "Extension — error CDF", RunErrorCDF},
	}
}

// RunAll executes every experiment at the preset and writes each report to
// w as it completes.
func RunAll(p Preset, w io.Writer) error {
	for _, r := range All() {
		rep := r.Run(p)
		if err := rep.Fprint(w); err != nil {
			return err
		}
	}
	return nil
}
