// Package experiment regenerates the experiment tables E1–E10 (IDs lists
// them; cmd/dpmg-bench and the root package's BenchmarkE<n> run them). The
// paper is a theory contribution with no empirical evaluation section, so
// each "table" here is the empirical analogue of a theorem-level claim:
// measured error, sensitivity, privacy loss, or throughput against the
// stated bound, and measured comparisons against every baseline the paper
// discusses.
package experiment

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Config controls experiment scale.
type Config struct {
	// Quick shrinks stream lengths and trial counts so the full suite runs
	// in seconds (used by tests); full size is what dpmg-bench runs.
	Quick bool
	// Seed makes every experiment deterministic.
	Seed uint64
}

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 10000 || v < 0.01 && v > -0.01 && v != 0:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// Render writes an aligned ASCII table.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "=== %s: %s ===\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// CSV writes the table as comma-separated values.
func (t *Table) CSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.Columns, ","))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

// Runner is an experiment entry point.
type Runner func(Config) *Table

// registry maps experiment IDs to runners.
var registry = map[string]Runner{
	"E1":  E1NoiseVsK,
	"E2":  E2Baselines,
	"E3":  E3Crossover,
	"E4":  E4PureDP,
	"E5":  E5Sensitivity,
	"E6":  E6Merging,
	"E7":  E7UserLevel,
	"E8":  E8MSE,
	"E9":  E9Audit,
	"E10": E10Throughput,
	"E11": E11Continual,
	"E12": E12EvictionAblation,
	"E13": E13SkewRobustness,
	"E14": E14EpsilonSweep,
	"E15": E15HugeUniverse,
	"E16": E16DriftMonitoring,
}

// Lookup returns the runner for an experiment ID.
func Lookup(id string) (Runner, bool) {
	r, ok := registry[strings.ToUpper(id)]
	return r, ok
}

// IDs returns all experiment IDs in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return out[i] < out[j]
	})
	return out
}
