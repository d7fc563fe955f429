package verif

import (
	"fmt"
	"strings"
)

// Finding is one detected discrepancy of the differential harness
// (internal/equiv) and of its cache audit: which check fired, on which
// cell, at which cycle, and the first metric that disagreed. The
// lockstep monitors in this package report Error instead.
type Finding struct {
	// Check names the checker that fired ("packed-vs-streaming",
	// "cache-audit", ...).
	Check string
	// Cell identifies the stimulus: a (config, workload, seed, budget)
	// cell.
	Cell string
	// Cycle is the simulation cycle the discrepancy was observed at, or
	// -1 when the check compares whole-run aggregates.
	Cycle int64
	// Metric is the first diverging metric (stats-snapshot key), or
	// empty when the check has none to name.
	Metric string
	// Detail is the human-readable explanation.
	Detail string
}

func (f Finding) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %s", f.Check, f.Cell)
	if f.Cycle >= 0 {
		fmt.Fprintf(&b, " cycle %d", f.Cycle)
	}
	if f.Metric != "" {
		fmt.Fprintf(&b, " metric %s", f.Metric)
	}
	if f.Detail != "" {
		fmt.Fprintf(&b, ": %s", f.Detail)
	}
	return b.String()
}

// DiffReport collects the findings of one differential check; Report
// is the constrained-random run summary.
type DiffReport struct {
	Findings []Finding
}

// Add records a finding.
func (r *DiffReport) Add(f Finding) { r.Findings = append(r.Findings, f) }

// Addf records a formatted aggregate finding (no cycle attribution).
func (r *DiffReport) Addf(check, cell, metric, format string, args ...any) {
	r.Add(Finding{Check: check, Cell: cell, Cycle: -1, Metric: metric,
		Detail: fmt.Sprintf(format, args...)})
}
