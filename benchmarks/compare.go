package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one (workload, end-to-end metric) row.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// compareRow is one (workload, end-to-end metric) pairing of two
// documents: each side's median and quartiles over its untraced runs,
// the ratio new/old, and the verdict by the metric's direction and bound.
type compareRow struct {
	Workload string
	Metric   metricDef
	OldN     int
	NewN     int
	Old      [3]float64 // q1, median, q3
	New      [3]float64
	Ratio    float64 // new median / old median
	Verdict  string
}

// spread is the interquartile distance as a share of the median.
func spread(q [3]float64) float64 {
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// verdict judges new against old. A side whose own runs spread wider
// than the bound cannot resolve a change of the bound's size, so the row
// is unresolved, not unchanged. A bound of 0 (fail_ratio) makes any
// worsening a regression.
func verdict(d metricDef, old, new [3]float64) string {
	if d.Bound > 0 && (spread(old) > d.Bound || spread(new) > d.Bound) {
		return verdictUnresolved
	}
	change := new[1] - old[1] // positive = worse, once oriented
	if d.Better == higher {
		change = -change
	}
	limit := d.Bound * math.Abs(old[1])
	switch {
	case change > limit:
		return verdictWorse
	case change < -limit:
		return verdictBetter
	}
	return verdictSame
}

// compareDocs builds one row per (workload, end-to-end metric) present
// in both documents, workloads in declaration order.
func compareDocs(old, new document) []compareRow {
	values := func(doc document, workload, name string) []float64 {
		var v []float64
		for _, r := range doc.Runs {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace {
				v = append(v, m.Value)
			}
		}
		return v
	}
	var rows []compareRow
	for _, w := range workloads {
		for _, d := range append(append([]metricDef(nil), endToEnd...), alsoReported...) {
			ov, nv := values(old, w.Name, d.Name), values(new, w.Name, d.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			row := compareRow{Workload: w.Name, Metric: d, OldN: len(ov), NewN: len(nv)}
			row.Old[0], row.Old[1], row.Old[2] = quartilesExclusive(ov)
			row.New[0], row.New[1], row.New[2] = quartilesExclusive(nv)
			if row.Old[1] != 0 {
				row.Ratio = row.New[1] / row.Old[1]
			}
			row.Verdict = verdict(d, row.Old, row.New)
			rows = append(rows, row)
		}
	}
	return rows
}

func readDocument(path string) (document, error) {
	var doc document
	buf, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

func compareFiles(w io.Writer, oldPath, newPath string) error {
	old, err := readDocument(oldPath)
	if err != nil {
		return err
	}
	new, err := readDocument(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "old: %s (%s, commit %s)\nnew: %s (%s, commit %s)\n",
		oldPath, old.Host.CPUModel, old.Host.GitCommit, newPath, new.Host.CPUModel, new.Host.GitCommit)
	fmt.Fprintf(w, "%-14s %-15s %-7s %6s  %-38s %-38s %-16s %s\n",
		"workload", "metric", "better", "bound", "old median [q1, q3] (n)", "new median [q1, q3] (n)", "new/old", "verdict")
	for _, r := range compareDocs(old, new) {
		side := func(q [3]float64, n int) string {
			return fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", q[1], q[0], q[2], n)
		}
		fmt.Fprintf(w, "%-14s %-15s %-7s %6.2f  %-38s %-38s %-16s %s\n",
			r.Workload, r.Metric.Name, r.Metric.Better, r.Metric.Bound,
			side(r.Old, r.OldN), side(r.New, r.NewN),
			fmt.Sprintf("%.4f of %.5g", r.Ratio, r.Old[1]), r.Verdict)
	}
	return nil
}
