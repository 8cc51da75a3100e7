package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
)

// resultSet is a file of end-to-end runs, several seeds per workload:
// what -record builds up and -compare reads.
type resultSet struct {
	Env  map[string]any      `json:"env"`
	Runs map[string][]setRun `json:"runs"` // by workload
}

type setRun struct {
	Seed    any                `json:"seed"`
	Metrics map[string]float64 `json:"metrics"`
}

func readSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// recordRun adds an end-to-end run to the result set at path, creating
// the file with this run's environment if it does not exist.
func recordRun(path string, run *runFile) error {
	if run.Trace {
		return errors.New("-record takes end-to-end runs (-trace 0)")
	}
	sr := setRun{Seed: run.Env["seed"], Metrics: map[string]float64{}}
	set, err := readSet(path)
	if errors.Is(err, fs.ErrNotExist) {
		// The set's environment is the first run's, minus what differs
		// from run to run.
		set, err = &resultSet{Env: map[string]any{}, Runs: map[string][]setRun{}}, nil
		for k, v := range run.Env {
			if k != "seed" && k != "sf" && k != "rates_qps" {
				set.Env[k] = v
			}
		}
	}
	if err != nil {
		return err
	}
	for n, v := range run.Result.Metrics {
		sr.Metrics[n] = v.Value
	}
	set.Runs[run.Workload] = append(set.Runs[run.Workload], sr)
	return writeJSON(path, set)
}

// compareSets prints, per workload and end-to-end metric, both medians,
// the change of b against a (positive: worse), the metric's bound, and a
// verdict: "unresolved" when either side's own spread (interquartile
// range over median) exceeds the bound, so the two medians cannot be
// told apart at that resolution; "worse" when b is worse than a by more
// than the bound; "ok" otherwise. It reports whether any row is worse.
func compareSets(out io.Writer, manifestPath, pathA, pathB string) (anyWorse bool, err error) {
	man, err := readManifest(manifestPath)
	if err != nil {
		return false, err
	}
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%-14s %-30s %12s %12s %8s %6s %7s %7s  %s\n",
		"workload", "metric", "median a", "median b", "change", "bound", "iqr a", "iqr b", "verdict")
	for _, w := range man.Workloads {
		for _, d := range man.EndToEnd {
			va, vb := column(a.Runs[w.Name], d.Name), column(b.Runs[w.Name], d.Name)
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s/%s: missing from one of the sets", w.Name, d.Name)
			}
			ma, mb := median(va), median(vb)
			change := (mb - ma) / ma
			if d.Better == "higher" {
				change = -change
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case sa > d.Bound || sb > d.Bound:
				verdict = "unresolved"
			case change > d.Bound:
				verdict = "worse"
				anyWorse = true
			}
			fmt.Fprintf(out, "%-14s %-30s %12.5g %12.5g %+7.1f%% %5.0f%% %6.1f%% %6.1f%%  %s\n",
				w.Name, d.Name+" ["+d.Unit+"]", ma, mb, 100*change, 100*d.Bound, 100*sa, 100*sb, verdict)
		}
	}
	return anyWorse, nil
}

func column(runs []setRun, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}
