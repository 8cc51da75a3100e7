// Command benchmark is the repo's performance ledger: from one process
// it generates SSB data, drives the system at three heights - direct
// exec.Run, a server.Server over loopback HTTP, a cluster.Router over
// two shard servers - checks every answer against the Unprotected
// reference, and prints every metric BENCHMARK.json lists, by name, with
// its unit. See README.md in this directory.
//
//	bash benchmark/run.sh --workload serve_node --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	manifest string // path of BENCHMARK.json
	outDir   string // "" writes no files
	record   string // result-set file to append this run to ("" for none)
}

// manifest is BENCHMARK.json: the one table of metric names and units.
// The program holds no second copy; it emits what the manifest lists and
// fails if it cannot.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runFile is what a run leaves in the out directory.
type runFile struct {
	Env      map[string]any `json:"env"`
	Workload string         `json:"workload"`
	Trace    bool           `json:"trace"`
	Failure  string         `json:"first_failure,omitempty"`
	Result   result         `json:"result"`
}

// runWorkload performs one run and returns its result and the
// environment block that belongs in every file it writes.
func runWorkload(cfg config) (*runFile, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	man, err := readManifest(cfg.manifest)
	if err != nil {
		return nil, err
	}
	procs := maxProcs()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

	r := &runner{cfg: cfg, w: w, procs: procs, metrics: map[string]float64{}, rng: rand.New(rand.NewSource(cfg.seed))}
	if cfg.trace {
		r.tracer = newTracer()
	}
	if err := r.setUp(); err != nil {
		return nil, err
	}
	defer r.st.close()
	env := environment(cfg, w, r.st.spec.sf, procs)

	defs := man.EndToEnd
	if cfg.trace {
		defs = man.PerLayer
		if err := r.measureLayers(); err != nil {
			return nil, err
		}
		if cfg.outDir != "" {
			if err := r.tracer.write(filepath.Join(cfg.outDir, "trace-"+w.name+".json"), env); err != nil {
				return nil, err
			}
		}
	} else {
		r.measure()
	}

	out := &runFile{Env: env, Workload: w.name, Trace: cfg.trace, Failure: r.firstFailure}
	out.Result = result{
		Correct:   r.failed.Load() == 0,
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is listed in %s but was not measured", d.Name, cfg.manifest)
		}
		out.Result.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printTable prints every metric by name with its unit, one per line.
func printTable(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

// exit codes: 0 every answer right (or: no compared row worse), 1 a wrong
// answer (or: a worse row), 2 the benchmark itself could not run.
func realMain() int {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the data, the request order and the injection sites")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "seconds to measure")
	flag.IntVar(&trace, "trace", 0, "1: traced run, prints the per-layer metrics; 0: end-to-end metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "SF 0.01 and minimal phases: checks the plumbing, measures nothing")
	flag.StringVar(&cfg.manifest, "manifest", "BENCHMARK.json", "path of BENCHMARK.json")
	flag.StringVar(&cfg.outDir, "out", "benchmark/out", "directory for result and trace files")
	flag.StringVar(&cfg.record, "record", "", "result-set file to add this run to (read by -compare)")
	compare := flag.Bool("compare", false, "compare two result sets: -compare a.json b.json")
	flag.Parse()
	cfg.trace = trace != 0

	var bad bool
	var err error
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare a.json b.json")
			return 2
		}
		bad, err = compareSets(os.Stdout, cfg.manifest, flag.Arg(0), flag.Arg(1))
	} else {
		bad, err = runAndReport(cfg)
	}
	switch {
	case err != nil:
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	case bad:
		return 1
	}
	return 0
}

// runAndReport runs one workload, leaves its files, and prints the metric
// table and the result line. It reports whether any operation failed.
func runAndReport(cfg config) (failed bool, err error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return false, err
	}
	run, err := runWorkload(cfg)
	if err != nil {
		return false, err
	}
	name := run.Workload
	if run.Trace {
		name += "-layers"
	}
	if err := writeJSON(filepath.Join(cfg.outDir, name+".json"), run); err != nil {
		return false, err
	}
	if cfg.record != "" {
		if err := recordRun(cfg.record, run); err != nil {
			return false, err
		}
	}
	line, err := json.Marshal(run.Result)
	if err != nil {
		return false, err
	}
	printTable(run.Result)
	fmt.Println(string(line))
	if !run.Result.Correct {
		// A wrong, degraded, failed or missed answer voids the run.
		fmt.Fprintf(os.Stderr, "benchmark: %d of %d operations failed; first: %s\n",
			run.Result.Failed, run.Result.Attempted, run.Failure)
	}
	return !run.Result.Correct, nil
}

func main() { os.Exit(realMain()) }
