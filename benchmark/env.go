package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// gitCommit is stamped by run.sh (-ldflags -X); a bare `go build` leaves
// it unknown.
var gitCommit = "unknown"

// environment is the block every output file starts with: enough to tell
// whether two files were measured on comparable machines and settings.
func environment(cfg config, w workload, sf float64, procs int) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": procs,
		"cpu_model":  cpuModel(),
		"cpu_caches": cpuCaches(),
		"go_version": runtime.Version(),
		"git_commit": gitCommit,
		"seed":       cfg.seed,
		"sf":         sf,
		"seconds":    cfg.seconds,
		"rates_qps":  map[string]float64{"r_low": w.rates[0], "r_ref": w.rates[1], "r_high": w.rates[2]},
	}
}

// cpuModel reads the processor's name from /proc/cpuinfo; where that
// file does not exist the model is unknown.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuCaches lists core 0's caches as "L1 Data 48K"-style strings.
func cpuCaches() []string {
	var out []string
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		read := func(name string) string {
			b, _ := os.ReadFile(filepath.Join(d, name))
			return strings.TrimSpace(string(b))
		}
		out = append(out, "L"+read("level")+" "+read("type")+" "+read("size"))
	}
	return out
}
