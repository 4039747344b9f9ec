package main

import (
	"bufio"
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// shareNames are the cpu_share.* metrics, in print order.
var shareNames = []string{
	"pipeline.fetch", "pipeline.dispatch", "pipeline.issue", "pipeline.commit", "pipeline.other",
	"mem", "bpred", "regfile", "runahead", "policy", "trace", "core",
	"experiments", "scenario", "net", "runtime", "other",
}

// repoLayers maps a repository package directory to its cpu_share name;
// internal/pipeline is split by stage file in shareOf.
var repoLayers = map[string]string{
	"internal/mem":         "mem",
	"internal/bpred":       "bpred",
	"internal/regfile":     "regfile",
	"internal/runahead":    "runahead",
	"internal/policy":      "policy",
	"internal/rescontrol":  "policy",
	"internal/trace":       "trace",
	"internal/workload":    "trace",
	"internal/tracestore":  "trace",
	"internal/core":        "core",
	"internal/experiments": "experiments",
	"internal/sched":       "experiments",
	"internal/simcache":    "experiments",
	"internal/resultstore": "experiments",
	"internal/scenario":    "scenario",
	"internal/report":      "scenario",
	"internal/metrics":     "scenario",
	"internal/stats":       "core",
	"internal/isa":         "trace",
	"internal/rng":         "trace",
}

// shareOf names the cpu_share bucket of one source file. repo and goroot
// are the directories the profiled binary was built from.
func shareOf(file, repo, goroot string) string {
	if rel, ok := strings.CutPrefix(file, repo+"/"); ok {
		dir, base := filepath.Dir(rel), filepath.Base(rel)
		if dir == "internal/pipeline" {
			switch base {
			case "fetch.go", "dispatch.go", "issue.go", "commit.go":
				return "pipeline." + strings.TrimSuffix(base, ".go")
			}
			return "pipeline.other"
		}
		if name, ok := repoLayers[dir]; ok {
			return name
		}
		return "other"
	}
	if rel, ok := strings.CutPrefix(file, goroot+"/src/"); ok {
		switch {
		case strings.HasPrefix(rel, "runtime/"):
			return "runtime"
		case strings.HasPrefix(rel, "net/"):
			return "net"
		}
	}
	return "other"
}

// reduceTop sums the flat time of each file row of `go tool pprof -top
// -files` output into cpu_share buckets, as percentages of all flat time.
// pprof prints a file once per inlined and once per out-of-line
// appearance, so a file may have several rows; they all add up. A
// profile without samples (a client that hardly ran) gives all zeros.
func reduceTop(out, repo, goroot string) (map[string]float64, error) {
	sums := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(strings.NewReader(out))
	header := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !header {
			header = len(f) == 5 && f[0] == "flat" && f[4] == "cum%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err := parseFlat(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", sc.Text(), err)
		}
		file := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		sums[shareOf(file, repo, goroot)] += flat
		total += flat
	}
	if !header {
		return nil, fmt.Errorf("pprof output has no table")
	}
	shares := map[string]float64{}
	for _, name := range shareNames {
		shares[name] = 0
		if total > 0 {
			shares[name] = 100 * sums[name] / total
		}
	}
	return shares, nil
}

// parseFlat reads a pprof time column ("0", "10ms", "1.25s").
func parseFlat(s string) (float64, error) {
	if s == "0" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	return float64(d), nil
}

// profileShares runs pprof on a CPU profile and reduces it.
func profileShares(ctx context.Context, prof, repo string) (map[string]float64, error) {
	goroot, err := exec.CommandContext(ctx, "go", "env", "GOROOT").Output()
	if err != nil {
		return nil, fmt.Errorf("go env GOROOT: %w", err)
	}
	out, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-files", "-nodecount=1000000", prof).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return reduceTop(string(out), repo, strings.TrimSpace(string(goroot)))
}
