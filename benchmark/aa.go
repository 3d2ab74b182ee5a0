package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// declFile is the benchmark's declaration at the repository root: the
// workloads, the gated metrics with their bounds, the per-layer names.
const declFile = "BENCHMARK.json"

type declMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declMetric `json:"end_to_end"`
	PerLayer []declMetric `json:"per_layer"`
}

func loadDeclaration(path string) (declaration, error) {
	var d declaration
	raw, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// aaCell compares the two sets of one workload × metric.
type aaCell struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Bound    float64 `json:"bound"`
	MedianA  float64 `json:"median_a"`
	Q1A      float64 `json:"q1_a"`
	Q3A      float64 `json:"q3_a"`
	SpreadA  float64 `json:"spread_a"` // (q3-q1)/median
	MedianB  float64 `json:"median_b"`
	Q1B      float64 `json:"q1_b"`
	Q3B      float64 `json:"q3_b"`
	SpreadB  float64 `json:"spread_b"`
	Gap      float64 `json:"gap"` // |median_b-median_a|/median_a
	OK       bool    `json:"ok"`
}

type aaReport struct {
	Machine     machine  `json:"machine"`
	Invocations int      `json:"invocations_per_set"`
	RunSeconds  float64  `json:"run_seconds"`
	WallSeconds float64  `json:"wall_seconds"`
	Rule        string   `json:"rule"`
	Cells       []aaCell `json:"cells"`
	OK          bool     `json:"ok"`
}

// invoke runs this binary once, untraced, and returns its result line.
func invoke(self, workload string, seed uint64, seconds float64) (result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	// The child's diagnostics pass through: its host-sentinel line is
	// what tells a disturbed invocation from a calm one in the A/A log.
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !res.Correct {
		return res, fmt.Errorf("%s seed %d: %d of %d operations failed", workload, seed, res.Failed, res.Attempted)
	}
	return res, nil
}

// runAA is the A/A check: two sets of n invocations of the same binary
// on every workload, each invocation of a set with another seed, the
// sets alternating (A B, then B A, ...) and the workloads interleaved
// round-robin so that both sets of every workload sample the whole
// window. It fails on a gap between the sets' medians over half the
// metric's bound, or on a set whose interquartile spread exceeds the
// bound. setup_s is exempt from the spread rule, as in the benchmark
// contract: a sub-millisecond set-up scatters far more than its medians
// move.
func runAA(n int, seconds float64, out string) int {
	decl, err := loadDeclaration(declFile)
	if err != nil {
		logf("A/A: %v (run from the repository root)", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		logf("A/A: %v", err)
		return 2
	}
	if seconds <= 0 {
		seconds = float64(decl.RunSeconds)
	}
	start := time.Now()
	// values[set][workload][metric]
	values := [2]map[string]map[string][]float64{{}, {}}
	for i := 0; i < n; i++ {
		for _, w := range decl.Workloads {
			for k := 0; k < 2; k++ {
				set := (i + k) % 2
				res, err := invoke(self, w.Name, uint64(i+1), seconds)
				if err != nil {
					logf("A/A: %v", err)
					return 1
				}
				if values[set][w.Name] == nil {
					values[set][w.Name] = map[string][]float64{}
				}
				for name, mv := range res.Metrics {
					values[set][w.Name][name] = append(values[set][w.Name][name], mv.Value)
				}
			}
		}
		logf("A/A: pass %d of %d done (%.0f s)", i+1, n, time.Since(start).Seconds())
	}

	rep := aaReport{
		Machine: machineInfo(), Invocations: n, RunSeconds: seconds, OK: true,
		Rule: "ok = gap <= bound/2 and (metric is setup_s or spread_a, spread_b <= bound); spread = (q3-q1)/median with Python's statistics.quantiles(n=4)",
	}
	fmt.Printf("%-22s %-17s %12s %7s %12s %7s %7s %6s\n", "workload", "metric", "median A", "iqr A", "median B", "iqr B", "gap", "bound")
	for _, w := range decl.Workloads {
		for _, m := range decl.EndToEnd {
			a, b := values[0][w.Name][m.Name], values[1][w.Name][m.Name]
			if len(a) < 2 || len(b) < 2 {
				logf("A/A: %s %s: too few values", w.Name, m.Name)
				return 2
			}
			c := aaCell{Workload: w.Name, Metric: m.Name, Unit: m.Unit, Bound: m.Bound,
				MedianA: median(a), MedianB: median(b), SpreadA: spread(a), SpreadB: spread(b)}
			c.Q1A, c.Q3A = quartiles(a)
			c.Q1B, c.Q3B = quartiles(b)
			c.Gap = math.Abs(c.MedianB-c.MedianA) / c.MedianA
			c.OK = c.Gap <= m.Bound/2 && (m.Name == "setup_s" || (c.SpreadA <= m.Bound && c.SpreadB <= m.Bound))
			rep.OK = rep.OK && c.OK
			mark := ""
			if !c.OK {
				mark = "  FAIL"
			}
			fmt.Printf("%-22s %-17s %12.6g %6.2f%% %12.6g %6.2f%% %6.2f%% %5.0f%%%s\n",
				c.Workload, c.Metric, c.MedianA, 100*c.SpreadA, c.MedianB, 100*c.SpreadB, 100*c.Gap, 100*c.Bound, mark)
			rep.Cells = append(rep.Cells, c)
		}
	}
	rep.WallSeconds = time.Since(start).Seconds()
	if out != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(raw, '\n'), 0o644)
		}
		if err != nil {
			logf("A/A: %v", err)
			return 2
		}
	}
	if !rep.OK {
		logf("A/A: two sets of runs of the same code disagree beyond the benchmark's own bounds")
		return 1
	}
	return 0
}
