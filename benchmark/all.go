package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"scalegnn/internal/tensor"
)

// provenance heads every result set: enough to tell whether two sets are
// comparable.
type provenance struct {
	Commit    string  `json:"commit"`
	GoVersion string  `json:"go_version"`
	CPU       string  `json:"cpu"`
	NProc     int     `json:"nproc"`
	FastF32   bool    `json:"simd_f32"`
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Started   string  `json:"started"`
}

// runRecord is one subprocess run of one workload.
type runRecord struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"ops_attempted"`
	Failed    int                `json:"ops_failed"`
	WallS     float64            `json:"wall_s"`
	Metrics   map[string]float64 `json:"metrics"`
}

// workloadSet is one workload's part of a result set.
type workloadSet struct {
	Name       string      `json:"name"`
	GOMAXPROCS int         `json:"gomaxprocs"` // pinned by every run of the workload
	Runs       []runRecord `json:"runs"`       // untraced: end-to-end metrics
	Traced     *runRecord  `json:"traced"`     // per-layer metrics
}

// resultSet is what -all writes and -compare reads.
type resultSet struct {
	Provenance provenance        `json:"provenance"`
	Units      map[string]string `json:"units"`
	Workloads  []workloadSet     `json:"workloads"`
}

func collectProvenance(seed uint64, seconds float64) provenance {
	p := provenance{
		Commit: "unknown", GoVersion: runtime.Version(), CPU: "unknown",
		NProc: runtime.NumCPU(), FastF32: tensor.FastF32(),
		Seed: seed, Seconds: seconds,
		Started: time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPU = strings.TrimSpace(v)
				break
			}
		}
		_ = f.Close() // read-only
	}
	return p
}

// runChild re-executes this binary for one run, so tensor pools, GC state
// and heap never leak from one workload into the next. The child's table
// goes to our stdout; its last line is the result.
func runChild(name string, seed uint64, seconds float64, traced bool, tmp, spansOut string) (*runRecord, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-tmp", tmp,
	}
	if traced {
		args = append(args, "-trace", "1", "-spans-out", spansOut)
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	wall := time.Since(start).Seconds()
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	var res outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", name, err)
	}
	rec := &runRecord{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, WallS: wall, Metrics: map[string]float64{}}
	for n, v := range res.Metrics {
		rec.Metrics[n] = v.Value
	}
	return rec, nil
}

// runAll is -all: repeats rounds of one untraced run per workload, then one
// traced run per workload. The rounds interleave the workloads so that a
// minute in which the shared host runs slow lands on one repeat of each
// workload (and widens its quartiles) instead of on every repeat of one
// workload (and moves its median). It returns the process exit code:
// non-zero when any run failed an output check or could not run.
func runAll(seed uint64, seconds float64, repeats int, tmp, out string) int {
	set := resultSet{Provenance: collectProvenance(seed, seconds), Units: map[string]string{}}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		set.Units[d.Name] = d.Unit
	}
	for _, w := range workloads {
		set.Workloads = append(set.Workloads, workloadSet{Name: w.Name, GOMAXPROCS: w.procs()})
	}
	code := 0
	for r := 0; r <= repeats; r++ {
		traced := r == repeats
		for i := range set.Workloads {
			ws := &set.Workloads[i]
			spans := ""
			if traced && out != "" {
				spans = out + "." + ws.Name + ".spans.jsonl"
			}
			rec, err := runChild(ws.Name, seed, seconds, traced, tmp, spans)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 2
			}
			if !rec.Correct || rec.Failed > 0 {
				code = 1
			}
			if traced {
				ws.Traced = rec
			} else {
				ws.Runs = append(ws.Runs, *rec)
			}
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(set, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: write %s: %v\n", out, err)
			return 2
		}
	}
	if code != 0 {
		fmt.Fprintln(os.Stderr, "benchmark: at least one output check failed")
	}
	return code
}
