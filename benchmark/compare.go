package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs: each
// end-to-end metric's direction and the share of the base value by
// which it may worsen.
type benchmarkSpec struct {
	EndToEnd []boundedMetric `json:"end_to_end"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// verdict is -compare's judgement of one workload × metric.
type verdict string

const (
	ok         verdict = "ok"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// judge compares a metric's base value a with its new value b. worse is
// the change in the harmful direction as a share of a. Within-run noise
// (runResult.Spread) wider than the bound means one run cannot tell a
// change of that size from chance: the pairing is unresolved, not ok —
// unless the change is a regression even after granting the noise.
func judge(m boundedMetric, a, b, spreadA, spreadB float64) (worse float64, v verdict) {
	if a == 0 {
		return 0, unresolved
	}
	worse = (b - a) / a
	if m.Better == "higher" {
		worse = -worse
	}
	noise := max(spreadA, spreadB)
	switch {
	case worse > m.Bound+noise:
		return worse, regressed
	case noise > m.Bound:
		return worse, unresolved
	case worse > m.Bound:
		return worse, regressed
	}
	return worse, ok
}

func readResults(path string) (map[string]runResult, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file resultFile
	if err := json.Unmarshal(blob, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	runs := make(map[string]runResult)
	for _, r := range file.Runs {
		if !r.Traced {
			runs[r.Workload] = r
		}
	}
	return runs, nil
}

// compareFiles prints, per workload × end-to-end metric, both values,
// the relative change against its base, the bound and the verdict. It
// returns 1 if anything regressed, 2 if the inputs could not be read.
func compareFiles(dir, pathA, pathB string) int {
	specPath := filepath.Join(dir, "..", "BENCHMARK.json")
	blob, err := os.ReadFile(specPath)
	var spec benchmarkSpec
	if err == nil {
		err = json.Unmarshal(blob, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare: reading bounds:", err)
		return 2
	}
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	status := 0
	fmt.Printf("%-20s %-16s %14s %14s %22s %7s  %s\n", "workload", "metric", "a", "b", "worse by (share of a)", "bound", "verdict")
	for _, w := range workloads {
		ra, okA := a[w.name]
		rb, okB := b[w.name]
		if !okA || !okB {
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			worse, v := judge(m, va, vb, ra.Spread[m.Name], rb.Spread[m.Name])
			if v == regressed {
				status = 1
			}
			fmt.Printf("%-20s %-16s %14.4f %14.4f %+21.1f%% %6.0f%%  %s\n", w.name, m.Name, va, vb, 100*worse, 100*m.Bound, v)
		}
		if ra.Failed > 0 || rb.Failed > 0 {
			status = 1
			fmt.Printf("%-20s failed ops: a %d of %d, b %d of %d  regressed\n", w.name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
		}
	}
	return status
}
