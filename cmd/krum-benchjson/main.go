// Command krum-benchjson converts `go test -bench` text output (stdin)
// into the JSON perf-trajectory format written to BENCH_scenario.json
// by `make bench`. The "raw" field preserves the benchmark text
// verbatim — feed it to benchstat to compare runs — and "benchmarks"
// carries the parsed per-benchmark metrics for dashboards: one entry
// per benchmark name, so a `-count k` run folds its k lines into one
// entry with the median and the [min, max] band of every metric.
//
//	go test -run '^$' -bench BenchmarkBulyanMemoized -benchmem . | krum-benchjson
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// benchmark is one benchmark: every line of the input that carries its
// name (`-count k` prints k), folded.
type benchmark struct {
	// Name is the benchmark identifier including the -GOMAXPROCS
	// suffix.
	Name string `json:"name"`
	// Iterations is the measured b.N, summed over the samples.
	Iterations int64 `json:"iterations"`
	// Samples is the number of lines folded into this entry.
	Samples int `json:"samples"`
	// Metrics maps unit → value for every reported metric
	// ("ns/op", "B/op", "allocs/op", custom b.ReportMetric units): the
	// median over the samples that reported it.
	Metrics map[string]float64 `json:"metrics"`
	// Range maps unit → [min, max] over the samples, the noise band of
	// the median; absent on a single sample.
	Range map[string][2]float64 `json:"range,omitempty"`

	values map[string][]float64 // unit → every sample's value
}

// fold sets Metrics and Range from the collected samples.
func (b *benchmark) fold() {
	b.Metrics = make(map[string]float64, len(b.values))
	band := make(map[string][2]float64, len(b.values))
	for unit, vs := range b.values {
		sort.Float64s(vs)
		k := len(vs)
		b.Metrics[unit] = (vs[(k-1)/2] + vs[k/2]) / 2
		band[unit] = [2]float64{vs[0], vs[k-1]}
	}
	if b.Samples > 1 {
		b.Range = band
	}
}

// output is the BENCH_scenario.json schema.
type output struct {
	Format     string       `json:"format"`
	Note       string       `json:"note"`
	Goos       string       `json:"goos,omitempty"`
	Goarch     string       `json:"goarch,omitempty"`
	Pkg        string       `json:"pkg,omitempty"`
	CPU        string       `json:"cpu,omitempty"`
	Benchmarks []*benchmark `json:"benchmarks"`
	Raw        string       `json:"raw"`
}

func main() {
	os.Exit(run(os.Stdin, os.Stdout))
}

// run is the testable body of main (exit-once rule).
func run(in io.Reader, out io.Writer) int {
	var raw strings.Builder
	res := output{
		Format: "go-bench",
		Note:   "the raw field is benchstat-compatible `go test -bench` output",
	}
	byName := map[string]*benchmark{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		raw.WriteString(line)
		raw.WriteByte('\n')
		switch {
		case strings.HasPrefix(line, "goos:"):
			res.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			res.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			res.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			res.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			name, iters, values, ok := parseBenchLine(line)
			if !ok {
				continue
			}
			b := byName[name]
			if b == nil {
				b = &benchmark{Name: name, values: map[string][]float64{}}
				byName[name] = b
				res.Benchmarks = append(res.Benchmarks, b)
			}
			b.Iterations += iters
			b.Samples++
			for unit, v := range values {
				b.values[unit] = append(b.values[unit], v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "reading bench output: %v\n", err)
		return 1
	}
	for _, b := range res.Benchmarks {
		b.fold()
	}
	res.Raw = raw.String()
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "encoding: %v\n", err)
		return 1
	}
	return 0
}

// parseBenchLine parses "BenchmarkX-8  100  123 ns/op  45 B/op ..."
// into the name, the iteration count and the value/unit pairs that
// follow it.
func parseBenchLine(line string) (name string, iters int64, values map[string]float64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return "", 0, nil, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", 0, nil, false
	}
	values = map[string]float64{}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		values[fields[i+1]] = v
	}
	return fields[0], iters, values, true
}
