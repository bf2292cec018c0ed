package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// twoCount is `go test -bench -count 2` output for two benchmarks (one
// with a custom metric the second sample does not report), followed by
// a second invocation's single-count block, as `make bench` writes it.
const twoCount = `goos: linux
goarch: amd64
pkg: krum
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkDistanceMatrix/blocked-2         	    1843	    662443 ns/op	   13168 B/op	       4 allocs/op
BenchmarkDistanceMatrix/blocked-2         	    1860	    672114 ns/op	   13168 B/op	       5 allocs/op
BenchmarkDistanceMatrixLargeN/n=1000/d=1000/blocked-2 	      26	  42390708 ns/op	         0.04239 ns/(n²·d)
BenchmarkDistanceMatrixLargeN/n=1000/d=1000/blocked-2 	      22	  50570702 ns/op
PASS
ok  	krum	12.3s
goos: linux
BenchmarkBulyanMemoized-2 	      67	  18826269 ns/op	        22.00 theta
not a benchmark line
Benchmark broken line
PASS
`

func TestRunFoldsRepeatedNames(t *testing.T) {
	var out bytes.Buffer
	if code := run(strings.NewReader(twoCount), &out); code != 0 {
		t.Fatalf("run exited %d", code)
	}
	var got struct {
		Goos, CPU  string
		Benchmarks []struct {
			Name       string
			Iterations int64
			Samples    int
			Metrics    map[string]float64
			Range      map[string][2]float64
		}
		Raw string
	}
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if got.Raw != twoCount {
		t.Errorf("raw is not the input verbatim:\n%s", got.Raw)
	}
	if got.Goos != "linux" || !strings.HasPrefix(got.CPU, "Intel") {
		t.Errorf("header: goos %q cpu %q", got.Goos, got.CPU)
	}
	if len(got.Benchmarks) != 3 {
		t.Fatalf("%d entries, want one per name (3): %+v", len(got.Benchmarks), got.Benchmarks)
	}

	// Entries keep first-appearance order; two samples fold to the
	// midpoint with the [min, max] band, per metric.
	b := got.Benchmarks[0]
	if b.Name != "BenchmarkDistanceMatrix/blocked-2" || b.Samples != 2 || b.Iterations != 1843+1860 {
		t.Errorf("entry 0: %+v", b)
	}
	wantMetrics := map[string]float64{"ns/op": (662443 + 672114) / 2.0, "B/op": 13168, "allocs/op": 4.5}
	wantRange := map[string][2]float64{"ns/op": {662443, 672114}, "B/op": {13168, 13168}, "allocs/op": {4, 5}}
	if !reflect.DeepEqual(b.Metrics, wantMetrics) || !reflect.DeepEqual(b.Range, wantRange) {
		t.Errorf("entry 0: metrics %v range %v, want %v %v", b.Metrics, b.Range, wantMetrics, wantRange)
	}

	// A metric only some samples report folds over those that did.
	b = got.Benchmarks[1]
	if b.Samples != 2 || b.Metrics["ns/(n²·d)"] != 0.04239 || b.Range["ns/(n²·d)"] != [2]float64{0.04239, 0.04239} ||
		b.Range["ns/op"] != [2]float64{42390708, 50570702} {
		t.Errorf("entry 1: %+v", b)
	}

	// A single sample is today's entry plus samples: 1 — no range.
	b = got.Benchmarks[2]
	if b.Name != "BenchmarkBulyanMemoized-2" || b.Samples != 1 || b.Iterations != 67 || b.Range != nil ||
		!reflect.DeepEqual(b.Metrics, map[string]float64{"ns/op": 18826269, "theta": 22}) {
		t.Errorf("entry 2: %+v", b)
	}
	if !strings.Contains(out.String(), `"iterations": 67,
      "samples": 1,
      "metrics": {
        "ns/op": 18826269,
        "theta": 22
      }
    }`) {
		t.Errorf("single-sample entry is not the single-count schema plus samples:\n%s", out.String())
	}
}
