// Command krum-bench measures aggregation-rule cost: the Lemma 4.1
// sweep over (n, d) for Krum, plus the same grid for the baselines
// (including the exponential minimal-diameter rule on small n, which is
// exactly the cost argument the paper makes for Krum). Timings are
// taken on a single core, so ns/(n²·d) counts work at every shape.
//
// Rules are registry specs; parameters omitted from a spec default to
// the sweep's per-n cluster shape:
//
//	krum-bench -rules krum,average,medoid -n 5,10,20,40 -d 1000,10000 -csv
//	krum-bench -rules "multikrum(m=3),bulyan" -n 20 -d 1000
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"krum"
	"krum/internal/metrics"
	"krum/internal/vec"
)

func main() {
	os.Exit(run())
}

func run() int {
	rulesFlag := flag.String("rules", "krum,multikrum,average,medoid,coordmedian,geomedian",
		"comma-separated rule specs, from: "+krum.RuleUsage())
	nFlag := flag.String("n", "5,10,20,40", "comma-separated worker counts")
	dFlag := flag.String("d", "100,1000,10000", "comma-separated dimensions")
	csvFlag := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	seedFlag := flag.Uint64("seed", 1, "random seed")
	flag.Parse()

	ns, err := parseInts(*nFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-n: %v\n", err)
		return 2
	}
	ds, err := parseInts(*dFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-d: %v\n", err)
		return 2
	}

	rng := vec.NewRNG(*seedFlag)
	tbl := metrics.NewTable("rule", "n", "d", "ns/op (single core)", "ns/(n²·d)")
	for _, n := range ns {
		f := (n - 3) / 2
		if f < 0 {
			f = 0
		}
		for _, d := range ds {
			vectors := make([][]float64, n)
			for i := range vectors {
				vectors[i] = rng.NewNormal(d, 0, 1)
			}
			dst := make([]float64, d)
			// SplitRuleSpecs keeps commas inside parameter lists, so
			// "krum,multikrum(f=2,m=3)" is two specs, not three.
			for _, spec := range krum.SplitRuleSpecs(*rulesFlag) {
				rule, err := krum.ParseRuleIn(krum.SpecContext{N: n, F: f}, spec)
				if err != nil {
					fmt.Fprintf(os.Stderr, "%v\n", err)
					return 2
				}
				nanos, err := timeRule(rule, dst, vectors)
				if err != nil {
					fmt.Fprintf(os.Stderr, "%s n=%d d=%d: %v\n", spec, n, d, err)
					return 1
				}
				tbl.AddRowf(rule.Name(), n, d, nanos, nanos/(float64(n)*float64(n)*float64(d)))
			}
		}
	}
	if *csvFlag {
		if err := tbl.RenderCSV(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			return 1
		}
		return 0
	}
	if err := tbl.Render(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 1
	}
	return 0
}

// timeRule measures one rule's aggregation latency with calibrated
// repetitions, under GOMAXPROCS 1 (restored on return) so that a shape
// whose distance build would fan out is charged its work, not its
// elapsed time on however many cores the host has.
func timeRule(rule krum.Rule, dst []float64, vectors [][]float64) (float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	start := time.Now()
	if err := rule.Aggregate(dst, vectors); err != nil {
		return 0, err
	}
	first := time.Since(start)
	reps := 1
	if first < 10*time.Millisecond {
		reps = int(10*time.Millisecond/(first+time.Nanosecond)) + 1
		if reps > 5000 {
			reps = 5000
		}
	}
	start = time.Now()
	for i := 0; i < reps; i++ {
		if err := rule.Aggregate(dst, vectors); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reps), nil
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", p, err)
		}
		if v < 1 {
			return nil, fmt.Errorf("value %d must be positive", v)
		}
		out = append(out, v)
	}
	return out, nil
}
