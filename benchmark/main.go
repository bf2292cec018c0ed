// Command benchmark is this repository's performance benchmark: six
// seeded workloads, four end-to-end metrics and a per-layer ledger
// from traced runs. It measures the layers from outside — by timing
// calls into their public functions and by driving krum-scenariod
// subprocesses over HTTP — so no file outside this directory knows it
// exists. See README.md here, and BENCHMARK.json at the repository
// root for bounds and the latest numbers.
//
// Run it through run.sh, which builds it and the service binary:
//
//	bash benchmark/run.sh --workload grid_small --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh --seed 1 --out a.json      # every workload, both modes
//	bash benchmark/run.sh --compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"krum"
)

// cleanups holds what must be undone on every exit path — subprocesses
// to stop, the scratch directory to remove — including a signal.
var cleanups cleanupSet

type cleanupSet struct {
	mu      sync.Mutex
	entries []cleanup
}

type cleanup struct {
	key  any
	undo func()
}

func (c *cleanupSet) add(key any, undo func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = append(c.entries, cleanup{key, undo})
}

func (c *cleanupSet) remove(key any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = slices.DeleteFunc(c.entries, func(e cleanup) bool { return e.key == key })
}

// run undoes everything still registered, newest first.
func (c *cleanupSet) run() {
	c.mu.Lock()
	todo := c.entries
	c.entries = nil
	c.mu.Unlock()
	for i := len(todo) - 1; i >= 0; i-- {
		todo[i].undo()
	}
}

func main() { os.Exit(realMain()) }

func realMain() int {
	workload := flag.String("workload", "", "workload to run (default: all of them, untraced then traced, one subprocess each)")
	seed := flag.Uint64("seed", 1, "the only input that changes the generated load")
	seconds := flag.Float64("seconds", 15, "how long one run measures")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	out := flag.String("out", "", "also write the result JSON to this file")
	dir := flag.String("dir", ".", "the benchmark's own directory (scratch space and trace files go under <dir>/out)")
	scenariod := flag.String("scenariod", "", "path of the krum-scenariod binary under test")
	compare := flag.Bool("compare", false, "compare two result files given as arguments; exit 1 on a regression")
	flag.Parse()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		<-sig
		cleanups.run()
		os.Exit(130)
	}()
	defer cleanups.run()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare a.json b.json")
			return 2
		}
		return compareFiles(*dir, flag.Arg(0), flag.Arg(1))
	case *workload == "":
		return runAll(*seed, *seconds, *dir, *scenariod, *out)
	}
	w, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		return 2
	}
	res, err := runOne(w, *seed, *seconds, *trace == 1, *dir, *scenariod)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printResult(w, res)
	if *out != "" {
		if err := writeJSON(*out, resultFile{Host: hostInfo(), Runs: []runResult{res}}); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	// The last line of standard output is the driver's contract.
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "benchmark: check failed:", res.Problem)
		return 1
	}
	return 0
}

// runOne runs one workload in this process, with a scratch directory
// that is gone when it returns.
func runOne(w workloadDef, seed uint64, seconds float64, traced bool, dir, scenariod string) (runResult, error) {
	outDir := filepath.Join(dir, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return runResult{}, err
	}
	tmp, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		return runResult{}, err
	}
	cleanups.add(tmp, func() { os.RemoveAll(tmp) })
	defer func() {
		cleanups.remove(tmp)
		os.RemoveAll(tmp)
	}()
	return runWorkload(w, env{seed: seed, scenariod: scenariod, tmp: tmp}, seconds, traced, outDir)
}

// printResult prints every metric by name with its unit.
func printResult(w workloadDef, res runResult) {
	mode, defs := "untraced", endToEnd
	if res.Traced {
		mode, defs = "traced", perLayer
	}
	fmt.Printf("# %s seed=%d %s: op = %s, request = %s\n", w.name, res.Seed, mode, w.op, w.request)
	for _, def := range defs {
		m := res.Metrics[def.name]
		line := fmt.Sprintf("%-40s %14.4f %s", def.name, m.Value, m.Unit)
		if s, ok := res.Spread[def.name]; ok {
			line += fmt.Sprintf("   (within-run noise ±%.1f%%)", 100*s)
		}
		fmt.Println(line)
	}
	fmt.Printf("%-40s %14d of %d ops\n", "failed", res.Failed, res.Attempted)
	if !res.Traced {
		return
	}
	// Self time: a span's duration minus what its children cover.
	var names []string
	all := 0.0
	for key, v := range res.Info {
		if name, ok := strings.CutPrefix(key, "self_ms."); ok {
			names = append(names, name)
			all += v
		}
	}
	sort.Slice(names, func(i, j int) bool { return res.Info["self_ms."+names[i]] > res.Info["self_ms."+names[j]] })
	fmt.Println("# self time of the kept spans, by span name")
	for _, name := range names {
		v := res.Info["self_ms."+name]
		fmt.Printf("#   %-36s %12.3f ms %5.1f%%\n", name, v, 100*v/all)
	}
}

// hostBlock records where numbers were taken.
type hostBlock struct {
	VCPUs       int    `json:"vcpus"`
	CPU         string `json:"cpu"`
	KernelTier  string `json:"kernel_tier"`
	KernelOrder string `json:"kernel_order"`
	Go          string `json:"go"`
}

func hostInfo() hostBlock {
	h := hostBlock{
		VCPUs:       runtime.NumCPU(),
		KernelTier:  krum.ActiveKernelTier().String(),
		KernelOrder: krum.ActiveKernelOrder(),
		Go:          runtime.Version(),
	}
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return h
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Host hostBlock   `json:"host"`
	Runs []runResult `json:"runs"`
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// runAll runs every workload untraced and then traced, each in a fresh
// subprocess of this binary, so that each gets its own heap and its own
// peak RSS. It exits non-zero if any run's checks fail.
func runAll(seed uint64, seconds float64, dir, scenariod, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	outDir := filepath.Join(dir, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	file := resultFile{Host: hostInfo()}
	fmt.Printf("# host: %d vCPUs, %s, kernel tier %s (%s), %s\n", file.Host.VCPUs, file.Host.CPU, file.Host.KernelTier, file.Host.KernelOrder, file.Host.Go)
	status := 0
	started := time.Now()
	for _, trace := range []int{0, 1} {
		for _, w := range workloads {
			part := filepath.Join(outDir, fmt.Sprintf("run-%s-%d.json", w.name, trace))
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
				"-dir", dir, "-scenariod", scenariod, "-out", part)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Start(); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			cleanups.add(cmd, func() { _ = cmd.Process.Signal(os.Interrupt); _ = cmd.Wait() })
			err := cmd.Wait()
			cleanups.remove(cmd)
			var exit *exec.ExitError
			if errors.As(err, &exit) {
				status = 1
			} else if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			var one resultFile
			if blob, err := os.ReadFile(part); err == nil && json.Unmarshal(blob, &one) == nil {
				file.Runs = append(file.Runs, one.Runs...)
			}
			os.Remove(part)
			fmt.Println()
		}
	}
	fmt.Printf("# %d runs in %.0f s\n", len(file.Runs), time.Since(started).Seconds())
	if out != "" {
		if err := writeJSON(out, file); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return status
}
