// Command perfbench is the repository benchmark. It builds every input
// from a seed, drives the checker and the live server only through
// their public entry points, checks the outputs, and prints one JSON
// result line:
//
//	perfbench --workload check-static --seed 1 --seconds 36 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the same workload runs with span tracing on and the result
// carries the per-layer metrics, while the spans are written to
// .bench_build/trace/<workload>-seed<seed>.json. BENCHMARK.json at the
// repository root lists the workloads and metrics. The process exits
// non-zero when an output check fails or a workload cannot run.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// opts is one run's configuration.
type opts struct {
	workload string
	seed     int64
	seconds  time.Duration
	tracer   *tracer // nil: tracing off
}

var workloads = map[string]func(opts) (*result, error){
	"check-static": runCheck,
	"profile":      runProfile,
	"serve":        runServe,
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: check-static, profile or serve")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 36, "how long the timed section measures")
	trace := fs.Int("trace", 0, "1 runs with span tracing and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	o := opts{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	if *trace == 1 {
		o.tracer = newTracer()
	}

	stamp := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": *seconds, "trace": *trace,
		"cpu": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(),
	}
	line, err := json.Marshal(map[string]any{"host": stamp})
	if err != nil {
		return err
	}
	fmt.Println(string(line))

	res, err := fn(o)
	if err != nil {
		return err
	}
	if o.tracer != nil {
		res.set("trace.spans", float64(len(o.tracer.spans)), "count")
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if err := o.tracer.write(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		res.report = append(res.report, "spans written to "+path)
	}
	for _, l := range res.report {
		fmt.Println("# " + l)
	}
	fmt.Printf("# failed_frac=%g (%d failed of %d attempted)\n", float64(res.failed)/float64(max(res.attempted, 1)), res.failed, res.attempted)
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-32s %14.6g %s\n", n, res.metrics[n].Value, res.metrics[n].Unit)
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}

	correct := res.failed == 0 && res.attempted > 0
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, res.attempted, res.failed, res.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !correct {
		return fmt.Errorf("%d of %d operations failed their output checks", res.failed, res.attempted)
	}
	return nil
}

// cpuModel reads the CPU model name the kernel reports, or "unknown".
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
