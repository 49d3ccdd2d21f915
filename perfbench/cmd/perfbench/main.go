// Command perfbench is Panoptes' benchmark: it runs one workload
// (paper-study, wan-crawl or population) in this process for a fixed
// time, checks every iteration's outputs, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) with their units.
// The last line of standard output is the JSON result.
//
// Usage:
//
//	perfbench --workload paper-study --seed 1 --seconds 20 --trace 0
//	.bench_build/perfbench fold .bench_runs/paper-study-seed1-trace/cpu-traced1.pprof
//
// perfbench/run.py builds it from source and runs it from the
// repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"panoptes/perfbench/bench"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "fold" {
		if err := fold(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	var (
		workload = flag.String("workload", "", "workload to run: paper-study, wan-crawl or population")
		seed     = flag.Int64("seed", 1, "workload seed: picks the crawled sites and their order, or the population seed and user count")
		seconds  = flag.Float64("seconds", 20, "measure for this long (after the reference iteration)")
		trace    = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		out      = flag.String("out", ".bench_runs", "directory for run records, spans and CPU profiles")
		rev      = flag.String("rev", "unknown", "source revision recorded as provenance")
	)
	flag.Parse()
	if *workload == "" || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	rec, err := bench.Run(bench.Options{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		OutDir: *out, Revision: *rev,
		Log: func(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) },
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	h := rec.Host
	fmt.Printf("# workload=%s seed=%d trace=%v rev=%s\n", rec.Workload, rec.Seed, rec.Trace, h.Revision)
	fmt.Printf("# host: %s, nproc=%d, GOMAXPROCS=%d, %s\n", h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.GoVersion)
	size, _ := json.Marshal(rec.Size)
	fmt.Printf("# size: %s\n", size)
	names := make([]string, 0, len(rec.Result.Metrics))
	for n := range rec.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Result.Metrics[n]
		fmt.Printf("%-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	for _, p := range rec.Problems {
		fmt.Fprintf(os.Stderr, "perfbench: output check failed: %s\n", p)
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rec.Result.Correct {
		os.Exit(1)
	}
}

// fold prints the layer fold of saved CPU profiles.
func fold(paths []string) error {
	if len(paths) == 0 {
		return fmt.Errorf("fold: no profile given")
	}
	var stacks []bench.Stack
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		s, err := bench.ParseProfile(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		stacks = append(stacks, s...)
	}
	return bench.FoldStacks(stacks).WriteTable(os.Stdout)
}
