// Command perfbench is the repository benchmark: three fixed workloads run
// in one process through the program's public packages, reported as
// end-to-end metrics (timed runs) or per-layer metrics (a separate traced
// run). See README.md in this directory for the workloads, every metric's
// definition and source, and the layer → end-to-end map.
//
//	go build -o perfbench . && ./perfbench --workload train-hot --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"hetkg/internal/span"
)

var workloadKinds = map[string]string{
	"train-hot":  "train",
	"train-wire": "train",
	"serve-zipf": "serve",
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "train-hot | train-wire | serve-zipf")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 15, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a separate traced run")
	out := flag.String("out", ".bench_build/perfbench", "directory for scratch files and the merged span dump")
	flag.Parse()

	kind, ok := workloadKinds[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if err := checkCaps(); err != nil {
		return err
	}
	printProvenance(*workload, *seed, *trace)

	dir := filepath.Join(*out, fmt.Sprintf("%s-seed%d-pid%d", *workload, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	traced := *trace == 1
	var rec *recorder
	if traced {
		rec = &recorder{}
	}
	r := newReport()
	budget := time.Duration(*seconds) * time.Second
	var program []span.Span
	var err error
	if kind == "train" {
		program, err = runTrain(*workload, *seed, budget, traced, dir, rec, r)
	} else {
		program, err = runServe(*seed, budget, traced, dir, rec, r)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	if traced {
		zeroUnexercised(r)
		path := filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.spans.jsonl", *workload, *seed))
		hdr := span.Header{System: "perfbench/" + *workload, Dataset: "fb15k-like", Every: 1, Seed: *seed}
		merged := append(append([]span.Span(nil), program...), rec.spans...)
		if err := span.WriteFile(path, span.FormatJSONL, hdr, merged); err != nil {
			return fmt.Errorf("writing merged spans: %w", err)
		}
		r.note("merged span dump (%d program + %d benchmark spans; sim=true marks netsim predictions): %s",
			len(program), len(rec.spans), path)
	}
	return r.write(os.Stdout, kind, traced)
}

// zeroUnexercised reports 0 for the layers the workload's measured phase
// does not run (the training layers on serve-zipf, the serving layers on
// the training workloads), and names them.
func zeroUnexercised(r *report) {
	var zeroed []string
	for _, d := range perLayer {
		if _, ok := r.Layers[d.Name]; !ok {
			r.Layers[d.Name] = 0
			zeroed = append(zeroed, d.Name)
		}
	}
	sort.Strings(zeroed)
	if len(zeroed) > 0 {
		r.note("not exercised by this workload's measured phase, reported as 0: %v", zeroed)
	}
}

// checkCaps refuses configurations whose threads or connections exceed the
// machine's processors.
func checkCaps() error {
	nproc := runtime.NumCPU()
	for _, c := range []struct {
		what string
		n    int
	}{
		{"GOMAXPROCS", runtime.GOMAXPROCS(0)},
		{"training machines x workers", machines},
		{"parallelism", parallelism},
		{"shard connections", machines},
		{"HTTP connections", httpConns},
	} {
		if c.n > nproc {
			return fmt.Errorf("%s = %d exceeds nproc = %d", c.what, c.n, nproc)
		}
	}
	return nil
}

func printProvenance(workload string, seed int64, trace int) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("# perfbench workload=%s seed=%d trace=%d\n", workload, seed, trace)
	fmt.Printf("# nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
	fmt.Printf("# caps: %d machines x 1 worker, parallelism %d, %d shard connections, %d HTTP connections\n",
		machines, parallelism, machines, httpConns)
}
