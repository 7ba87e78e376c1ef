// hetkg-trace inspects training-run recordings.
//
// Compare mode (the default) aligns the end-of-epoch records of timelines
// recorded with hetkg-train -timeline and renders an ASCII sparkline per
// run, for quick convergence comparison without leaving the terminal:
//
//	hetkg-train -dataset fb15k -system dglke   -timeline a.jsonl
//	hetkg-train -dataset fb15k -system hetkg-d -timeline b.jsonl
//	hetkg-trace a.jsonl b.jsonl
//
// Spans mode analyzes per-batch span dumps recorded with hetkg-train -span:
// a comm-vs-compute-vs-cache attribution table over the sampled batches, the
// top-k slowest spans, the per-machine straggler summary, and the slowest
// batch's critical path:
//
//	hetkg-train -dataset fb15k -system hetkg-d -span s.jsonl
//	hetkg-trace spans s.jsonl
//
// Multiple span files merge into one analysis by trace ID, so the per-process
// dumps of an elastic run (worker batches in one file, shard-side spans in
// another) stitch back into whole cross-process critical paths:
//
//	hetkg-trace spans worker0.jsonl worker1.jsonl shard0.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"hetkg/internal/metrics"
	"hetkg/internal/span"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "spans" {
		fs := flag.NewFlagSet("spans", flag.ExitOnError)
		topK := fs.Int("top", 5, "how many slowest spans to list")
		fs.Parse(args[1:])
		if fs.NArg() == 0 {
			fmt.Fprintln(os.Stderr, "usage: hetkg-trace spans [-top K] spans.jsonl [more.jsonl ...]")
			os.Exit(2)
		}
		if err := spansReport(os.Stdout, fs.Args(), *topK); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	metric := flag.String("metric", "mrr", "column to compare: mrr | loss | comm_ms | hit_ratio")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: hetkg-trace [-metric mrr|loss|comm_ms|hit_ratio] run1.jsonl [run2.jsonl ...]")
		fmt.Fprintln(os.Stderr, "       hetkg-trace spans [-top K] spans.jsonl [more.jsonl ...]")
		os.Exit(2)
	}
	if err := compareRuns(os.Stdout, *metric, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// epochValue extracts one comparison metric from an epoch record.
func epochValue(e metrics.TimelineRecord, metric string) (float64, error) {
	switch metric {
	case "mrr":
		return e.MRR, nil
	case "loss":
		return e.Loss, nil
	case "comm_ms":
		return e.CommMS, nil
	case "hit_ratio":
		return e.HitRatio, nil
	default:
		return 0, fmt.Errorf("hetkg-trace: unknown metric %q (want mrr, loss, comm_ms, or hit_ratio)", metric)
	}
}

// compareRuns renders the aligned per-epoch table and sparklines for the
// given timeline files.
func compareRuns(w io.Writer, metric string, paths []string) error {
	type loaded struct {
		name string
		vals []float64
	}
	var runs []loaded
	maxEpochs := 0
	for _, path := range paths {
		r, err := metrics.ReadTimelineFile(path)
		if err != nil {
			return err
		}
		var vals []float64
		for _, rec := range r.Records {
			if !rec.EpochEnd {
				continue
			}
			v, err := epochValue(rec, metric)
			if err != nil {
				return err
			}
			vals = append(vals, v)
		}
		name := fmt.Sprintf("%s/%s", r.Header.System, r.Header.Dataset)
		runs = append(runs, loaded{name: name, vals: vals})
		if len(vals) > maxEpochs {
			maxEpochs = len(vals)
		}
	}

	// Aligned table.
	fmt.Fprintf(w, "%-28s", "epoch:")
	for e := 1; e <= maxEpochs; e++ {
		fmt.Fprintf(w, "%9d", e)
	}
	fmt.Fprintln(w)
	for _, r := range runs {
		fmt.Fprintf(w, "%-28s", r.name)
		for _, v := range r.vals {
			fmt.Fprintf(w, "%9.3f", v)
		}
		fmt.Fprintln(w)
	}

	// Sparklines (min-max normalized per run).
	fmt.Fprintf(w, "\n%s over epochs:\n", metric)
	for _, r := range runs {
		fmt.Fprintf(w, "%-28s %s\n", r.name, sparkline(r.vals))
	}
	return nil
}

// spansReport merges every input dump and analyzes the union as one
// trace set. A multi-process elastic run writes one dump per process —
// the worker's batch spans and the shards' shard.pull/shard.apply spans
// carry the same trace ID (it rides the wire header), so concatenating
// the files is exactly merge-by-trace-ID and cross-process parent/child
// chains reconnect. Spans identical in (trace, id, start) — overlapping
// dumps of the same ring — are dropped as duplicates.
func spansReport(w io.Writer, paths []string, topK int) error {
	type spanKey struct {
		trace, id uint64
		start     int64
	}
	var spans []span.Span
	seen := make(map[spanKey]bool)
	dups := 0
	for _, path := range paths {
		d, err := span.ReadFile(path)
		if err != nil {
			return err
		}
		kept := 0
		for _, s := range d.Spans {
			k := spanKey{s.Trace, s.ID, s.StartNS}
			if seen[k] {
				dups++
				continue
			}
			seen[k] = true
			spans = append(spans, s)
			kept++
		}
		fmt.Fprintf(w, "%s: %s/%s, %d spans (every %d), seed %d\n",
			path, d.Header.System, d.Header.Dataset, kept, d.Header.Every, d.Header.Seed)
	}
	if dups > 0 {
		fmt.Fprintf(w, "dropped %d duplicate spans shared between files\n", dups)
	}

	a := span.Analyze(spans, topK)
	fmt.Fprintf(w, "%d sampled batches across %d files\n", len(a.Batches), len(paths))
	if len(a.Batches) == 0 {
		fmt.Fprintln(w, "  no batch spans in dump")
		return nil
	}

	fmt.Fprintf(w, "\ncritical-path attribution over %s of sampled batch time:\n", fmtDur(a.TotalBatch))
	fmt.Fprintf(w, "  %-10s%12s%9s\n", "category", "total", "share")
	for _, cat := range span.Categories() {
		dur := a.Total[cat]
		share := 0.0
		if a.TotalBatch > 0 {
			share = 100 * float64(dur) / float64(a.TotalBatch)
		}
		fmt.Fprintf(w, "  %-10s%12s%8.1f%%\n", cat, fmtDur(dur), share)
	}

	fmt.Fprintf(w, "\ntop-%d slowest spans:\n", len(a.Slowest))
	fmt.Fprintf(w, "  %12s  %-20s%9s%8s%7s%7s%9s%11s\n",
		"dur", "name", "machine", "worker", "iter", "shard", "rows", "bytes")
	for _, s := range a.Slowest {
		name := s.Name
		if s.Sim {
			name += " (sim)"
		}
		fmt.Fprintf(w, "  %12s  %-20s%9d%8d%7d%7s%9d%11d\n",
			fmtDur(s.Duration()), name, s.Machine, s.Worker, s.Iter, fmtShard(s.Shard), s.Rows, s.Bytes)
	}

	fmt.Fprintln(w, "\nper-machine batches (straggler view):")
	fmt.Fprintf(w, "  %-9s%9s%12s%12s\n", "machine", "batches", "mean", "max")
	for _, m := range a.Machines {
		fmt.Fprintf(w, "  %-9d%9d%12s%12s\n", m.Machine, m.Batches, fmtDur(m.Mean), fmtDur(m.Max))
	}

	slow := slowestBatch(a)
	chain := span.CriticalPath(spans, slow)
	fmt.Fprintf(w, "\nslowest batch critical path (machine %d worker %d iter %d, %s):\n  ",
		slow.Machine, slow.Worker, slow.Iter, fmtDur(slow.Duration()))
	for i, s := range chain {
		if i > 0 {
			fmt.Fprint(w, " -> ")
		}
		fmt.Fprintf(w, "%s %s", s.Name, fmtDur(s.Duration()))
	}
	fmt.Fprintln(w)
	return nil
}

// slowestBatch returns the root span of the longest sampled batch.
func slowestBatch(a *span.Analysis) span.Span {
	idx := 0
	for i, b := range a.Batches {
		if b.Root.DurNS > a.Batches[idx].Root.DurNS {
			idx = i
		}
	}
	return a.Batches[idx].Root
}

// fmtDur renders durations compactly for tables (microsecond precision
// below a millisecond, otherwise 10µs precision).
func fmtDur(d time.Duration) string {
	if d < time.Millisecond {
		return d.Round(time.Microsecond).String()
	}
	return d.Round(10 * time.Microsecond).String()
}

// fmtShard renders a span's target shard, "-" when not applicable.
func fmtShard(shard int) string {
	if shard == span.NoShard {
		return "-"
	}
	return fmt.Sprintf("%d", shard)
}

// sparkline renders values as Unicode block characters, min-max scaled.
func sparkline(vals []float64) string {
	if len(vals) == 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var sb strings.Builder
	for _, v := range vals {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(blocks)-1))
		}
		sb.WriteRune(blocks[idx])
	}
	return sb.String()
}
