package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Sources say where a number comes from. Every time is either measured
// wall time or the netsim cost model's prediction.
const (
	srcMeasured  = "measured"         // benchmark timer around a public call
	srcProgram   = "program-recorded" // program span dump (measured by the program)
	srcPredicted = "netsim-predicted" // cost-model time, not wall time
	srcCount     = "count"            // counter, ratio or size; not a time
)

// metricDef describes one reported metric. The end-to-end list and the
// per-layer list must match BENCHMARK.json (see TestCatalogMatchesBenchmarkJSON).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end metrics only
	Source string
	// Moves names the end-to-end metric and workload a layer metric should
	// move (per-layer metrics only).
	Moves string
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Source: srcMeasured},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Source: srcMeasured},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Source: srcMeasured},
	{Name: "bytes_per_op", Unit: "B", Better: "lower", Bound: 0.1, Source: srcCount},
	{Name: "mrr", Unit: "ratio", Better: "higher", Bound: 0.15, Source: srcCount},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15, Source: srcMeasured},
}

// meaning says what each end-to-end metric measures on each kind of
// workload; the names in brackets are the names the metrics go by in the
// benchmark's design notes.
var meaning = map[string]map[string]string{
	"train": {
		"setup_s":          "median of 3 set-ups: dataset, split, partition (+ shard build on train-wire)",
		"throughput_per_s": "[triples_per_s] training triples per second of Run, median over Runs",
		"latency_p50_ms":   "typical batch time while training: mid-mean of 50 ms samples of the batch counter; excludes Run's set-up and eval",
		"bytes_per_op":     "[remote_bytes_per_triple] bytes across machine boundaries (Result.Traffic) per triple",
		"mrr":              "[final_mrr] filtered validation MRR after the epoch budget",
		"peak_rss_mb":      "high-water RSS during one Run, median over Runs",
	},
	"serve": {
		"setup_s":          "median of 3 set-ups: dataset, partition, checkpoint training, write, read, server start",
		"throughput_per_s": "completed requests per second on the overload rung (capacity)",
		"latency_p50_ms":   "[serve_p50_ms] request latency from due time at the nominal rate",
		"bytes_per_op":     "HTTP socket bytes (both directions) per request",
		"mrr":              "filtered validation MRR of the served checkpoint's tables",
		"peak_rss_mb":      "high-water RSS of the ladder (after set-up and warm-up)",
	},
}

var perLayer = []metricDef{
	{"dataset.gen_s", "s", "lower", 0, srcMeasured, "setup_s, all workloads"},
	{"artifact.hits", "count", "higher", 0, srcCount, "setup_s, all workloads"},
	{"artifact.misses", "count", "lower", 0, srcCount, "setup_s, all workloads"},
	{"partition.s", "s", "lower", 0, srcMeasured, "setup_s, all workloads"},
	{"partition.cut_share", "ratio", "lower", 0, srcCount, "bytes_per_op, train-*"},
	{"sampler.ms_per_batch", "ms", "lower", 0, srcProgram, "throughput_per_s, train-* alike"},
	{"cache.hit_ratio", "ratio", "higher", 0, srcCount, "bytes_per_op, train-hot (0 on train-wire)"},
	{"cache.refresh_rows_per_batch", "rows", "lower", 0, srcCount, "bytes_per_op, train-hot (0 on train-wire)"},
	{"cache.lookup_ms_per_batch", "ms", "lower", 0, srcProgram, "throughput_per_s, train-hot only"},
	{"cache.refresh_ms_per_batch", "ms", "lower", 0, srcProgram, "throughput_per_s, train-hot only"},
	{"train.batch_ms.p50", "ms", "lower", 0, srcProgram, "throughput_per_s, mostly train-hot"},
	{"train.batch_ms.p99", "ms", "lower", 0, srcProgram, "throughput_per_s, mostly train-hot"},
	{"train.grad_ms_per_batch", "ms", "lower", 0, srcProgram, "throughput_per_s, mostly train-hot"},
	{"train.unattributed_share", "ratio", "lower", 0, srcProgram, "diagnostic only"},
	{"ps.pull_ms.p50", "ms", "lower", 0, srcProgram, "throughput_per_s, train-wire"},
	{"ps.pull_ms.p99", "ms", "lower", 0, srcProgram, "throughput_per_s, train-wire"},
	{"ps.push_ms.p50", "ms", "lower", 0, srcProgram, "throughput_per_s, train-wire"},
	{"ps.push_ms.p99", "ms", "lower", 0, srcProgram, "throughput_per_s, train-wire"},
	{"ps.rpcs_per_batch", "count", "lower", 0, srcCount, "throughput_per_s, train-wire"},
	{"ps.rows_per_triple", "rows", "lower", 0, srcCount, "bytes_per_op, train-*"},
	{"ps.link.retries", "count", "lower", 0, srcCount, "failed, train-wire"},
	{"ps.link.failures", "count", "lower", 0, srcCount, "failed, train-wire"},
	{"ps.codec.ratio", "ratio", "higher", 0, srcCount, "bytes_per_op, train-wire (1.0 on train-hot)"},
	{"ps.codec.encode_ms_per_batch", "ms", "lower", 0, srcProgram, "throughput_per_s, train-wire"},
	{"wire.tcp_ms.p50", "ms", "lower", 0, srcProgram, "throughput_per_s, train-wire"},
	{"wire.tcp_ms.p99", "ms", "lower", 0, srcProgram, "throughput_per_s, train-wire"},
	{"wire.tcp_s", "s", "lower", 0, srcProgram, "throughput_per_s, train-wire (measured beside netsim.comm_s)"},
	{"wire.socket_bytes_per_triple", "B", "lower", 0, srcCount, "bytes_per_op, train-wire (0 on train-hot)"},
	{"shard.pull_ms_per_batch", "ms", "lower", 0, srcProgram, "throughput_per_s, train-* alike"},
	{"shard.apply_ms_per_batch", "ms", "lower", 0, srcProgram, "throughput_per_s, train-* alike"},
	{"netsim.comm_s", "s", "lower", 0, srcPredicted, "none: the cost model's prediction, beside wire.tcp_s"},
	{"netsim.bytes_error", "ratio", "lower", 0, srcCount, "accuracy of bytes_per_op, train-wire"},
	{"eval.s", "s", "lower", 0, srcMeasured, "throughput_per_s, train-*"},
	{"ckpt.write_s", "s", "lower", 0, srcMeasured, "setup_s, serve-zipf"},
	{"ckpt.read_s", "s", "lower", 0, srcMeasured, "setup_s, serve-zipf"},
	{"serve.score_us.p50", "us", "lower", 0, srcMeasured, "loadgen.latency_ms.p99 and throughput_per_s, serve-zipf"},
	{"serve.score_us.p99", "us", "lower", 0, srcMeasured, "loadgen.latency_ms.p99 and throughput_per_s, serve-zipf"},
	{"serve.predict_ms.p50", "ms", "lower", 0, srcMeasured, "loadgen.latency_ms.p99 and throughput_per_s, serve-zipf"},
	{"serve.predict_ms.p99", "ms", "lower", 0, srcMeasured, "loadgen.latency_ms.p99 and throughput_per_s, serve-zipf"},
	{"serve.neighbors_ms.p50", "ms", "lower", 0, srcMeasured, "loadgen.latency_ms.p99 and throughput_per_s, serve-zipf"},
	{"serve.neighbors_ms.p99", "ms", "lower", 0, srcMeasured, "loadgen.latency_ms.p99 and throughput_per_s, serve-zipf"},
	{"serve.score.time_share", "ratio", "lower", 0, srcMeasured, "which path serve-zipf weighs: score endpoint's share of server time"},
	{"serve.predict.time_share", "ratio", "lower", 0, srcMeasured, "which path serve-zipf weighs: predict endpoint's share of server time"},
	{"serve.neighbors.time_share", "ratio", "lower", 0, srcMeasured, "which path serve-zipf weighs: neighbors endpoint's share of server time"},
	{"serve.http_overhead_ms.p50", "ms", "lower", 0, srcMeasured, "latency_p50_ms, serve-zipf"},
	{"serve.batch_size.mean", "count", "higher", 0, srcCount, "throughput_per_s, serve-zipf"},
	{"serve.cache.hit_ratio", "ratio", "higher", 0, srcCount, "latency_p50_ms, serve-zipf (small: us lookups beside ms sweeps)"},
	{"serve.max_rps", "1/s", "higher", 0, srcMeasured, "throughput_per_s, serve-zipf (ladder rung, p99 within limit)"},
	{"knn.search_ms.p50", "ms", "lower", 0, srcMeasured, "loadgen.latency_ms.p99, serve-zipf (neighbors share)"},
	{"knn.search_ms.p99", "ms", "lower", 0, srcMeasured, "loadgen.latency_ms.p99, serve-zipf (neighbors share)"},
	{"loadgen.lag_ms.p99", "ms", "lower", 0, srcMeasured, "self-check: generator lateness at the nominal rate"},
	{"loadgen.latency_ms.p99", "ms", "lower", 0, srcMeasured, "[serve_p99_ms] request p99 from due time at the nominal rate; ungated"},
	{"trace.overhead_share", "ratio", "lower", 0, srcMeasured, "self-check: traced over untraced time"},
}

// report collects one run's results.
type report struct {
	E2E       map[string]float64
	Layers    map[string]float64
	Attempted int64
	Failed    int64
	Checks    []check
	Notes     []string
}

type check struct {
	Name   string
	OK     bool
	Detail string
}

func newReport() *report {
	return &report{E2E: map[string]float64{}, Layers: map[string]float64{}}
}

// expect records a named output check.
func (r *report) expect(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// sameAcrossReps checks that a count metric repeats exactly across runs of
// one seed.
func (r *report) sameAcrossReps(name string, vals []float64) {
	ok := true
	for _, v := range vals[1:] {
		if math.Float64bits(v) != math.Float64bits(vals[0]) {
			ok = false
		}
	}
	r.expect("repeat "+name, ok, "%d runs of one seed: %v", len(vals), vals)
}

func (r *report) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints the human-readable table and then, as the last line, the
// JSON result with the end-to-end metrics (trace=false) or the per-layer
// metrics (trace=true).
func (r *report) write(w io.Writer, kind string, trace bool) error {
	defs, vals := endToEnd, r.E2E
	if trace {
		defs, vals = perLayer, r.Layers
	}
	res := jsonResult{Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]jsonMetric{}}
	if res.Attempted < 1 {
		res.Attempted = 1
		r.expect("attempted", false, "no operation was attempted")
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.expect("metric "+d.Name, false, "missing or not finite: %v", v)
			v = 0
		}
		res.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
		desc := d.Moves
		if !trace {
			desc = meaning[kind][d.Name]
		}
		fmt.Fprintf(w, "%-30s %14.6g %-6s %-16s %s\n", d.Name, v, d.Unit, "["+d.Source+"]", desc)
	}
	share := ratio(float64(r.Failed), float64(r.Attempted))
	fmt.Fprintf(w, "%-30s %14.6g %-6s %-16s %d failed of %d attempted\n", "failed_share", share, "ratio", "[count]", r.Failed, r.Attempted)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, c := range r.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "check %s %s: %s\n", status, c.Name, c.Detail)
	}
	res.Correct = r.correct()
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
