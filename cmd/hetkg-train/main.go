// hetkg-train runs one distributed KGE training job and reports per-epoch
// progress, the final link-prediction metrics, and the time/traffic
// breakdown.
//
// Usage:
//
//	hetkg-train -dataset fb15k -system hetkg-d -model transe -machines 4 -epochs 5
//
// The experiment-semantic flags (dataset, model, cache, codec, ...) are the
// shared plan surface (internal/plan.BindFlags) — identical names, defaults,
// and mapping as plan-file `run:` keys — so hetkg-train and `hetkg apply`
// cannot drift. The flags below them here are deployment concerns (shards,
// checkpoints, observability) that plans never configure.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hetkg"
	"hetkg/internal/artifact"
	"hetkg/internal/plan"
)

func main() {
	spec := plan.BindFlags(flag.CommandLine)
	var (
		inFile   = flag.String("in", "", "train on TSV triples from this file instead of a preset")
		save     = flag.String("save", "", "write the trained embeddings to this checkpoint file")
		load     = flag.String("load", "", "resume training from this checkpoint file")
		shards   = flag.String("shards", "", "comma-separated hetkg-ps addresses (one per machine) for a multi-process run")
		join     = flag.String("join", "", "coordinator address for an elastic cluster run (shard fleet is discovered from the join reply; see OPERATIONS.md)")
		hbEvery  = flag.Duration("heartbeat-interval", 0, "override the coordinator-advertised heartbeat cadence (with -join)")
		ckptDir  = flag.String("ckpt-dir", "", "write per-partition progress snapshots to this directory for crash recovery (with -join)")
		ckptN    = flag.Int("ckpt-every", 0, "iterations between progress snapshots (0 = 16; with -join)")
		recoverD = flag.String("recover-from", "", "read adopted partitions' progress snapshots from this directory (default: -ckpt-dir)")
		rpcTO    = flag.Duration("rpc-timeout", 0, "per-attempt deadline on remote-shard RPCs (0 = default 10s, negative disables)")
		rpcRetry = flag.Int("rpc-retries", 0, "retry budget per remote-shard RPC after a link failure (0 = default 3, negative disables)")
		degStale = flag.Int("degraded-max-staleness", 0, "ride out shard outages by serving cached rows up to this many iterations stale and buffering pushes for replay (0 = fail fast; hetkg-c/hetkg-d only)")
		artDir   = flag.String("artifacts", "", "serve dataset generation and partitioning from this content-addressed cache directory")
		timeline = flag.String("timeline", "", "write a JSONL timeline (iteration and end-of-epoch records) to this file")
		tlEvery  = flag.Int("timeline-every", 0, "iterations between timeline records (0 = default)")
		spanOut  = flag.String("span", "", "trace every Nth batch per worker and write the spans to this file")
		spanN    = flag.Int("span-every", 0, "batch sampling interval for -span (0 = default 16)")
		spanFmt  = flag.String("span-format", "jsonl", "span output format: jsonl (hetkg-spans/v1) | chrome (Perfetto trace-event JSON)")
		metAddr  = flag.String("metrics-addr", "", "serve live metrics + pprof on this address (e.g. 127.0.0.1:6060; unauthenticated, loopback only unless -metrics-allow-remote)")
		metAllow = flag.Bool("metrics-allow-remote", false, "allow -metrics-addr to bind non-loopback addresses (exposes unauthenticated pprof)")
		machine  = flag.Int("machine", -1, "run only this machine's workers (-1 = all; requires -shards for a real deployment)")
	)
	flag.Parse()

	rc, err := spec.RunConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var custom *hetkg.Graph
	if *inFile != "" {
		f, err := os.Open(*inFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "open:", err)
			os.Exit(1)
		}
		custom, _, err = hetkg.ReadTSV(f, *inFile)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "parse:", err)
			os.Exit(1)
		}
		spec.Dataset = *inFile
		rc.Dataset = *inFile
	}

	var shardAddrs []string
	if *shards != "" {
		shardAddrs = strings.Split(*shards, ",")
	}
	var resume *hetkg.Checkpoint
	if *load != "" {
		var err error
		resume, err = hetkg.ReadCheckpoint(*load)
		if err != nil {
			fmt.Fprintln(os.Stderr, "load:", err)
			os.Exit(1)
		}
		fmt.Printf("resuming from %s (model=%s epochs=%d)\n", *load, resume.ModelName, resume.Epochs)
	}

	reg := hetkg.NewMetricsRegistry()
	if *metAddr != "" {
		var opts []hetkg.ServeOption
		if *metAllow {
			opts = append(opts, hetkg.MetricsAllowRemote())
		}
		srv, err := hetkg.ServeMetrics(*metAddr, reg, opts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "metrics:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("metrics: serving http://%s/metrics (+ /debug/pprof)\n", srv.Addr())
	}

	if *artDir != "" {
		st, err := artifact.Open(*artDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "artifacts:", err)
			os.Exit(1)
		}
		rc.Artifacts = st
	}

	// Overlay the deployment-specific configuration onto the shared spec.
	rc.Graph = custom
	rc.ShardAddrs = shardAddrs
	rc.JoinAddr = *join
	rc.HeartbeatInterval = *hbEvery
	rc.CkptDir = *ckptDir
	rc.RecoverFrom = *recoverD
	rc.CkptEvery = *ckptN
	rc.ClusterLogf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	rc.RPCTimeout = *rpcTO
	rc.RPCRetries = *rpcRetry
	rc.DegradedMaxStaleness = *degStale
	rc.Resume = resume
	rc.LocalMachines = localMachines(*machine)
	rc.Metrics = reg
	rc.TimelinePath = *timeline
	rc.TimelineEvery = *tlEvery
	rc.SpanPath = *spanOut
	rc.SpanEvery = *spanN
	rc.SpanFormat = *spanFmt

	res, err := hetkg.Run(rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "train:", err)
		os.Exit(1)
	}

	fmt.Printf("system=%s dataset=%s scale=%s model=%s machines=%d seed=%d\n",
		res.System, spec.Dataset, spec.Scale, spec.Model, spec.Machines, spec.Seed)
	for _, e := range res.Epochs {
		fmt.Printf("epoch %2d  loss %.4f  mrr %.3f  comp %v  comm %v  hit %.3f\n",
			e.Epoch, e.Loss, e.MRR, e.Comp.Round(1e6), e.Comm.Round(1e6), e.HitRatio)
	}
	fmt.Printf("final: %s\n", res.Final)
	fmt.Printf("time: comp %v + comm %v = %v (simulated cluster time)\n",
		res.Comp.Round(1e6), res.Comm.Round(1e6), res.Total().Round(1e6))
	fmt.Printf("traffic: %s\n", res.Traffic)
	if res.HitRatio > 0 {
		fmt.Printf("cache: hit ratio %.3f, refreshed rows %d\n", res.HitRatio, res.RefreshRows)
	}
	if *timeline != "" {
		fmt.Printf("timeline written to %s\n", *timeline)
	}
	if *spanOut != "" {
		fmt.Printf("spans written to %s (%s format)\n", *spanOut, *spanFmt)
		if *spanFmt == "chrome" {
			fmt.Println("open in https://ui.perfetto.dev or chrome://tracing")
		} else {
			fmt.Printf("analyze with: hetkg-trace spans %s\n", *spanOut)
		}
	}
	if *save != "" {
		err := hetkg.WriteCheckpoint(*save, &hetkg.Checkpoint{
			ModelName: spec.Model,
			Dim:       res.Entities.Dim,
			Dataset:   spec.Dataset,
			Seed:      spec.Seed,
			Epochs:    len(res.Epochs),
			System:    res.System,
			Entities:  res.Entities,
			Relations: res.Relations,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "save:", err)
			os.Exit(1)
		}
		fmt.Printf("checkpoint written to %s\n", *save)
	}
}

// localMachines converts the -machine flag to a machine filter.
func localMachines(m int) []int {
	if m < 0 {
		return nil
	}
	return []int{m}
}
