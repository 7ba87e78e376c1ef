package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"hetkg/internal/artifact"
	"hetkg/internal/core"
	"hetkg/internal/dataset"
	"hetkg/internal/eval"
	"hetkg/internal/kg"
	"hetkg/internal/metrics"
	"hetkg/internal/model"
	"hetkg/internal/partition"
	"hetkg/internal/ps"
	"hetkg/internal/span"
	"hetkg/internal/train"
	"hetkg/internal/vec"
)

// Fixed training configuration shared by every workload.
const (
	// graphTriples is how many triples of the paper-scale FB15k-like graph
	// (14,951 entities, 1,345 relations) a run trains on: the generator's
	// first triples (one per entity and per relation, then its Zipf bulk),
	// sized so one epoch fits the run budget several times over.
	graphTriples = 120000
	trainDim     = 32
	machines     = 2 // one worker each
	parallelism  = 2
	evalCands    = 100
	evalMax      = 5000 // of the 6000 validation triples
	minReps      = 3
	// batchPoll is how often a timed Run's batch counter is sampled to time
	// its batches from outside.
	batchPoll = 50 * time.Millisecond
)

type trainSpec struct {
	System core.System
	Codec  string
	// Wire hosts the shards behind benchmark-owned loopback TCP listeners.
	Wire bool
}

var trainSpecs = map[string]trainSpec{
	"train-hot":  {System: core.SystemHETKGD},
	"train-wire": {System: core.SystemDGLKE, Codec: ps.ProfileDeltaInt8, Wire: true},
}

// paperGraph generates the paper-scale FB15k-like graph for seed and keeps
// its first n triples.
func paperGraph(seed int64, n int) (*kg.Graph, error) {
	full := dataset.FB15kLike(dataset.Paper, seed)
	return kg.NewGraph(full.Name, full.NumEntity, full.NumRel, full.Triples[:n])
}

// splitOf reproduces core.Run's train/valid/test split.
func splitOf(g *kg.Graph, seed int64) (kg.Split, error) {
	return kg.SplitTriples(g, rand.New(rand.NewSource(seed+17)), 0.05, 0.05)
}

func runConfig(g *kg.Graph, sys core.System, seed int64) core.RunConfig {
	return core.RunConfig{
		Graph: g, Dataset: "fb15k", Scale: dataset.Paper, System: sys, ModelName: "transe",
		Dim: trainDim, Epochs: 1, Machines: machines, WorkersPerMachine: 1,
		EvalCandidates: evalCands, EvalMax: evalMax, Parallelism: parallelism, Seed: seed,
	}
}

// graphSetup is the set-up every workload shares: dataset generation, the
// split, and the partition, warmed into a fresh artifact store so the timed
// Run finds it there.
type graphSetup struct {
	graph   *kg.Graph
	split   kg.Split
	store   *artifact.Store
	dir     string
	cut     float64
	genDur  time.Duration
	partDur time.Duration
}

func setupGraph(seed int64, dir string, rec *recorder) (*graphSetup, error) {
	gs := &graphSetup{dir: dir}
	var err error
	gs.genDur, err = rec.timed("bench.setup.dataset", func() error {
		if gs.graph, err = paperGraph(seed, graphTriples); err != nil {
			return err
		}
		gs.split, err = splitOf(gs.graph, seed)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	gs.partDur, err = rec.timed("bench.setup.partition", func() error {
		if gs.store, err = artifact.Open(dir); err != nil {
			return err
		}
		p, err := partition.New("metis", seed)
		if err != nil {
			return err
		}
		pr, err := partition.Cached(p, gs.store).Partition(gs.split.Train, machines)
		if err != nil {
			return err
		}
		gs.cut = pr.CutFraction(gs.split.Train)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	return gs, nil
}

// hostedShard is one parameter-server shard the benchmark serves on a
// counting loopback listener.
type hostedShard struct {
	l    *countingListener
	acc  *ps.Acceptor
	done chan struct{}
}

func hostShard(s *ps.Server) (*hostedShard, error) {
	l, err := listenCounting("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &hostedShard{l: l, acc: &ps.Acceptor{}, done: make(chan struct{})}
	go func() {
		defer close(h.done)
		h.acc.Serve(l, s)
	}()
	return h, nil
}

func (h *hostedShard) close() {
	h.l.Close()
	<-h.done
	h.acc.Shutdown(0) // Run has returned; its transport leaves the connections open
}

// trainEnv is a prepared training run: the set-up's graph and artifact
// store, a fresh registry and, on train-wire, freshly built hosted shards.
type trainEnv struct {
	spec   trainSpec
	seed   int64
	gs     *graphSetup
	rc     core.RunConfig
	reg    *metrics.Registry
	coll   *span.Collector
	shards []*hostedShard
}

// prepare readies e for one Run. Shards hold the trained state, so every
// Run on train-wire gets new ones. With traced set, the Run writes its span
// dump (every batch) to spanPath and the shards record into a benchmark
// collector.
func (e *trainEnv) prepare(traced bool, spanPath string) error {
	e.closeShards()
	e.reg = metrics.NewRegistry()
	e.rc = runConfig(e.gs.graph, e.spec.System, e.seed)
	e.rc.Artifacts, e.rc.Codec, e.rc.Metrics = e.gs.store, e.spec.Codec, e.reg
	e.coll = nil
	if traced {
		e.rc.SpanPath, e.rc.SpanEvery = spanPath, 1
		e.coll = span.NewCollector(span.CollectorConfig{Every: 1, Capacity: 1 << 16})
	}
	if !e.spec.Wire {
		return nil
	}
	for m := 0; m < machines; m++ {
		s, err := core.BuildShard(e.rc, m)
		if err != nil {
			return fmt.Errorf("shard %d: %w", m, err)
		}
		s.Instrument(e.reg)
		if e.coll != nil {
			s.Trace(e.coll.Tracer(m, span.WorkerShard))
		}
		h, err := hostShard(s)
		if err != nil {
			return err
		}
		e.shards = append(e.shards, h)
		e.rc.ShardAddrs = append(e.rc.ShardAddrs, h.l.Addr().String())
	}
	return nil
}

func (e *trainEnv) closeShards() {
	for _, h := range e.shards {
		h.close()
	}
	e.shards = nil
}

func (e *trainEnv) close() {
	e.closeShards()
	os.RemoveAll(e.gs.dir)
}

// setupTrain makes one full set-up: dataset, split, partition and, on
// train-wire, the hosted shards.
func setupTrain(spec trainSpec, seed int64, dir string, rec *recorder) (*trainEnv, time.Duration, error) {
	start := time.Now()
	gs, err := setupGraph(seed, dir, rec)
	if err != nil {
		return nil, 0, err
	}
	e := &trainEnv{spec: spec, seed: seed, gs: gs}
	name := "bench.setup.config"
	if spec.Wire {
		name = "bench.setup.shards"
	}
	if _, err := rec.timed(name, func() error { return e.prepare(false, "") }); err != nil {
		e.close()
		return nil, 0, err
	}
	d := time.Since(start)
	rec.add("bench.setup", start, d, false, 0)
	return e, d, nil
}

// trainRep is one timed Run.
type trainRep struct {
	wall    time.Duration
	batchMS []float64 // batch time of each batchPoll window that trained
	peakMB  float64   // high-water RSS during the Run
	res     *train.Result
	// counters holds the run registry's values of trainCounters. The
	// ps.tcp.* series are the shards' own socket counts: the hosted shards
	// and the in-process ones core.Run builds both publish into the registry.
	counters map[string]float64
	// socketBytes is the shards' ps.tcp byte count; listenerBytes is the
	// same traffic counted by the benchmark's listeners (train-wire only).
	socketBytes, listenerBytes float64
	spans                      []span.Span // traced rep only
}

var trainCounters = []string{
	metrics.MTrainIterations, metrics.MPSPullRPCs, metrics.MPSPushRPCs,
	metrics.MPSPullRows, metrics.MPSPushRows, metrics.MPSCodecBytesRaw,
	metrics.MPSCodecBytesWire, metrics.MPSServerPulls,
	metrics.MPSTCPConns, metrics.MPSTCPRxBytes, metrics.MPSTCPTxBytes,
	metrics.MPSLinkRetries, metrics.MPSLinkReconnects, metrics.MPSLinkFailures,
	metrics.MPSLinkDeadlineExceeded, metrics.MPSLinkBreakerTrips,
}

// wireCounters must all read 0 when no byte touches a socket.
var wireCounters = []string{
	metrics.MPSTCPConns, metrics.MPSTCPRxBytes, metrics.MPSTCPTxBytes,
	metrics.MPSLinkRetries, metrics.MPSLinkReconnects, metrics.MPSLinkFailures,
	metrics.MPSLinkDeadlineExceeded, metrics.MPSLinkBreakerTrips,
}

// pollBatchMS samples c, the run's batch counter, every batchPoll until stop
// closes, and returns the wall time per batch of each window in which
// batches completed. Workers take turns, so that is one batch's time. The
// first and last such windows are partial and dropped; set-up and the final
// evaluation inside Run complete no batches, so no window covers them.
func pollBatchMS(c *metrics.Counter, stop <-chan struct{}) []float64 {
	t := time.NewTicker(batchPoll)
	defer t.Stop()
	var out []float64
	last, lastT := c.Value(), time.Now()
	for {
		select {
		case <-stop:
			if len(out) < 3 {
				return nil
			}
			return out[1 : len(out)-1]
		case now := <-t.C:
			v := c.Value()
			if n := v - last; n > 0 {
				out = append(out, ms(now.Sub(lastT))/float64(n))
			}
			last, lastT = v, now
		}
	}
}

func (e *trainEnv) run(rec *recorder) (*trainRep, error) {
	rep := &trainRep{}
	stop, polled := make(chan struct{}), make(chan []float64)
	go func() { polled <- pollBatchMS(e.reg.Counter(metrics.MTrainIterations), stop) }()
	var err error
	rep.wall, err = rec.timed("bench.run", func() error {
		rep.res, err = core.Run(e.rc)
		return err
	})
	close(stop)
	rep.batchMS = <-polled
	// Closing the hosted shards waits for their connection handlers, so
	// the socket counts read below are final.
	shards := e.shards
	e.closeShards()
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	rep.counters = map[string]float64{}
	for _, name := range trainCounters {
		rep.counters[name] = float64(e.reg.Counter(name).Value())
	}
	rep.socketBytes = rep.counters[metrics.MPSTCPRxBytes] + rep.counters[metrics.MPSTCPTxBytes]
	for _, h := range shards {
		rep.listenerBytes += float64(h.l.Bytes())
	}
	rec.add("bench.netsim.comm", time.Now(), rep.res.Comm, true, 0)
	if e.rc.SpanPath != "" {
		dump, err := span.ReadFile(e.rc.SpanPath)
		if err != nil {
			return nil, err
		}
		rep.spans = append(dump.Spans, offsetIDs(e.coll.Drain(), false)...)
	}
	return rep, nil
}

// evaluate scores the validation split with the run's eval settings.
func evaluate(gs *graphSetup, ents, rels *vec.Matrix, seed int64) (eval.Result, error) {
	mdl, err := model.New("transe")
	if err != nil {
		return eval.Result{}, err
	}
	valid := gs.split.Valid.Triples
	if len(valid) > evalMax {
		valid = valid[:evalMax]
	}
	return eval.Evaluate(eval.Config{
		Model: mdl, Entities: ents, Relations: rels, Filter: gs.split.AllTriples(),
		NumCandidates: evalCands, Seed: seed + 1000, Parallelism: parallelism,
	}, valid)
}

// untrainedMRR evaluates the model the run starts from: the shards'
// initial rows, read through BuildShard.
func untrainedMRR(rc core.RunConfig, gs *graphSetup, seed int64) (float64, error) {
	mdl, err := model.New(rc.ModelName)
	if err != nil {
		return 0, err
	}
	ents := vec.NewMatrix(gs.graph.NumEntity, mdl.EntityDim(rc.Dim))
	rels := vec.NewMatrix(gs.graph.NumRel, mdl.RelationDim(rc.Dim))
	for m := 0; m < rc.Machines; m++ {
		s, err := core.BuildShard(rc, m)
		if err != nil {
			return 0, err
		}
		keys := s.Keys()
		vals, err := s.Pull(keys)
		if err != nil {
			return 0, err
		}
		off := 0
		for _, k := range keys {
			w := s.Width(k)
			dst := ents
			id := int(k.Entity())
			if k.IsRelation() {
				dst, id = rels, int(k.Relation())
			}
			copy(dst.Row(id), vals[off:off+w])
			off += w
		}
	}
	ev, err := evaluate(gs, ents, rels, seed)
	return ev.MRR, err
}

// runTrain runs a training workload: minReps full set-ups, then timed
// Runs until the budget is spent (at least minReps). A traced run makes one
// untraced and one traced Run instead.
func runTrain(name string, seed int64, budget time.Duration, traced bool, dir string, rec *recorder, r *report) ([]span.Span, error) {
	spec := trainSpecs[name]
	var setups, gens, parts []float64
	var env *trainEnv
	defer func() {
		if env != nil {
			env.close()
		}
	}()
	for i := 0; i < minReps; i++ {
		if env != nil {
			env.close()
		}
		var d time.Duration
		var err error
		if env, d, err = setupTrain(spec, seed, filepath.Join(dir, fmt.Sprintf("setup%d", i)), rec); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		gens = append(gens, env.gs.genDur.Seconds())
		parts = append(parts, env.gs.partDur.Seconds())
	}
	gs := env.gs
	triples := float64(gs.split.Train.NumTriples() * env.rc.Epochs)

	var reps []*trainRep
	var evalDur time.Duration
	var evalMRR, untrained float64
	var artHits, artMisses int64
	start := time.Now()
	for i := 0; ; i++ {
		doTrace := traced && i == 1
		if i > 0 {
			if err := env.prepare(doTrace, filepath.Join(dir, "program.spans.jsonl")); err != nil {
				return nil, err
			}
		}
		resetPeakRSS()
		rep, err := env.run(rec)
		if err != nil {
			return nil, err
		}
		rep.peakMB = peakRSSMB()
		reps = append(reps, rep)
		if i == 0 {
			artHits, artMisses = gs.store.Hits(), gs.store.Misses()
			evalDur, err = rec.timed("bench.eval", func() error {
				ev, err := evaluate(gs, rep.res.Entities, rep.res.Relations, seed)
				evalMRR = ev.MRR
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("eval: %w", err)
			}
			if untrained, err = untrainedMRR(env.rc, gs, seed); err != nil {
				return nil, fmt.Errorf("untrained reference: %w", err)
			}
			start = time.Now() // the checks above are not part of the budget
		}
		if traced && i == 1 {
			break
		}
		if !traced && i+1 >= minReps && time.Since(start) >= budget {
			break
		}
	}

	var batchMS, peaks, rates, mrrs, bytesPer, hits, codecRatios, losses []float64
	finite := true
	for _, rep := range reps {
		res := rep.res
		mrrs = append(mrrs, res.Final.MRR)
		bytesPer = append(bytesPer, float64(res.Traffic.RemoteBytes)/triples)
		hits = append(hits, res.HitRatio)
		codecRatios = append(codecRatios, codecRatio(rep.counters))
		if len(rep.spans) == 0 {
			batchMS = append(batchMS, rep.batchMS...)
			peaks = append(peaks, rep.peakMB)
			rates = append(rates, triples/rep.wall.Seconds())
		}
		loss := math.NaN()
		if n := len(res.Epochs); n > 0 {
			loss = res.Epochs[n-1].Loss
		}
		losses = append(losses, loss)
		finite = finite && !math.IsNaN(loss) && !math.IsInf(loss, 0)
		r.Attempted += int64(rep.counters[metrics.MPSPullRPCs] + rep.counters[metrics.MPSPushRPCs])
		r.Failed += int64(rep.counters[metrics.MPSLinkFailures])
	}
	base := reps[0]
	mrr := mrrs[0]
	r.expect("finite loss", finite, "final epoch loss per Run %v", losses)
	r.expect("eval reproduces Run's MRR", evalMRR == mrr, "eval.Evaluate %.6f vs Result.Final.MRR %.6f", evalMRR, mrr)
	r.expect("trained beats untrained", mrr > untrained, "final_mrr %.4f vs untrained %.4f", mrr, untrained)
	r.sameAcrossReps("final_mrr", mrrs)
	r.sameAcrossReps("remote_bytes_per_triple", bytesPer)
	r.sameAcrossReps("cache.hit_ratio", hits)
	r.sameAcrossReps("ps.codec.ratio", codecRatios)

	r.E2E["setup_s"] = median(setups)
	r.E2E["throughput_per_s"] = median(rates)
	// Each window holds a whole number of batches, so its batch time is
	// quantized; the mid-mean keeps the median's robustness to DPS rebuild
	// stalls without the quantization step.
	r.E2E["latency_p50_ms"] = midMean(batchMS)
	r.E2E["bytes_per_op"] = bytesPer[0]
	r.E2E["mrr"] = mrr
	r.E2E["peak_rss_mb"] = median(peaks)
	r.note("%d set-ups, %d Runs; untrained mrr %.4f; %d training triples per Run", len(setups), len(reps), untrained, int(triples))

	iters := base.counters[metrics.MTrainIterations]
	L := r.Layers
	L["dataset.gen_s"] = median(gens)
	L["partition.s"] = median(parts)
	L["partition.cut_share"] = gs.cut
	L["artifact.hits"] = float64(artHits)
	L["artifact.misses"] = float64(artMisses)
	L["cache.hit_ratio"] = base.res.HitRatio
	L["cache.refresh_rows_per_batch"] = ratio(float64(base.res.RefreshRows), iters)
	L["ps.rpcs_per_batch"] = ratio(base.counters[metrics.MPSPullRPCs]+base.counters[metrics.MPSPushRPCs], iters)
	L["ps.rows_per_triple"] = ratio(base.counters[metrics.MPSPullRows]+base.counters[metrics.MPSPushRows], triples)
	L["ps.link.retries"] = base.counters[metrics.MPSLinkRetries]
	L["ps.link.failures"] = base.counters[metrics.MPSLinkFailures]
	L["ps.codec.ratio"] = codecRatios[0]
	L["wire.socket_bytes_per_triple"] = base.socketBytes / triples
	L["netsim.comm_s"] = base.res.Comm.Seconds()
	priced := float64(base.res.Traffic.LocalBytes + base.res.Traffic.RemoteBytes)
	L["netsim.bytes_error"] = ratio(priced-base.socketBytes, base.socketBytes)
	L["eval.s"] = evalDur.Seconds()

	r.expect("shards publish into the run's registry", base.counters[metrics.MPSServerPulls] > 0,
		"%s = %.0f", metrics.MPSServerPulls, base.counters[metrics.MPSServerPulls])
	if spec.Wire {
		r.expect("bypass: no cache on train-wire", base.res.HitRatio == 0 && base.res.RefreshRows == 0,
			"hit ratio %v, refresh rows %d", base.res.HitRatio, base.res.RefreshRows)
		r.expect("shards' socket count equals the listeners'", base.socketBytes > 0 && base.socketBytes == base.listenerBytes,
			"%s+%s = %.0f bytes, listeners %.0f bytes", metrics.MPSTCPRxBytes, metrics.MPSTCPTxBytes, base.socketBytes, base.listenerBytes)
	} else {
		var wire []string
		for _, name := range wireCounters {
			if base.counters[name] != 0 {
				wire = append(wire, fmt.Sprintf("%s = %.0f", name, base.counters[name]))
			}
		}
		r.expect("bypass: no socket traffic on train-hot", len(wire) == 0, "non-zero: %v", wire)
		r.expect("bypass: codec ratio 1.0 on train-hot", codecRatios[0] == 1, "%v", codecRatios[0])
	}

	if !traced {
		return nil, nil
	}
	plain, tr := reps[0], reps[1]
	L["trace.overhead_share"] = ratio(tr.wall.Seconds()-plain.wall.Seconds(), plain.wall.Seconds())
	w := newWindow(tr.spans, span.NBatch)
	r.note("traced rep: %d complete batches in the span window of %d spans", len(w.roots), len(tr.spans))
	L["sampler.ms_per_batch"] = w.perRoot(span.NNegSample)
	L["cache.lookup_ms_per_batch"] = w.perRoot(span.NCacheLookup)
	L["cache.refresh_ms_per_batch"] = w.perRoot(span.NCacheRefresh)
	L["train.batch_ms.p50"] = quantile(w.rootMS(), 0.5)
	L["train.batch_ms.p99"] = quantile(w.rootMS(), 0.99)
	L["train.grad_ms_per_batch"] = w.perRoot(span.NGradCompute)
	L["train.unattributed_share"] = w.unattributed()
	L["ps.pull_ms.p50"] = quantile(w.durMS(span.NPSPull), 0.5)
	L["ps.pull_ms.p99"] = quantile(w.durMS(span.NPSPull), 0.99)
	L["ps.push_ms.p50"] = quantile(w.durMS(span.NPSPush), 0.5)
	L["ps.push_ms.p99"] = quantile(w.durMS(span.NPSPush), 0.99)
	L["ps.codec.encode_ms_per_batch"] = w.perRoot(span.NEncode)
	L["wire.tcp_ms.p50"] = quantile(w.durMS(span.NWireTCP), 0.5)
	L["wire.tcp_ms.p99"] = quantile(w.durMS(span.NWireTCP), 0.99)
	// The window covers the run's last batches; scale its per-batch wire
	// time to the whole run to set it beside netsim.comm_s.
	L["wire.tcp_s"] = w.perRoot(span.NWireTCP) * tr.counters[metrics.MTrainIterations] / 1000
	L["shard.pull_ms_per_batch"] = w.perRoot(span.NShardPull)
	L["shard.apply_ms_per_batch"] = w.perRoot(span.NShardApply)
	return tr.spans, nil
}

// codecRatio is raw over wire payload bytes; 1.0 when no codec layer ran.
func codecRatio(c map[string]float64) float64 {
	if c[metrics.MPSCodecBytesWire] == 0 {
		return 1
	}
	return c[metrics.MPSCodecBytesRaw] / c[metrics.MPSCodecBytesWire]
}
