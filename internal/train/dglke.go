package train

import (
	"fmt"
	"time"

	"hetkg/internal/metrics"
	"hetkg/internal/partition"
	"hetkg/internal/ps"
	"hetkg/internal/span"
)

// TrainDGLKE runs the DGL-KE-style baseline (§III-B): METIS-partitioned
// subgraphs, a co-located parameter server, and per-iteration pull/push of
// every embedding the mini-batch touches. It is HET-KG without the
// hot-embedding table.
func TrainDGLKE(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	env, err := setupPS(&cfg)
	if err != nil {
		return nil, err
	}
	workers, err := newWorkers(&cfg, env.cluster, env.part, env.tr, false)
	if err != nil {
		return nil, err
	}
	return runPSTraining(&cfg, env, workers, "DGL-KE", nil)
}

// psEnv bundles the shared PS-training substrate.
type psEnv struct {
	cluster *ps.Cluster
	part    *partition.Result
	// tr is the worker↔PS transport; gathers go through it too, so remote
	// shard deployments (cmd/hetkg-ps) see the trained state.
	tr ps.Transport
}

// runPSTraining drives PS-style trainers (DGL-KE and HET-KG) with the
// round-robin asynchronous schedule: each epoch every worker processes its
// share of iterations one batch per turn, then an epoch barrier (the full
// synchronization DGL-KE performs every few thousand mini-batches, §V)
// gathers statistics and optionally evaluates. perIteration, when non-nil,
// is invoked before each worker turn — HET-KG hooks its prefetch, rebuild
// and staleness sync there.
func runPSTraining(cfg *Config, env *psEnv, workers []*worker, system string,
	perIteration func(w *worker) error) (*Result, error) {

	res := &Result{System: system, Metrics: cfg.Metrics}
	em, err := openTimeline(cfg, system)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	round := 0 // global iterations: one round = one batch turn per worker
	var cum time.Duration
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		// Each worker makes one pass over its own partition per epoch;
		// with unbalanced partitions a light worker simply finishes its
		// epoch early (ASP — nobody waits), rather than re-looping its
		// subgraph, which would inflate both traffic and update counts.
		maxIters := 0
		for _, w := range workers {
			if it := w.smp.IterationsPerEpoch(); it > maxIters {
				maxIters = it
			}
		}
		for it := 0; it < maxIters; it++ {
			for _, w := range workers {
				if it >= w.smp.IterationsPerEpoch() {
					continue
				}
				if err := w.turn(perIteration); err != nil {
					return nil, err
				}
			}
			round++
			if em != nil && em.ShouldEmit(round) {
				if err := emitTimeline(em, workers[0].obs, workers, round, epoch, start); err != nil {
					return nil, err
				}
			}
		}
		stat, err := epochBarrier(cfg, env, workers, epoch, &cum)
		if err != nil {
			return nil, err
		}
		res.Epochs = append(res.Epochs, stat)
		if em != nil {
			if err := em.EmitEpoch(round, stat); err != nil {
				return nil, err
			}
		}
	}
	if em != nil {
		if err := em.Flush(); err != nil {
			return nil, err
		}
	}
	return finalize(cfg, env, workers, res)
}

// epochBarrier collects per-epoch statistics across workers: the epoch's
// simulated duration is the critical path (slowest worker), matching a real
// cluster where machines run in parallel.
func epochBarrier(cfg *Config, env *psEnv, workers []*worker, epoch int, cum *time.Duration) (metrics.EpochStat, error) {
	var stat metrics.EpochStat
	stat.Epoch = epoch
	var lossSum float64
	var accTotal, hitTotal float64
	for _, w := range workers {
		comp, comm, loss := w.epochStats(cfg.CostModel)
		if comp > stat.Comp {
			stat.Comp = comp
		}
		if comm > stat.Comm {
			stat.Comm = comm
		}
		lossSum += loss
		if w.hot != nil {
			acc := float64(w.hot.Accesses())
			accTotal += acc
			hitTotal += acc * w.hot.HitRatio()
			w.accTotal += acc
			w.hitTotal += acc * w.hot.HitRatio()
			w.hot.ResetStats()
		}
	}
	stat.Loss = lossSum / float64(len(workers))
	if accTotal > 0 {
		stat.HitRatio = hitTotal / accTotal
	}
	*cum += stat.Total()
	stat.CumTime = *cum

	if cfg.EvalEvery > 0 && len(cfg.Valid) > 0 && epoch%cfg.EvalEvery == 0 {
		ents, rels, err := env.cluster.GatherVia(env.tr)
		if err != nil {
			return stat, err
		}
		ev, err := evalNow(cfg, ents, rels)
		if err != nil {
			return stat, err
		}
		stat.MRR = ev.MRR
	}
	return stat, nil
}

// finalize gathers embeddings, runs the final evaluation, and aggregates
// run-level statistics.
func finalize(cfg *Config, env *psEnv, workers []*worker, res *Result) (*Result, error) {
	// A run that trained through a shard outage may still hold buffered
	// degraded pushes; they must land before the gather or the final
	// embeddings silently miss update mass.
	for _, w := range workers {
		if err := w.drainDegraded(); err != nil {
			return nil, err
		}
	}
	ents, rels, err := env.cluster.GatherVia(env.tr)
	if err != nil {
		return nil, err
	}
	res.Entities, res.Relations = ents, rels
	if cfg.EvalEvery > 0 && len(cfg.Valid) > 0 {
		ev, err := evalNow(cfg, ents, rels)
		if err != nil {
			return nil, err
		}
		res.Final = ev
	}
	var hitTotal, accTotal float64
	for _, w := range workers {
		s := w.meter.Snapshot()
		res.Traffic.LocalMsgs += s.LocalMsgs
		res.Traffic.LocalBytes += s.LocalBytes
		res.Traffic.RemoteMsgs += s.RemoteMsgs
		res.Traffic.RemoteBytes += s.RemoteBytes
		accTotal += w.accTotal
		hitTotal += w.hitTotal
		if w.hot != nil {
			res.RefreshRows += w.hot.RefreshedRows()
		}
	}
	if accTotal > 0 {
		res.HitRatio = hitTotal / accTotal
	}
	res.CacheAccesses = int64(accTotal)
	for _, e := range res.Epochs {
		res.Comp += e.Comp
		res.Comm += e.Comm
	}
	return res, nil
}

// setupPS partitions the graph and builds the parameter-server cluster.
func setupPS(cfg *Config) (*psEnv, error) {
	part, err := cfg.Partitioner.Partition(cfg.Graph, cfg.NumMachines)
	if err != nil {
		return nil, err
	}
	cluster, err := ps.NewCluster(ps.ClusterConfig{
		NumMachines:      cfg.NumMachines,
		EntityPart:       part.EntityPart,
		NumRelations:     cfg.Graph.NumRel,
		EntityDim:        cfg.Model.EntityDim(cfg.Dim),
		RelationDim:      cfg.Model.RelationDim(cfg.Dim),
		NewOptimizer:     cfg.NewOptimizer,
		Seed:             cfg.Seed,
		InitialEntities:  cfg.InitialEntities,
		InitialRelations: cfg.InitialRelations,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Metrics != nil {
		for _, srv := range cluster.Servers {
			srv.Instrument(cfg.Metrics)
		}
	}
	if cfg.Spans != nil {
		for _, srv := range cluster.Servers {
			srv.Trace(cfg.Spans.Tracer(srv.Machine(), span.WorkerShard))
		}
	}
	var tr ps.Transport
	if cfg.NewTransport != nil {
		tr, err = cfg.NewTransport(cluster)
		if err != nil {
			return nil, fmt.Errorf("train: building transport: %w", err)
		}
	} else {
		tr = ps.NewInProc(cluster)
	}
	// Wrap in-process transports with the negotiated codec layer. A
	// transport that already negotiated its own profile (TCP, at dial
	// time) is left alone — wrapping it would codec the payload twice.
	if _, negotiated := tr.(interface{ NegotiatedProfile() string }); !negotiated && cfg.Codec != "" {
		tr, err = ps.NewCodecTransport(tr, cluster, cfg.Codec, cfg.CostModel)
		if err != nil {
			return nil, fmt.Errorf("train: building codec transport: %w", err)
		}
	}
	if cfg.Metrics != nil {
		if inst, ok := tr.(interface{ Instrument(*metrics.Registry) }); ok {
			inst.Instrument(cfg.Metrics)
		}
	}
	if cfg.Spans != nil {
		// A transport serving real sockets (or a wrapper over one) records
		// serialization/wire spans on a dedicated shared row.
		if tt, ok := tr.(interface{ Trace(*span.Tracer) }); ok {
			tt.Trace(cfg.Spans.Tracer(span.MachineTransport, span.WorkerTransport))
		}
	}
	return &psEnv{cluster: cluster, part: part, tr: tr}, nil
}
