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
	return runPSTraining(&cfg, "DGL-KE", nil)
}

// psEnv bundles the shared PS-training substrate.
type psEnv struct {
	cluster *ps.Cluster
	part    *partition.Result
	// tr is the worker↔PS transport; gathers go through it too, so remote
	// shard deployments (cmd/hetkg-ps) see the trained state.
	tr ps.Transport
}

// partRunner is one local worker's position in the run.
type partRunner struct {
	id   int     // worker id; in elastic runs also the partition
	w    *worker // nil for a partition adopted already finished
	ipe  int     // iterations per epoch
	ep   int     // current 1-based epoch
	iter int     // completed iterations within ep
	done bool
}

// epochAcc accumulates one epoch's statistics as workers finish it.
type epochAcc struct {
	stat     metrics.EpochStat // Loss holds the sum until closeEpoch
	workers  int
	acc, hit float64 // cache accesses and hits
}

// psDriver is the state of the PS training loop.
type psDriver struct {
	cfg     *Config
	env     *psEnv
	b       *workerBuilder
	el      *elastic      // nil for a static run
	runners []*partRunner // sorted by id
	all     []*worker     // every worker ever built, for finalize
	epochs  map[int]*epochAcc
	cum     time.Duration
	round   int // global iterations: one round = one batch turn per runner
	em      *metrics.TimelineEmitter
	res     *Result
}

// runPSTraining is the one driver loop of the PS trainers (DGL-KE and
// HET-KG). Every round each local worker takes one batch turn, round-robin
// (ASP: with unbalanced partitions a light worker simply finishes its epoch
// early rather than re-looping its subgraph, which would inflate both
// traffic and update counts). perIteration, when non-nil, is HET-KG's cache
// hook: every worker gets a hot-embedding table, and the hook runs before
// each of its turns (prefetch, rebuild and staleness sync).
//
// Without cfg.Elastic the run is static: all local workers are built up
// front, and each epoch ends at a barrier (the full synchronization DGL-KE
// performs every few thousand mini-batches, §V) that records the epoch and
// optionally evaluates. With cfg.Elastic this process is one worker of a
// coordinated cluster (elastic.go): the loop also heartbeats, adopts and
// drops partitions, and snapshots progress, and each partition crosses its
// epoch boundaries on its own — there is no barrier, so only the final
// evaluation scores.
func runPSTraining(cfg *Config, system string, perIteration func(*worker) error) (*Result, error) {
	if cfg.Elastic != nil {
		system += "/elastic"
		cfg.LocalMachines = nil // assignment comes from the coordinator
	}
	env, err := setupPS(cfg)
	if err != nil {
		return nil, err
	}
	b, err := newWorkerBuilder(cfg, env, perIteration)
	if err != nil {
		return nil, err
	}
	d := &psDriver{
		cfg:    cfg,
		env:    env,
		b:      b,
		epochs: make(map[int]*epochAcc),
		res:    &Result{System: system, Metrics: cfg.Metrics},
	}
	if cfg.Elastic != nil {
		if d.el, err = joinElastic(d); err != nil {
			return nil, err
		}
	} else {
		if d.all, err = b.buildLocal(); err != nil {
			return nil, err
		}
		for _, w := range d.all {
			d.runners = append(d.runners, &partRunner{id: w.id, w: w, ipe: w.smp.IterationsPerEpoch(), ep: 1})
		}
	}
	if d.em, err = openTimeline(cfg, system); err != nil {
		return nil, err
	}
	if err := d.run(); err != nil {
		return nil, err
	}
	// Elastic epochs close at the end, in order; a static run closed each
	// at its barrier.
	for ep := 1; ep <= cfg.Epochs; ep++ {
		if d.epochs[ep] != nil {
			if err := d.closeEpoch(ep); err != nil {
				return nil, err
			}
		}
	}
	if d.em != nil {
		if err := d.em.Flush(); err != nil {
			return nil, err
		}
	}
	return finalize(cfg, env, d.all, d.res)
}

// run drives batch turns until every local worker finished its last epoch
// (static) or the coordinator reports the whole cluster done (elastic).
func (d *psDriver) run() error {
	start := time.Now()
	for {
		if d.el != nil {
			allDone, err := d.el.beat()
			if allDone || err != nil {
				return err
			}
		} else if d.epoch() > d.cfg.Epochs {
			return nil
		}
		progressed := false
		for _, r := range d.runners {
			if r.done || r.iter >= r.ipe {
				continue // finished, or waiting at the epoch barrier
			}
			if err := r.w.turn(d.b.perIteration); err != nil {
				return fmt.Errorf("train: worker %d: %w", r.id, err)
			}
			r.iter++
			progressed = true
			if d.el != nil {
				d.el.afterTurn(r)
				if d.el.beatDue() {
					break // don't let a long round starve failure detection
				}
			}
		}
		if progressed {
			d.round++
			if d.em != nil && d.em.ShouldEmit(d.round) {
				if err := emitTimeline(d.em, d.b.tobs, d.runners, d.round, d.epoch(), start); err != nil {
					return err
				}
			}
		}
		switch {
		case d.el == nil:
			if err := d.barrier(); err != nil {
				return err
			}
		case !progressed:
			// Nothing runnable: idle until the next heartbeat can bring
			// reassigned work (or the all-done signal).
			time.Sleep(sleepQuantum(d.el.interval))
		}
	}
}

// epoch is the earliest epoch a local worker is still in (Epochs+1 once
// every local worker is past its last).
func (d *psDriver) epoch() int {
	ep := d.cfg.Epochs + 1
	for _, r := range d.runners {
		if !r.done && r.ep < ep {
			ep = r.ep
		}
	}
	return ep
}

// barrier ends a static run's epoch once every local worker has finished
// it: the epoch is recorded across all workers at once and closed.
func (d *psDriver) barrier() error {
	for _, r := range d.runners {
		if r.iter < r.ipe {
			return nil
		}
	}
	ep := d.runners[0].ep
	for _, r := range d.runners {
		d.recordEpoch(r)
	}
	return d.closeEpoch(ep)
}

// recordEpoch folds r's finished epoch into that epoch's aggregate and
// advances r to the next epoch. The epoch's simulated duration is the
// critical path (slowest worker), matching a real cluster where machines
// run in parallel.
func (d *psDriver) recordEpoch(r *partRunner) {
	a := d.epochs[r.ep]
	if a == nil {
		a = &epochAcc{stat: metrics.EpochStat{Epoch: r.ep}}
		d.epochs[r.ep] = a
	}
	comp, comm, loss := r.w.epochStats(d.cfg.CostModel)
	a.stat.Comp = max(a.stat.Comp, comp)
	a.stat.Comm = max(a.stat.Comm, comm)
	a.stat.Loss += loss
	a.workers++
	if hot := r.w.hot; hot != nil {
		acc := float64(hot.Accesses())
		hit := acc * hot.HitRatio()
		a.acc += acc
		a.hit += hit
		r.w.accTotal += acc
		r.w.hitTotal += hit
		hot.ResetStats()
	}
	r.ep++
	r.iter = 0
	r.done = r.ep > d.cfg.Epochs
}

// closeEpoch turns epoch ep's aggregate into its record (mean loss, hit
// ratio, cumulative time), evaluates it at a static barrier on the
// EvalEvery cadence, and appends it to the result and the timeline.
func (d *psDriver) closeEpoch(ep int) error {
	a := d.epochs[ep]
	delete(d.epochs, ep)
	stat := a.stat
	stat.Loss /= float64(a.workers)
	if a.acc > 0 {
		stat.HitRatio = a.hit / a.acc
	}
	d.cum += stat.Total()
	stat.CumTime = d.cum

	cfg := d.cfg
	if d.el == nil && cfg.EvalEvery > 0 && len(cfg.Valid) > 0 && ep%cfg.EvalEvery == 0 {
		ents, rels, err := d.env.cluster.GatherVia(d.env.tr)
		if err != nil {
			return err
		}
		ev, err := evalNow(cfg, ents, rels)
		if err != nil {
			return err
		}
		stat.MRR = ev.MRR
	}
	d.res.Epochs = append(d.res.Epochs, stat)
	if d.em != nil {
		return d.em.EmitEpoch(d.round, stat)
	}
	return nil
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
