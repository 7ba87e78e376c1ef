package train

import (
	"fmt"
	"os"
	"sort"
	"time"

	"hetkg/internal/ckpt"
	"hetkg/internal/metrics"
	"hetkg/internal/ps"
	"hetkg/internal/span"
	"hetkg/internal/telemetry"
)

// Elastic membership (DESIGN.md §11) is the multi-process deployment of
// the PS trainers: with Config.Elastic set, each hetkg-train process
// registers with a coordinator, receives partition assignments, and trains
// them in runPSTraining's loop under asynchronous heartbeats. Partitions
// move between processes — at cold start to spread load, and after a crash
// to resume a dead worker's range from its last progress snapshot. Epochs
// are per-partition (ASP: nobody waits), so a worker joining or leaving
// never restarts anyone's epoch; the run is done when every partition has
// finished every epoch, and each surviving process then gathers the
// shards' state and evaluates.

// ElasticConfig parameterizes one elastic worker process (Config.Elastic).
type ElasticConfig struct {
	// Coordinator is the joined membership handle: a *ps.CoordClient over
	// TCP, or a *ps.Membership directly for single-process runs and tests.
	Coordinator ps.Coordinator
	// Join, when non-nil, is the already-performed registration (the caller
	// needed the reply's shard list to build the transport). Left nil, the
	// trainer registers itself.
	Join *ps.JoinReply
	// Label identifies this process in coordinator logs.
	Label string
	// Preferred lists partitions this process was launched to own (empty =
	// spare worker; ignored when Join is set).
	Preferred []int
	// HeartbeatEvery overrides the coordinator-advertised cadence (0 = use
	// the JoinReply's).
	HeartbeatEvery time.Duration
	// CkptDir, when non-empty, receives per-partition progress snapshots
	// (ckpt.WriteProgressFile) every CkptEvery iterations.
	CkptDir string
	// RecoverFrom is the directory adopted partitions read snapshots from
	// ("" = CkptDir). A missing snapshot resumes from the coordinator's
	// hint; a corrupt one additionally counts cluster.ckpt_corrupt.
	RecoverFrom string
	// CkptEvery is the iteration interval between snapshots (default 16).
	CkptEvery int
	// Logf, when non-nil, receives worker-side cluster events.
	Logf func(format string, args ...any)
}

// progress reports the runner's position as a wire message.
func (r *partRunner) progress() ps.PartitionProgress {
	return ps.PartitionProgress{Partition: r.id, Epoch: r.ep, Iteration: r.iter, Done: r.done}
}

// elastic is the membership side of an elastic run: the coordinator
// session that runPSTraining's loop consults between batch turns.
type elastic struct {
	d  *psDriver
	ec ElasticConfig

	workerID int
	interval time.Duration
	lastBeat time.Time
	failures int // consecutive failed heartbeats

	ckptWrites, ckptResumes, ckptCorrupt *metrics.Counter

	tracer   *span.Tracer
	beats    int
	recovers int

	// Fleet telemetry piggybacked on the heartbeat cadence (DESIGN.md §12):
	// every successful beat also ships the full registry snapshot to the
	// coordinator's aggregator, so the /fleet view tracks this process at
	// heartbeat resolution with no extra timer.
	telemetrySeq int64
	telemetryOff bool
}

// joinElastic registers with the coordinator (unless Config.Elastic.Join
// already did) and adopts the initial assignment.
func joinElastic(d *psDriver) (*elastic, error) {
	cfg := d.cfg
	e := &elastic{
		d:           d,
		ec:          *cfg.Elastic,
		ckptWrites:  cfg.Metrics.Counter(metrics.MClusterCkptWrites),
		ckptResumes: cfg.Metrics.Counter(metrics.MClusterCkptResumes),
		ckptCorrupt: cfg.Metrics.Counter(metrics.MClusterCkptCorrupt),
	}
	if e.ec.CkptEvery <= 0 {
		e.ec.CkptEvery = 16
	}
	if e.ec.RecoverFrom == "" {
		e.ec.RecoverFrom = e.ec.CkptDir
	}
	if cfg.Spans != nil {
		e.tracer = cfg.Spans.Tracer(span.MachineCluster, span.WorkerCluster)
	}

	join := e.ec.Join
	if join == nil {
		var err error
		join, err = e.ec.Coordinator.Join(ps.JoinRequest{Label: e.ec.Label, Preferred: e.ec.Preferred})
		if err != nil {
			return nil, fmt.Errorf("train: joining cluster: %w", err)
		}
	}
	e.workerID = join.WorkerID
	e.interval = e.ec.HeartbeatEvery
	if e.interval <= 0 {
		e.interval = join.HeartbeatEvery
	}
	if e.interval <= 0 {
		e.interval = time.Second
	}
	if join.Partitions != cfg.NumMachines {
		return nil, fmt.Errorf("train: coordinator runs %d partitions, this process is configured for %d machines",
			join.Partitions, cfg.NumMachines)
	}
	if err := e.reconcile(join.Assignments); err != nil {
		return nil, err
	}
	e.lastBeat = time.Now()
	return e, nil
}

// logf forwards worker-side cluster events.
func (e *elastic) logf(format string, args ...any) {
	if e.ec.Logf != nil {
		e.ec.Logf(format, args...)
	}
}

// beatDue reports whether the heartbeat cadence has elapsed.
func (e *elastic) beatDue() bool {
	return time.Since(e.lastBeat) >= e.interval
}

// beat sends a heartbeat when one is due and reports whether the whole
// cluster is done; on done it first leaves with exact final progress.
// Three consecutive failed heartbeats mean the coordinator is lost.
func (e *elastic) beat() (allDone bool, err error) {
	if !e.beatDue() {
		return false, nil
	}
	allDone, err = e.heartbeat()
	e.lastBeat = time.Now()
	if err != nil {
		e.failures++
		e.logf("cluster: heartbeat failed (%d consecutive): %v", e.failures, err)
		if e.failures >= 3 {
			return false, fmt.Errorf("train: lost the coordinator (%d heartbeats failed): %w", e.failures, err)
		}
		return false, nil
	}
	e.failures = 0
	if allDone {
		// Graceful exit: release partitions with exact final progress.
		if err := e.ec.Coordinator.Leave(ps.LeaveRequest{WorkerID: e.workerID, Progress: e.progressAll()}); err != nil {
			e.logf("cluster: leave failed (harmless after all-done): %v", err)
		}
	}
	return allDone, nil
}

// afterTurn advances partition r after a batch turn: with no barrier in
// elastic mode, a finished epoch is recorded at once, and progress is
// snapshotted on the CkptEvery cadence and at every epoch end.
func (e *elastic) afterTurn(r *partRunner) {
	snapshot := r.iter%e.ec.CkptEvery == 0
	if r.iter >= r.ipe {
		e.d.recordEpoch(r)
		if r.done {
			e.logf("cluster: partition %d done (%d epochs)", r.id, e.d.cfg.Epochs)
		}
		snapshot = true
	}
	if snapshot {
		e.writeSnapshot(r)
	}
}

// heartbeat sends one progress report and applies the reply: adoption and
// drop of partitions, re-join when expired, the all-done signal.
func (e *elastic) heartbeat() (allDone bool, err error) {
	sp := e.tracer.RootNamed(e.beats, span.NClusterHeartbeat)
	e.beats++
	defer sp.End()
	reply, err := e.ec.Coordinator.Heartbeat(ps.HeartbeatRequest{WorkerID: e.workerID, Progress: e.progressAll()})
	if err != nil {
		return false, err
	}
	if reply.Unknown {
		// The coordinator expired us (a long stall on our side). Re-join,
		// preferring the partitions we still hold — if nobody adopted them
		// meanwhile, we get them back without losing local state.
		join, err := e.ec.Coordinator.Join(ps.JoinRequest{Label: e.ec.Label, Preferred: e.heldParts()})
		if err != nil {
			return false, fmt.Errorf("re-joining after expiry: %w", err)
		}
		e.logf("cluster: expired by coordinator, re-joined as worker %d", join.WorkerID)
		e.workerID = join.WorkerID
		return false, e.reconcile(join.Assignments)
	}
	e.shipTelemetry()
	if reply.AllDone {
		return true, nil
	}
	return false, e.reconcile(reply.Assignments)
}

// shipTelemetry sends one labeled registry snapshot to the coordinator's
// fleet aggregator — best effort, and disabled for the rest of the run
// after the first refusal (a coordinator without an aggregator refuses by
// name; telemetry must never interfere with training).
func (e *elastic) shipTelemetry() {
	if e.telemetryOff {
		return
	}
	sender, ok := e.ec.Coordinator.(telemetry.Sender)
	if !ok {
		e.telemetryOff = true
		return
	}
	e.telemetrySeq++
	err := sender.SendTelemetry(telemetry.Report{
		Role:    telemetry.RoleWorker,
		Label:   e.telemetryLabel(),
		Seq:     e.telemetrySeq,
		Metrics: e.d.cfg.Metrics.Snapshot(),
	})
	if err != nil {
		e.telemetryOff = true
		e.logf("cluster: telemetry disabled: %v", err)
	}
}

// telemetryLabel is this process's fleet identity: the configured label,
// or the coordinator-issued worker id as a fallback.
func (e *elastic) telemetryLabel() string {
	if e.ec.Label != "" {
		return e.ec.Label
	}
	return fmt.Sprintf("worker-%d", e.workerID)
}

// reconcile makes the local runner set match the coordinator's assignment
// list: absent assignments are adopted (resuming from snapshot or hint),
// local partitions no longer assigned are dropped.
func (e *elastic) reconcile(assignments []ps.Assignment) error {
	held := make(map[int]bool, len(e.d.runners))
	for _, r := range e.d.runners {
		held[r.id] = true
	}
	assigned := make(map[int]bool, len(assignments))
	for _, a := range assignments {
		assigned[a.Partition] = true
		if !held[a.Partition] {
			r, err := e.adopt(a)
			if err != nil {
				return err
			}
			e.d.runners = append(e.d.runners, r)
		}
	}
	kept := e.d.runners[:0]
	for _, r := range e.d.runners {
		if !assigned[r.id] && !r.done {
			// Reassigned away (cold-start balancing). Drop without a
			// snapshot — the new owner resumes from the coordinator's hint.
			e.logf("cluster: partition %d reassigned away", r.id)
			continue
		}
		kept = append(kept, r)
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].id < kept[j].id })
	e.d.runners = kept
	return nil
}

// adopt builds partition a.Partition's runner and fast-forwards it to the
// resume point: the furthest of the coordinator's hint and a valid local
// progress snapshot. The deterministic sampler makes the fast-forward
// exact — worker id equals partition, so the adopted stream is the same
// one the dead owner was consuming.
func (e *elastic) adopt(a ps.Assignment) (*partRunner, error) {
	sp := e.tracer.RootNamed(e.recovers, span.NClusterRecover)
	e.recovers++
	defer sp.End()

	cfg := e.d.cfg
	part := a.Partition
	if part < 0 || part >= cfg.NumMachines {
		return nil, fmt.Errorf("train: assigned partition %d out of range [0,%d)", part, cfg.NumMachines)
	}
	finished := &partRunner{id: part, ep: cfg.Epochs, done: true}
	if e.d.b.subs[part].NumTriples() == 0 {
		// An empty partition has nothing to train; report it done.
		return finished, nil
	}
	ep, iter := a.Epoch, a.Iteration
	if ep < 1 {
		ep = 1
	}
	if snap := e.readSnapshot(part); snap != nil {
		if snap.Done {
			return finished, nil
		}
		if snap.Epoch > ep || (snap.Epoch == ep && snap.Iteration > iter) {
			ep, iter = snap.Epoch, snap.Iteration
		}
	}
	w, err := e.d.b.build(part, part) // worker id = partition: seeds must match any prior owner
	if err != nil {
		return nil, err
	}
	e.d.all = append(e.d.all, w)
	r := &partRunner{id: part, w: w, ipe: w.smp.IterationsPerEpoch(), ep: ep, iter: iter}
	if r.ipe == 0 || r.ep > cfg.Epochs {
		r.done = true
		return r, nil
	}
	// Fast-forward the sampler past every batch the partition already
	// trained on; w.iteration follows so cache staleness bookkeeping and
	// span trace IDs continue from the same position.
	skip := (r.ep-1)*r.ipe + r.iter
	for i := 0; i < skip; i++ {
		w.smp.Next()
	}
	w.iteration = skip
	if skip > 0 {
		e.ckptResumes.Inc()
		e.logf("cluster: adopted partition %d at epoch %d iter %d (skipped %d batches)", part, r.ep, r.iter, skip)
	} else {
		e.logf("cluster: adopted partition %d fresh", part)
	}
	return r, nil
}

// readSnapshot loads partition part's progress snapshot, distinguishing
// missing (fresh start, nil) from corrupt (counted, nil) from foreign-run
// provenance (treated as corrupt).
func (e *elastic) readSnapshot(part int) *ckpt.Progress {
	if e.ec.RecoverFrom == "" {
		return nil
	}
	snap, err := ckpt.ReadProgressFile(e.ec.RecoverFrom, part)
	if err != nil {
		if !os.IsNotExist(err) {
			e.ckptCorrupt.Inc()
			e.logf("cluster: snapshot for partition %d unusable, resuming from hint: %v", part, err)
		}
		return nil
	}
	if cfg := e.d.cfg; snap.Seed != cfg.Seed || snap.Dataset != cfg.Dataset {
		e.ckptCorrupt.Inc()
		e.logf("cluster: snapshot for partition %d is from another run (seed %d dataset %q), ignoring",
			part, snap.Seed, snap.Dataset)
		return nil
	}
	return snap
}

// writeSnapshot persists partition r's position (best effort — a failed
// write degrades recovery granularity, not correctness).
func (e *elastic) writeSnapshot(r *partRunner) {
	if e.ec.CkptDir == "" {
		return
	}
	cfg := e.d.cfg
	err := ckpt.WriteProgressFile(e.ec.CkptDir, &ckpt.Progress{
		Partition: r.id,
		Epoch:     min(r.ep, cfg.Epochs),
		Iteration: r.iter,
		Done:      r.done,
		Dataset:   cfg.Dataset,
		Seed:      cfg.Seed,
	})
	if err != nil {
		e.logf("cluster: snapshot write for partition %d failed: %v", r.id, err)
		return
	}
	e.ckptWrites.Inc()
}

// progressAll reports every local partition's position (done partitions
// re-report every beat until the coordinator drops them from the
// assignment set — idempotent against lost replies).
func (e *elastic) progressAll() []ps.PartitionProgress {
	var out []ps.PartitionProgress
	for _, r := range e.d.runners {
		out = append(out, r.progress())
	}
	return out
}

// heldParts lists locally-held partitions in index order.
func (e *elastic) heldParts() []int {
	parts := make([]int, 0, len(e.d.runners))
	for _, r := range e.d.runners {
		parts = append(parts, r.id)
	}
	return parts
}

// sleepQuantum bounds the idle sleep so heartbeats stay responsive even
// with long intervals.
func sleepQuantum(interval time.Duration) time.Duration {
	q := interval / 4
	if q < time.Millisecond {
		q = time.Millisecond
	}
	if q > 250*time.Millisecond {
		q = 250 * time.Millisecond
	}
	return q
}
