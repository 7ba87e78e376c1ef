package train

import (
	"bytes"
	"os"
	"sync"
	"testing"
	"time"

	"hetkg/internal/ckpt"
	"hetkg/internal/metrics"
	"hetkg/internal/ps"
	"hetkg/internal/telemetry"
)

// elasticMembership builds an in-process coordinator with a fast heartbeat
// so tests finish quickly.
func elasticMembership(t *testing.T, parts int) *ps.Membership {
	t.Helper()
	m, err := ps.NewMembership(ps.MemberConfig{
		Partitions:     parts,
		HeartbeatEvery: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestElasticSingleWorkerTrains(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.Dataset = "traintest"
	var tl bytes.Buffer
	cfg.Timeline = &tl
	m := elasticMembership(t, 2)
	cfg.Elastic = &ElasticConfig{Coordinator: m, Label: "solo"}
	res, err := TrainHETKG(cfg)
	if err != nil {
		t.Fatalf("TrainHETKG: %v", err)
	}
	if res.System != "HET-KG-C/elastic" {
		t.Errorf("System = %q", res.System)
	}
	if len(res.Epochs) != cfg.Epochs {
		t.Fatalf("recorded %d epochs, want %d", len(res.Epochs), cfg.Epochs)
	}
	first, last := res.Epochs[0].Loss, res.Epochs[len(res.Epochs)-1].Loss
	if last >= first {
		t.Errorf("loss did not decrease: %.4f → %.4f", first, last)
	}
	if res.Final.MRR < 0.15 {
		t.Errorf("final MRR = %.3f, want > 0.15", res.Final.MRR)
	}
	if !m.AllDone() {
		t.Error("coordinator does not agree the run finished")
	}
	// The timeline holds iteration records from the driver loop and one
	// epoch record per recorded epoch.
	run, err := metrics.ReadTimeline(&tl)
	if err != nil {
		t.Fatalf("ReadTimeline: %v", err)
	}
	if run.Header.System != res.System {
		t.Fatalf("timeline system %q, want %q", run.Header.System, res.System)
	}
	var epochs []metrics.TimelineRecord
	iters := 0
	for _, rec := range run.Records {
		if rec.EpochEnd {
			epochs = append(epochs, rec)
		} else {
			iters++
		}
	}
	if iters == 0 {
		t.Error("timeline has no iteration records")
	}
	if len(epochs) != len(res.Epochs) {
		t.Fatalf("timeline has %d epoch records, want %d", len(epochs), len(res.Epochs))
	}
	for i, rec := range epochs {
		if rec.Epoch != res.Epochs[i].Epoch || rec.Loss != res.Epochs[i].Loss {
			t.Errorf("epoch record %d = %+v, want epoch %+v", i, rec, res.Epochs[i])
		}
	}
}

// TestElasticDGLKE: elastic membership is a hook on the shared PS loop, so
// the cacheless trainer runs elastic too, without a hot-embedding table.
func TestElasticDGLKE(t *testing.T) {
	cfg := testConfig(t, 2)
	m := elasticMembership(t, 2)
	cfg.Elastic = &ElasticConfig{Coordinator: m, Label: "solo"}
	res, err := TrainDGLKE(cfg)
	if err != nil {
		t.Fatalf("TrainDGLKE: %v", err)
	}
	if res.System != "DGL-KE/elastic" {
		t.Errorf("System = %q", res.System)
	}
	if len(res.Epochs) != cfg.Epochs || res.CacheAccesses != 0 {
		t.Errorf("recorded %d epochs and %d cache accesses, want %d and 0",
			len(res.Epochs), res.CacheAccesses, cfg.Epochs)
	}
	if !m.AllDone() {
		t.Error("coordinator does not agree the run finished")
	}
}

// TestElasticShipsTelemetry runs a solo elastic worker against a
// coordinator with a fleet aggregator and asserts the worker's registry
// snapshots arrived: piggybacked on heartbeats, labeled with the worker's
// role and label, carrying the live training counters.
func TestElasticShipsTelemetry(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.Dataset = "traintest"
	cfg.Metrics = metrics.NewRegistry()
	fleet := telemetry.NewFleet(telemetry.FleetConfig{})
	m, err := ps.NewMembership(ps.MemberConfig{
		Partitions:     2,
		HeartbeatEvery: 5 * time.Millisecond,
		Telemetry:      fleet,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Elastic = &ElasticConfig{Coordinator: m, Label: "solo"}
	if _, err := TrainHETKG(cfg); err != nil {
		t.Fatalf("TrainHETKG: %v", err)
	}
	v := fleet.View()
	if len(v.Processes) != 1 {
		t.Fatalf("fleet processes = %+v, want the one worker", v.Processes)
	}
	p := v.Processes[0]
	if p.ID != "worker/solo" || p.Role != telemetry.RoleWorker {
		t.Fatalf("process = %+v", p)
	}
	if p.Reports < 1 {
		t.Fatalf("reports = %d, want >= 1", p.Reports)
	}
	// The last shipped snapshot carried the training counters.
	iters := cfg.Metrics.Counter(metrics.MTrainIterations).Value()
	if iters == 0 {
		t.Fatal("no iterations trained")
	}
}

// TestElasticTelemetryDisabledWithoutAggregator pins the refusal path: a
// coordinator without a Fleet rejects the first report and the worker
// silently stops shipping instead of failing the run.
func TestElasticTelemetryDisabledWithoutAggregator(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.Dataset = "traintest"
	cfg.Metrics = metrics.NewRegistry()
	m := elasticMembership(t, 2)
	cfg.Elastic = &ElasticConfig{Coordinator: m, Label: "mute"}
	if _, err := TrainHETKG(cfg); err != nil {
		t.Fatalf("TrainHETKG: %v", err)
	}
	if !m.AllDone() {
		t.Error("run did not finish")
	}
}

// TestElasticResumeFromSnapshot pre-seeds the checkpoint directory as a
// crashed worker would have left it — partition 0 fully done, partition 1
// mid-run — and asserts the adopting process resumes rather than restarts,
// leaves fresh Done snapshots behind, and still completes the run.
func TestElasticResumeFromSnapshot(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.Dataset = "traintest"
	cfg.Metrics = metrics.NewRegistry()
	dir := t.TempDir()
	writeProg := func(p ckpt.Progress) {
		t.Helper()
		if err := ckpt.WriteProgressFile(dir, &p); err != nil {
			t.Fatal(err)
		}
	}
	writeProg(ckpt.Progress{Partition: 0, Epoch: cfg.Epochs, Done: true,
		Dataset: cfg.Dataset, Seed: cfg.Seed})
	writeProg(ckpt.Progress{Partition: 1, Epoch: 2, Iteration: 1,
		Dataset: cfg.Dataset, Seed: cfg.Seed})

	m := elasticMembership(t, 2)
	cfg.Elastic = &ElasticConfig{
		Coordinator: m, Label: "resumer", CkptDir: dir, CkptEvery: 4,
	}
	res, err := TrainHETKG(cfg)
	if err != nil {
		t.Fatalf("TrainHETKG: %v", err)
	}
	if res.Final.MRR <= 0 {
		t.Errorf("final MRR = %.3f after resume", res.Final.MRR)
	}
	if got := cfg.Metrics.Counter(metrics.MClusterCkptResumes).Value(); got < 1 {
		t.Errorf("cluster.ckpt_resumes = %d, want >= 1", got)
	}
	if got := cfg.Metrics.Counter(metrics.MClusterCkptWrites).Value(); got < 1 {
		t.Errorf("cluster.ckpt_writes = %d, want >= 1", got)
	}
	// The run's own snapshots must mark partition 1 done at the end.
	snap, err := ckpt.ReadProgressFile(dir, 1)
	if err != nil {
		t.Fatalf("final snapshot: %v", err)
	}
	if !snap.Done {
		t.Errorf("final snapshot for partition 1 = %+v, want Done", snap)
	}
}

// TestElasticIgnoresForeignAndCorruptSnapshots: a snapshot from another
// run's seed and a truncated file are both skipped (counted as corrupt) and
// training starts from the coordinator's hint instead of failing.
func TestElasticIgnoresForeignAndCorruptSnapshots(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.Dataset = "traintest"
	cfg.Metrics = metrics.NewRegistry()
	dir := t.TempDir()
	if err := ckpt.WriteProgressFile(dir, &ckpt.Progress{
		Partition: 0, Epoch: 2, Dataset: cfg.Dataset, Seed: cfg.Seed + 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt.ProgressPath(dir, 1),
		[]byte("HETKG-PROG-v1\ngarbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	m := elasticMembership(t, 2)
	cfg.Elastic = &ElasticConfig{
		Coordinator: m, Label: "skeptic", RecoverFrom: dir,
	}
	res, err := TrainHETKG(cfg)
	if err != nil {
		t.Fatalf("TrainHETKG: %v", err)
	}
	if got := cfg.Metrics.Counter(metrics.MClusterCkptCorrupt).Value(); got != 2 {
		t.Errorf("cluster.ckpt_corrupt = %d, want 2", got)
	}
	if len(res.Epochs) != cfg.Epochs {
		t.Errorf("recorded %d epochs, want %d (full restart from epoch 1)", len(res.Epochs), cfg.Epochs)
	}
}

// TestElasticTwoWorkersSplitThePartitions runs two elastic worker drivers
// concurrently against one coordinator: each keeps its preferred partition,
// both observe the cluster-wide completion, and neither errors.
func TestElasticTwoWorkersSplitThePartitions(t *testing.T) {
	m := elasticMembership(t, 2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	results := make([]*Result, 2)
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := testConfig(t, 2)
			cfg.Dataset = "traintest"
			cfg.Elastic = &ElasticConfig{
				Coordinator: m,
				Label:       "peer",
				Preferred:   []int{i},
			}
			results[i], errs[i] = TrainHETKG(cfg)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if !m.AllDone() {
		t.Error("cluster did not finish")
	}
	for i, res := range results {
		if res == nil || res.Final.MRR <= 0 {
			t.Errorf("worker %d has no final evaluation: %+v", i, res)
		}
	}
}
