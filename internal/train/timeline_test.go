package train

import (
	"bytes"
	"encoding/json"
	"testing"

	"hetkg/internal/metrics"
)

// timelineRun trains HET-KG on the small test workload with a timeline
// attached and returns the parsed timeline.
func timelineRun(t *testing.T) *metrics.TimelineRun {
	t.Helper()
	cfg := testConfig(t, 2)
	cfg.EvalEvery = cfg.Epochs // score the last epoch only: its record carries an MRR
	cfg.Parallelism = 1
	cfg.Dataset = "traintest"
	cfg.TimelineEvery = 2
	var buf bytes.Buffer
	cfg.Timeline = &buf
	res, err := TrainHETKG(cfg)
	if err != nil {
		t.Fatalf("TrainHETKG: %v", err)
	}
	if res.Metrics == nil {
		t.Fatal("Result.Metrics is nil")
	}
	run, err := metrics.ReadTimeline(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadTimeline: %v", err)
	}
	return run
}

// TestTimelineEmission checks a training run emits a well-formed timeline:
// enough records, and the last iteration record (the one before the final
// end-of-epoch record) carrying every headline series —
// loss, cache hit ratio, staleness quantiles, PS byte counts, simulated
// wire time — plus wall-clock readings in the separate wall object.
func TestTimelineEmission(t *testing.T) {
	run := timelineRun(t)
	if run.Header.System != "HET-KG-C" || run.Header.Dataset != "traintest" || run.Header.Every != 2 {
		t.Fatalf("header = %+v", run.Header)
	}
	if len(run.Records) < 10 {
		t.Fatalf("got %d records, want >= 10", len(run.Records))
	}
	last := run.Records[len(run.Records)-2]
	if last.Loss <= 0 {
		t.Errorf("last record loss = %v", last.Loss)
	}
	if v := last.Metrics[metrics.MCacheHitRatio]; v.Kind != metrics.KindGauge || v.Value <= 0 {
		t.Errorf("cache.hit_ratio = %+v", v)
	}
	if v := last.Metrics[metrics.MCacheStaleness]; v.Kind != metrics.KindHistogram ||
		v.Count == 0 || v.Quantiles == nil {
		t.Errorf("cache.staleness = %+v", v)
	}
	if v := last.Metrics[metrics.MPSBytesTx]; v.Count <= 0 {
		t.Errorf("ps.bytes_tx = %+v", v)
	}
	if v := last.Metrics[metrics.MPSBytesRx]; v.Count <= 0 {
		t.Errorf("ps.bytes_rx = %+v", v)
	}
	if v := last.Metrics[metrics.MNetSimWire]; v.Count <= 0 {
		t.Errorf("net.sim_wire_ns = %+v", v)
	}
	if v := last.Metrics[metrics.MTrainIterations]; v.Count <= 0 {
		t.Errorf("train.iterations = %+v", v)
	}
	if v := last.Metrics[metrics.MPSServerPulls]; v.Count <= 0 {
		t.Errorf("ps.server.pulls = %+v", v)
	}
	if last.Wall == nil || last.Wall.ElapsedMS <= 0 {
		t.Errorf("wall = %+v", last.Wall)
	}
	// Timers must never leak into the deterministic snapshot.
	if _, ok := last.Metrics[metrics.MTrainCompWall]; ok {
		t.Error("wall-clock timer leaked into a timeline record")
	}
}

// TestTimelineDeterministic re-runs the same configuration and requires the
// two timelines to be bit-identical once the wall-clock object is stripped:
// the paper-reproduction contract is that every value under "metrics", and
// every top-level field of the end-of-epoch records (loss, mrr, comm,
// hit ratio), derives from deterministic quantities only.
func TestTimelineDeterministic(t *testing.T) {
	strip := func(run *metrics.TimelineRun) []byte {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		var ends []metrics.TimelineRecord
		for _, rec := range run.Records {
			rec.Wall = nil
			if err := enc.Encode(rec); err != nil {
				t.Fatal(err)
			}
			if rec.EpochEnd {
				ends = append(ends, rec)
			}
		}
		if len(ends) != 3 || ends[2].MRR <= 0 || ends[2].CommMS <= 0 || ends[2].HitRatio <= 0 {
			t.Fatalf("epoch records = %+v, want 3 with the last scored", ends)
		}
		return buf.Bytes()
	}
	a := timelineRun(t)
	b := timelineRun(t)
	if !bytes.Equal(strip(a), strip(b)) {
		t.Fatal("timelines differ between identical runs")
	}
}
