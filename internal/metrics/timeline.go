package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// TimelineKind is the header discriminator of timeline files.
const TimelineKind = "hetkg-timeline/v1"

// DefaultTimelineEvery is the default iteration interval between records.
const DefaultTimelineEvery = 10

// TimelineHeader is the first JSONL line of a timeline: run identity plus
// the emission interval.
type TimelineHeader struct {
	Kind    string `json:"kind"` // always TimelineKind
	System  string `json:"system,omitempty"`
	Dataset string `json:"dataset,omitempty"`
	Every   int    `json:"every"`
	Seed    int64  `json:"seed"`
}

// TimelineWall carries a record's wall-clock measurements. Wall values are
// nondeterministic (they depend on the machine and the scheduler) and are
// kept out of Metrics so that everything under "metrics" is bit-identical
// across runs of the same configuration.
type TimelineWall struct {
	// ElapsedMS is wall-clock milliseconds since training started (unset
	// on epoch records).
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	// CompMS is accumulated wall-clock gradient-computation milliseconds;
	// on an epoch record it is the epoch's measured critical-path
	// computation (EpochStat.Comp).
	CompMS float64 `json:"comp_ms,omitempty"`
	// PairsPerSec is the run's throughput so far: scored (positive,
	// negative) pairs per wall-clock second.
	PairsPerSec float64 `json:"pairs_per_sec,omitempty"`
}

// TimelineRecord is one emitted line. An iteration record carries the
// training position, the loss, a deterministic registry snapshot, and
// wall-clock readings. An epoch record (EpochEnd) carries one EpochStat:
// the deterministic fields at the top level, the measured computation
// under Wall.
type TimelineRecord struct {
	// Iter is the global iteration (mini-batch rounds across all epochs);
	// 0 on the epoch records of a trainer without a global round clock
	// (PBG).
	Iter int `json:"iter"`
	// Epoch is the 1-based epoch the iteration belongs to.
	Epoch int `json:"epoch"`
	// Loss is the mean pair loss over workers' running epoch averages; on
	// an epoch record, the epoch's loss.
	Loss float64 `json:"loss"`
	// EpochEnd marks the end-of-epoch record, written once per epoch.
	EpochEnd bool `json:"epoch_end,omitempty"`
	// MRR is the epoch's validation MRR (epoch records; 0 when the epoch
	// was not evaluated).
	MRR float64 `json:"mrr,omitempty"`
	// CommMS is the epoch's communication time in milliseconds, as the
	// netsim cost model prices the metered traffic (epoch records).
	CommMS float64 `json:"comm_ms,omitempty"`
	// HitRatio is the epoch's hot-cache hit ratio (epoch records of the
	// HET-KG trainers).
	HitRatio float64 `json:"hit_ratio,omitempty"`
	// Metrics is the registry snapshot with timers excluded (iteration
	// records only).
	Metrics Snapshot `json:"metrics,omitempty"`
	// Wall holds the record's nondeterministic wall-clock readings.
	Wall *TimelineWall `json:"wall,omitempty"`
}

// TimelineEmitter appends timeline records for one run to a writer. It is
// not safe for concurrent use; the training loop emits from its scheduling
// goroutine.
type TimelineEmitter struct {
	reg   *Registry
	bw    *bufio.Writer
	enc   *json.Encoder
	every int
}

// NewTimelineEmitter writes the header line and returns an emitter that
// snapshots reg on each Emit. hdr.Kind is forced to TimelineKind and
// hdr.Every to the effective interval (DefaultTimelineEvery when
// unspecified). Call Flush when the run completes.
func NewTimelineEmitter(w io.Writer, reg *Registry, hdr TimelineHeader) (*TimelineEmitter, error) {
	if reg == nil {
		return nil, fmt.Errorf("metrics: timeline emitter needs a registry")
	}
	every := hdr.Every
	if every <= 0 {
		every = DefaultTimelineEvery
	}
	hdr.Kind = TimelineKind
	hdr.Every = every
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(hdr); err != nil {
		return nil, fmt.Errorf("metrics: encoding timeline header: %w", err)
	}
	return &TimelineEmitter{reg: reg, bw: bw, enc: enc, every: every}, nil
}

// Every returns the emission interval in iterations.
func (e *TimelineEmitter) Every() int { return e.every }

// ShouldEmit reports whether the given global iteration is on the emission
// grid.
func (e *TimelineEmitter) ShouldEmit(iter int) bool {
	return iter > 0 && iter%e.every == 0
}

// Emit writes one record. When rec.Metrics is nil it is filled with the
// registry's deterministic snapshot (timers excluded).
func (e *TimelineEmitter) Emit(rec TimelineRecord) error {
	if rec.Metrics == nil {
		rec.Metrics = e.reg.Snapshot().Deterministic()
	}
	if err := e.enc.Encode(rec); err != nil {
		return fmt.Errorf("metrics: encoding timeline record (iter %d): %w", rec.Iter, err)
	}
	return nil
}

// EmitEpoch writes the end-of-epoch record for s at global iteration iter.
func (e *TimelineEmitter) EmitEpoch(iter int, s EpochStat) error {
	rec := TimelineRecord{
		Iter:     iter,
		Epoch:    s.Epoch,
		Loss:     s.Loss,
		EpochEnd: true,
		MRR:      s.MRR,
		CommMS:   float64(s.Comm) / float64(time.Millisecond),
		HitRatio: s.HitRatio,
		Wall:     &TimelineWall{CompMS: float64(s.Comp) / float64(time.Millisecond)},
	}
	if err := e.enc.Encode(rec); err != nil {
		return fmt.Errorf("metrics: encoding timeline epoch %d: %w", s.Epoch, err)
	}
	return nil
}

// Flush drains the emitter's buffer to the underlying writer.
func (e *TimelineEmitter) Flush() error { return e.bw.Flush() }

// TimelineRun is a fully parsed timeline file.
type TimelineRun struct {
	Header  TimelineHeader
	Records []TimelineRecord
}

// ReadTimeline parses a timeline written by TimelineEmitter. A malformed
// final line is tolerated: a run killed mid-write (crash, SIGKILL, full
// disk) leaves a truncated trailing record, and the complete prefix is still
// a valid timeline. A malformed line followed by further records is real
// corruption and stays an error.
func ReadTimeline(r io.Reader) (*TimelineRun, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("metrics: empty timeline")
	}
	var run TimelineRun
	if err := json.Unmarshal(sc.Bytes(), &run.Header); err != nil {
		return nil, fmt.Errorf("metrics: parsing timeline header: %w", err)
	}
	if run.Header.Kind != TimelineKind {
		return nil, fmt.Errorf("metrics: not a timeline file (kind %q)", run.Header.Kind)
	}
	line := 1
	var pendingErr error // a parse failure that is fatal only if more data follows
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		if pendingErr != nil {
			return nil, pendingErr
		}
		var rec TimelineRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			pendingErr = fmt.Errorf("metrics: timeline line %d: %w", line, err)
			continue
		}
		run.Records = append(run.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: reading timeline: %w", err)
	}
	return &run, nil
}

// ReadTimelineFile parses the timeline at path.
func ReadTimelineFile(path string) (*TimelineRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("metrics: opening timeline %s: %w", path, err)
	}
	defer f.Close()
	return ReadTimeline(f)
}
