package main

import (
	"sync"
	"time"

	"hetkg/internal/span"
)

// The benchmark's own spans (set-up steps, timed public calls, HTTP
// requests) sit on a pseudo row of their own and use span IDs far above
// the program's collectors, so the merged dump never aliases an ID.
const (
	benchMachine = -3
	benchWorker  = -4
	benchTrace   = uint64(1) << 62
	// collectorIDBase offsets spans from the collector the benchmark hands
	// to hosted shards and the query server.
	collectorIDBase = uint64(1) << 48
	benchIDBase     = uint64(1) << 52
)

// recorder collects the benchmark's own spans. A nil recorder records
// nothing, so untraced runs pay no cost.
type recorder struct {
	mu    sync.Mutex
	spans []span.Span
}

// add records a finished operation. sim marks a netsim-predicted duration
// (span.Span.Sim); every other span is measured wall time.
func (r *recorder) add(name string, start time.Time, d time.Duration, sim bool, rows int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span.Span{
		Trace: benchTrace, ID: benchIDBase + uint64(len(r.spans)) + 1,
		Name: name, Machine: benchMachine, Worker: benchWorker,
		StartNS: start.UnixNano(), DurNS: int64(d), Rows: rows,
		Shard: span.NoShard, Sim: sim,
	})
}

// timed runs f and records its wall time under name.
func (r *recorder) timed(name string, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	d := time.Since(start)
	r.add(name, start, d, false, 0)
	return d, err
}

// offsetIDs moves spans from a benchmark-owned collector into their own ID
// range. Parents are moved too when they point inside the same collector
// (query-server spans); shard spans keep theirs, which name the program's
// client-side RPC span carried in the wire header.
func offsetIDs(spans []span.Span, internalParents bool) []span.Span {
	out := make([]span.Span, len(spans))
	for i, s := range spans {
		s.ID += collectorIDBase
		if internalParents && s.Parent != 0 {
			s.Parent += collectorIDBase
		}
		out[i] = s
	}
	return out
}

// spanWindow is the part of a dump in which every tracer's ring still held
// all its spans: rings drop their oldest spans independently, so only
// traces whose root started after the latest ring start are complete.
type spanWindow struct {
	roots []span.Span
	spans []span.Span
}

func newWindow(spans []span.Span, root string) spanWindow {
	type row struct{ m, w int }
	first := map[row]int64{}
	for _, s := range spans {
		k := row{s.Machine, s.Worker}
		if v, ok := first[k]; !ok || s.StartNS < v {
			first[k] = s.StartNS
		}
	}
	var cutoff int64
	for _, v := range first {
		if v > cutoff {
			cutoff = v
		}
	}
	var w spanWindow
	keep := map[uint64]bool{}
	for _, s := range spans {
		if s.Name == root && s.StartNS >= cutoff {
			w.roots = append(w.roots, s)
			keep[s.Trace] = true
		}
	}
	for _, s := range spans {
		if keep[s.Trace] {
			w.spans = append(w.spans, s)
		}
	}
	return w
}

// durMS lists the durations in ms of the window's spans named name.
func (w spanWindow) durMS(name string) []float64 {
	var out []float64
	for _, s := range w.spans {
		if s.Name == name {
			out = append(out, ms(s.Duration()))
		}
	}
	return out
}

// perRoot is the total ms of spans named name per root span.
func (w spanWindow) perRoot(name string) float64 {
	sum := 0.0
	for _, d := range w.durMS(name) {
		sum += d
	}
	return ratio(sum, float64(len(w.roots)))
}

func (w spanWindow) rootMS() []float64 {
	out := make([]float64, len(w.roots))
	for i, s := range w.roots {
		out[i] = ms(s.Duration())
	}
	return out
}

// unattributed is the share of root time no direct child span covers.
func (w spanWindow) unattributed() float64 {
	a := span.Analyze(w.spans, 1)
	return ratio(float64(a.Total["other"]), float64(a.TotalBatch))
}
