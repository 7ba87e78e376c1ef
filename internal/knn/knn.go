// Package knn provides exact nearest-neighbor search over embedding tables
// — the primary downstream consumption of trained KGE embeddings (similar
// entities for recommendation, candidate generation for QA, deduplication).
package knn

import (
	"fmt"

	"hetkg/internal/kg"
	"hetkg/internal/vec"
)

// Metric selects the similarity measure.
type Metric int

const (
	// Cosine similarity (higher = closer); zero vectors score 0.
	Cosine Metric = iota
	// Dot product (higher = closer).
	Dot
	// L2 ranks by negative Euclidean distance (higher = closer).
	L2
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case Cosine:
		return "cosine"
	case Dot:
		return "dot"
	case L2:
		return "l2"
	default:
		return "unknown"
	}
}

// ParseMetric converts "cosine" / "dot" / "l2" to a Metric.
func ParseMetric(s string) (Metric, error) {
	switch s {
	case "cosine":
		return Cosine, nil
	case "dot":
		return Dot, nil
	case "l2":
		return L2, nil
	default:
		return 0, fmt.Errorf("knn: unknown metric %q (want cosine, dot, or l2)", s)
	}
}

// Result is one neighbor: the row id and its similarity score.
type Result struct {
	ID    kg.EntityID `json:"id"`
	Score float32     `json:"score"`
}

// Index searches an embedding matrix exactly (brute force with a bounded
// heap — at KGE scales a scan is memory-bandwidth-bound and beats
// approximate structures until millions of rows).
type Index struct {
	m      *vec.Matrix
	metric Metric
	norms  []float32 // cached row l2 norms for Cosine
}

// New builds an index over m. The matrix is referenced, not copied; callers
// must not resize it while searching (updates to values are fine for Dot
// and L2; Cosine caches norms at construction).
func New(m *vec.Matrix, metric Metric) (*Index, error) {
	if m == nil || m.Rows == 0 {
		return nil, fmt.Errorf("knn: empty matrix")
	}
	ix := &Index{m: m, metric: metric}
	if metric == Cosine {
		ix.norms = make([]float32, m.Rows)
		for i := 0; i < m.Rows; i++ {
			ix.norms[i] = vec.L2(m.Row(i))
		}
	}
	return ix, nil
}

// Rows returns the number of indexed rows.
func (ix *Index) Rows() int { return ix.m.Rows }

// Scratch is reusable state for SearchInto: a caller-owned bounded heap
// that lets the hot path of a query server run without a single allocation
// per search. The zero Scratch is ready to use (the first search sizes it).
type Scratch struct {
	heap []Result
}

// Search returns the k most similar rows to query, most similar first.
// exclude (when ≥ 0) removes one row id from the results — pass the query's
// own id for "neighbors of entity X". Search allocates its result slice;
// allocation-sensitive callers should use SearchInto.
func (ix *Index) Search(query []float32, k int, exclude kg.EntityID) ([]Result, error) {
	if k <= 0 {
		return nil, nil
	}
	var s Scratch
	return ix.SearchInto(make([]Result, 0, k), query, k, exclude, &s)
}

// SearchInto is Search with caller-provided storage: results are written
// into dst (grown from dst[:0], so pass a slice with capacity ≥ k to avoid
// growth) and the bounded heap lives in scratch, which is reused across
// calls. After the scratch has warmed up to the largest k seen, a search
// performs no allocation.
func (ix *Index) SearchInto(dst []Result, query []float32, k int, exclude kg.EntityID, scratch *Scratch) ([]Result, error) {
	if len(query) != ix.m.Dim {
		return nil, fmt.Errorf("knn: query width %d, index width %d", len(query), ix.m.Dim)
	}
	if k <= 0 {
		return dst[:0], nil
	}
	var qNorm float32
	if ix.metric == Cosine {
		qNorm = vec.L2(query)
	}
	h := scratch.heap[:0]
	for i := 0; i < ix.m.Rows; i++ {
		if kg.EntityID(i) == exclude {
			continue
		}
		var s float32
		switch ix.metric {
		case Cosine:
			d := qNorm * ix.norms[i]
			if d > 0 {
				s = vec.Dot(query, ix.m.Row(i)) / d
			}
		case Dot:
			s = vec.Dot(query, ix.m.Row(i))
		case L2:
			s = -vec.L2Dist(query, ix.m.Row(i))
		}
		if len(h) < k {
			h = append(h, Result{ID: kg.EntityID(i), Score: s})
			siftUp(h, len(h)-1)
		} else if s > h[0].Score {
			h[0] = Result{ID: kg.EntityID(i), Score: s}
			siftDown(h, 0)
		}
	}
	scratch.heap = h // keep the grown backing array for the next call
	if cap(dst) < len(h) {
		dst = make([]Result, len(h))
	} else {
		dst = dst[:len(h)]
	}
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		siftDown(h, 0)
	}
	return dst, nil
}

// Neighbors returns the k nearest rows to row id (excluding itself).
func (ix *Index) Neighbors(id kg.EntityID, k int) ([]Result, error) {
	if int(id) < 0 || int(id) >= ix.m.Rows {
		return nil, fmt.Errorf("knn: id %d out of range [0,%d)", id, ix.m.Rows)
	}
	return ix.Search(ix.m.Row(int(id)), k, id)
}

// NeighborsInto is Neighbors with caller-provided storage (see SearchInto).
func (ix *Index) NeighborsInto(dst []Result, id kg.EntityID, k int, scratch *Scratch) ([]Result, error) {
	if int(id) < 0 || int(id) >= ix.m.Rows {
		return nil, fmt.Errorf("knn: id %d out of range [0,%d)", id, ix.m.Rows)
	}
	return ix.SearchInto(dst, ix.m.Row(int(id)), k, id, scratch)
}

// The heap is a min-heap on score, so the root is the weakest of the
// current top-k and can be displaced cheaply. Sift operations are hand
// rolled rather than going through container/heap: the interface boxing on
// heap.Push costs one allocation per displaced candidate, which SearchInto
// exists to avoid.

func siftUp(h []Result, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].Score <= h[i].Score {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func siftDown(h []Result, i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h[l].Score < h[small].Score {
			small = l
		}
		if r < n && h[r].Score < h[small].Score {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}
