package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"hetkg/internal/ckpt"
	"hetkg/internal/core"
	"hetkg/internal/kg"
	"hetkg/internal/knn"
	"hetkg/internal/metrics"
	"hetkg/internal/serve"
	"hetkg/internal/span"
)

// Serving workload: an open-loop Poisson ladder of offered rates against
// hetkg-serve's handler over loopback HTTP.
const (
	httpConns = 2
	// nominalRate is the rung whose latencies are the end-to-end numbers.
	nominalRate = 200.0
	// overloadRate is offered far above capacity, so completions per second
	// on that rung measure the server's capacity.
	overloadRate = 20000.0
	// p99LimitMS is the latency limit a ladder rung must meet to count
	// toward serve.max_rps.
	p99LimitMS = 25.0
	queryK     = 10
	// checkEvery samples HTTP answers on the nominal rung for comparison
	// with direct calls.
	checkEvery = 20
)

// ladder lists the offered rates; the first is the nominal rate.
var ladder = []float64{nominalRate, 400, 800, 1600}

const (
	qScore = iota
	qPredict
	qNeighbors
)

var kindNames = []string{"score", "predict", "neighbors"}

// kindShares is the query mix: the share of requests of each kind. The
// repository holds no record of real traffic, so the mix is the benchmark's
// own choice: mostly score, with shares set so each endpoint took about a
// third of the server's time at the service times measured at the nominal
// rate when the benchmark was written (HTTP included: score 0.42 ms,
// predict 4.1 ms, neighbors 1.25 ms). The traced run reports each
// endpoint's measured share (serve.*.time_share).
var kindShares = []float64{0.70, 0.07, 0.23}

type query struct {
	Kind    int
	H, R, T int
}

// drawQueries samples n queries from the graph's own triples, so entity
// popularity follows the generator's degree skew, with kinds drawn by
// kindShares.
func drawQueries(rng *rand.Rand, triples []kg.Triple, n int) []query {
	qs := make([]query, n)
	for i := range qs {
		t := triples[rng.Intn(len(triples))]
		q := query{H: int(t.Head), R: int(t.Relation), T: int(t.Tail)}
		u := rng.Float64()
		for q.Kind < len(kindShares)-1 && u >= kindShares[q.Kind] {
			u -= kindShares[q.Kind]
			q.Kind++
		}
		qs[i] = q
	}
	return qs
}

func (q query) path() string {
	switch q.Kind {
	case qScore:
		return fmt.Sprintf("/v1/score?head=%d&relation=%d&tail=%d", q.H, q.R, q.T)
	case qPredict:
		return fmt.Sprintf("/v1/predict?entity=%d&relation=%d&k=%d", q.H, q.R, queryK)
	default:
		return fmt.Sprintf("/v1/neighbors?entity=%d&k=%d", q.H, queryK)
	}
}

// answer is a query's result in comparable form: score bits or ranked ids
// with score bits.
type answer struct {
	Score   uint32
	Results []knn.Result
}

func (a answer) equal(b answer) bool {
	if a.Score != b.Score || len(a.Results) != len(b.Results) {
		return false
	}
	for i := range a.Results {
		x, y := a.Results[i], b.Results[i]
		if x.ID != y.ID || math.Float32bits(x.Score) != math.Float32bits(y.Score) {
			return false
		}
	}
	return true
}

func parseAnswer(kind int, body []byte) (answer, error) {
	if kind == qScore {
		var v struct {
			Score float32 `json:"score"`
		}
		err := json.Unmarshal(body, &v)
		return answer{Score: math.Float32bits(v.Score)}, err
	}
	var v struct {
		Results []knn.Result `json:"results"`
	}
	err := json.Unmarshal(body, &v)
	return answer{Results: v.Results}, err
}

// direct answers q through the QueryServer's Go API.
func direct(s *serve.Server, q query) (answer, error) {
	switch q.Kind {
	case qScore:
		v, err := s.ScoreTriple(q.H, q.R, q.T)
		return answer{Score: math.Float32bits(v)}, err
	case qPredict:
		res, err := s.PredictInto(nil, q.H, q.R, true, queryK)
		return answer{Results: res}, err
	default:
		res, err := s.NeighborsInto(nil, q.H, queryK)
		return answer{Results: res}, err
	}
}

// servedModel is one set-up's query server on a counting loopback listener.
type servedModel struct {
	srv  *serve.Server
	reg  *metrics.Registry
	l    *countingListener
	http *http.Server
	done chan struct{}
}

func startServer(ck *ckpt.Checkpoint, tracer *span.Tracer) (*servedModel, error) {
	reg := metrics.NewRegistry()
	srv, err := serve.New(serve.Config{Checkpoint: ck, Parallelism: parallelism, Registry: reg, Tracer: tracer})
	if err != nil {
		return nil, err
	}
	l, err := listenCounting("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	m := &servedModel{srv: srv, reg: reg, l: l, http: &http.Server{Handler: srv.Handler()}, done: make(chan struct{})}
	go func() {
		defer close(m.done)
		_ = m.http.Serve(l) // returns http.ErrServerClosed on Shutdown
	}()
	return m, nil
}

func (m *servedModel) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = m.http.Shutdown(ctx) // a timeout leaves only idle keep-alives behind
	<-m.done
	m.srv.Close()
}

// serveSetup is one full serving set-up.
type serveSetup struct {
	gs                *graphSetup
	total             time.Duration
	trainMRR          float64
	ck                *ckpt.Checkpoint
	writeDur, readDur time.Duration
	model             *servedModel
}

func setupServe(seed int64, dir string, rec *recorder) (*serveSetup, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	gs, err := setupGraph(seed, filepath.Join(dir, "artifacts"), rec)
	if err != nil {
		return nil, err
	}
	ss := &serveSetup{gs: gs}
	rc := runConfig(gs.graph, core.SystemHETKGD, seed)
	rc.Artifacts = gs.store
	var ck *ckpt.Checkpoint
	if _, err := rec.timed("bench.setup.train_ckpt", func() error {
		res, err := core.Run(rc)
		if err != nil {
			return err
		}
		ss.trainMRR = res.Final.MRR
		ck = &ckpt.Checkpoint{ModelName: rc.ModelName, Dim: rc.Dim, Dataset: gs.graph.Name, Seed: seed,
			Epochs: rc.Epochs, System: res.System, Entities: res.Entities, Relations: res.Relations}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("checkpoint training: %w", err)
	}
	path := filepath.Join(dir, "model.ckpt")
	if ss.writeDur, err = rec.timed("bench.ckpt.write", func() error { return ckpt.WriteFile(path, ck) }); err != nil {
		return nil, err
	}
	if ss.readDur, err = rec.timed("bench.ckpt.read", func() error {
		ss.ck, err = ckpt.ReadFile(path)
		return err
	}); err != nil {
		return nil, err
	}
	if _, err := rec.timed("bench.setup.server", func() error {
		ss.model, err = startServer(ss.ck, nil)
		return err
	}); err != nil {
		return nil, err
	}
	ss.total = time.Since(start)
	rec.add("bench.setup", start, ss.total, false, 0)
	return ss, nil
}

// rung is one offered rate's outcome.
type rung struct {
	rate     float64
	dur      time.Duration
	queries  []query
	samples  []sample
	elapsed  time.Duration
	failed   int
	bodies   map[int][]byte // sampled answers (nominal rung)
	p50, p99 float64
	backlog  bool
}

// completionRate is the median, over the rung's whole seconds, of the
// requests completed in each; rungs shorter than a second give their mean
// rate.
func (g *rung) completionRate() float64 {
	full := int(g.elapsed / time.Second)
	perSec := make([]float64, full+1)
	for _, s := range g.samples {
		if s.Err == nil {
			perSec[int(s.Done/time.Second)]++
		}
	}
	if full == 0 {
		return perSec[0] / g.elapsed.Seconds()
	}
	return median(perSec[:full]) // the last second is partial
}

func (g *rung) ok() bool { return g.failed == 0 && !g.backlog && g.p99 <= p99LimitMS }

// runRung drives one open-loop rung against base. When rec is non-nil each
// request is recorded as a span.
func runRung(client *http.Client, base string, rate float64, dur time.Duration, rng *rand.Rand,
	triples []kg.Triple, keep bool, stop time.Duration, rec *recorder) *rung {

	due := poissonSchedule(rng, rate, dur)
	g := &rung{rate: rate, dur: dur, queries: drawQueries(rng, triples, len(due)), bodies: map[int][]byte{}}
	bodies := make([][]byte, len(due))
	g.samples, g.elapsed = runOpenLoop(due, httpConns, stop, func(i int) error {
		q := g.queries[i]
		t0 := time.Now()
		resp, err := client.Get(base + q.path())
		if err == nil {
			var body []byte
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d: %s", resp.StatusCode, body)
			}
			if err == nil && keep && i%checkEvery == 0 {
				bodies[i] = body
			}
		}
		rec.add("bench.http."+kindNames[q.Kind], t0, time.Since(t0), false, 0)
		return err
	})
	lat := make([]float64, 0, len(g.samples))
	for _, s := range g.samples {
		if s.Err != nil {
			g.failed++
			continue
		}
		lat = append(lat, ms(s.Latency()))
		if b := bodies[s.Index]; b != nil {
			g.bodies[s.Index] = b
		}
	}
	g.p50, g.p99 = quantile(lat, 0.5), quantile(lat, 0.99)
	// A growing backlog shows as the generator running late at the end of
	// the rung: the median lag of the last tenth of requests.
	if n := len(g.samples); n > 0 {
		var tail []float64
		for _, s := range g.samples[n-n/10-1:] {
			tail = append(tail, ms(s.Lag()))
		}
		g.backlog = median(tail) > p99LimitMS
	}
	return g
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     httpConns,
			MaxIdleConnsPerHost: httpConns,
			DisableCompression:  true,
		},
	}
}

func runServe(seed int64, budget time.Duration, traced bool, dir string, rec *recorder, r *report) ([]span.Span, error) {
	var setups, gens, parts, writes, reads []float64
	var ss *serveSetup
	for i := 0; i < minReps; i++ {
		if ss != nil {
			ss.model.close()
		}
		var err error
		if ss, err = setupServe(seed, filepath.Join(dir, fmt.Sprintf("setup%d", i)), rec); err != nil {
			return nil, err
		}
		setups = append(setups, ss.total.Seconds())
		gens = append(gens, ss.gs.genDur.Seconds())
		parts = append(parts, ss.gs.partDur.Seconds())
		writes = append(writes, ss.writeDur.Seconds())
		reads = append(reads, ss.readDur.Seconds())
	}
	defer func() { ss.model.close() }()
	m := ss.model
	triples := ss.gs.split.Train.Triples
	client := newClient()
	defer client.CloseIdleConnections()
	base := "http://" + m.l.Addr().String()

	// Warm the connections, the hot tier and the batcher before timing.
	warm := runRung(client, base, nominalRate, 500*time.Millisecond, rand.New(rand.NewSource(seed)), triples, false, 0, nil)
	bytesBefore := m.l.Bytes()
	resetPeakRSS()

	rungs := make([]*rung, len(ladder))
	for i, rate := range ladder {
		frac := 0.1
		if i == 0 {
			frac = 0.5
		}
		d := time.Duration(frac * float64(budget))
		rungs[i] = runRung(client, base, rate, d, rand.New(rand.NewSource(seed*31+int64(i))), triples, i == 0, 0, nil)
	}
	overDur := time.Duration(0.2 * float64(budget))
	over := runRung(client, base, overloadRate, overDur, rand.New(rand.NewSource(seed*31+99)), triples, false, overDur, nil)
	sent := len(warm.samples) + len(over.samples)
	failed := warm.failed + over.failed
	for _, g := range rungs {
		sent += len(g.samples)
		failed += g.failed
	}
	r.Attempted, r.Failed = int64(sent), int64(failed)
	nom := rungs[0]
	okOver := float64(len(over.samples) - over.failed)

	served, err := evaluate(ss.gs, ss.ck.Entities, ss.ck.Relations, seed)
	if err != nil {
		return nil, err
	}
	r.expect("checkpoint round trip keeps MRR", served.MRR == ss.trainMRR,
		"served tables %.6f vs trained %.6f", served.MRR, ss.trainMRR)

	// HTTP answers must equal direct QueryServer calls bit for bit.
	checked, mismatched := 0, 0
	for i, body := range nom.bodies {
		q := nom.queries[i]
		got, err := parseAnswer(q.Kind, body)
		want, derr := direct(m.srv, q)
		checked++
		if err != nil || derr != nil || !got.equal(want) {
			mismatched++
		}
	}
	r.expect("HTTP equals direct calls", checked > 0 && mismatched == 0,
		"%d sampled answers, %d differ", checked, mismatched)

	r.E2E["setup_s"] = median(setups)
	r.E2E["throughput_per_s"] = over.completionRate()
	r.E2E["latency_p50_ms"] = nom.p50
	r.E2E["bytes_per_op"] = float64(m.l.Bytes()-bytesBefore) / float64(sent-len(warm.samples))
	r.E2E["mrr"] = served.MRR
	r.E2E["peak_rss_mb"] = peakRSSMB()
	maxRPS := 0.0
	for _, g := range rungs {
		r.note("rung %6.0f req/s: %5d sent, p50 %.3f ms, p99 %.3f ms, %d failed, backlog %v",
			g.rate, len(g.samples), g.p50, g.p99, g.failed, g.backlog)
		if g.ok() && g.rate > maxRPS {
			maxRPS = g.rate
		}
	}
	r.note("overload %0.f req/s offered: %d completed in %v", overloadRate, int(okOver), over.elapsed.Round(time.Millisecond))
	r.note("nominal rung: %d samples; p99 limit %.0f ms", len(nom.samples), p99LimitMS)

	L := r.Layers
	L["dataset.gen_s"] = median(gens)
	L["partition.s"] = median(parts)
	L["partition.cut_share"] = ss.gs.cut
	L["artifact.hits"] = float64(ss.gs.store.Hits())
	L["artifact.misses"] = float64(ss.gs.store.Misses())
	L["ckpt.write_s"] = median(writes)
	L["ckpt.read_s"] = median(reads)
	L["serve.max_rps"] = maxRPS
	var lags []float64
	for _, s := range nom.samples {
		lags = append(lags, ms(s.Lag()))
	}
	L["loadgen.lag_ms.p99"] = quantile(lags, 0.99)
	L["loadgen.latency_ms.p99"] = nom.p99
	// Each endpoint's share of the server's time: the service time (send to
	// last byte read) of the nominal rung's requests, summed per kind.
	busy := make([]float64, len(kindNames))
	for _, s := range nom.samples {
		if s.Err == nil {
			busy[nom.queries[s.Index].Kind] += s.Service().Seconds()
		}
	}
	total := busy[qScore] + busy[qPredict] + busy[qNeighbors]
	for k, name := range kindNames {
		L["serve."+name+".time_share"] = ratio(busy[k], total)
	}
	if h := m.reg.Histogram(metrics.MServeBatchSize); h.Count() > 0 {
		L["serve.batch_size.mean"] = h.Sum() / float64(h.Count())
	}
	hits := float64(m.reg.Counter(metrics.MServeCacheHits).Value())
	misses := float64(m.reg.Counter(metrics.MServeCacheMisses).Value())
	L["serve.cache.hit_ratio"] = ratio(hits, hits+misses)

	if !traced {
		return nil, nil
	}
	return traceServe(seed, ss, rungs, client, rec, r)
}

// traceServe makes the traced serving measurements: direct calls replaying
// the ladder's query stream, knn searches, and the nominal rung again
// against a second server with span tracing on.
func traceServe(seed int64, ss *serveSetup, rungs []*rung, client *http.Client, rec *recorder, r *report) ([]span.Span, error) {
	L := r.Layers
	m := ss.model
	byKind := make([][]float64, len(kindNames))
	nomDirect := map[int]float64{}
	for ri, g := range rungs {
		for i, q := range g.queries {
			t0 := time.Now()
			if _, err := direct(m.srv, q); err != nil {
				return nil, err
			}
			d := time.Since(t0)
			rec.add("bench.direct."+kindNames[q.Kind], t0, d, false, 0)
			byKind[q.Kind] = append(byKind[q.Kind], ms(d))
			if ri == 0 {
				nomDirect[i] = ms(d)
			}
		}
	}
	L["serve.score_us.p50"] = quantile(byKind[qScore], 0.5) * 1000
	L["serve.score_us.p99"] = quantile(byKind[qScore], 0.99) * 1000
	L["serve.predict_ms.p50"] = quantile(byKind[qPredict], 0.5)
	L["serve.predict_ms.p99"] = quantile(byKind[qPredict], 0.99)
	L["serve.neighbors_ms.p50"] = quantile(byKind[qNeighbors], 0.5)
	L["serve.neighbors_ms.p99"] = quantile(byKind[qNeighbors], 0.99)
	var over []float64
	for _, s := range rungs[0].samples {
		if d, ok := nomDirect[s.Index]; ok && s.Err == nil {
			over = append(over, ms(s.Service())-d)
		}
	}
	L["serve.http_overhead_ms.p50"] = quantile(over, 0.5)

	idx, err := knn.New(ss.ck.Entities, knn.Metric(0))
	if err != nil {
		return nil, err
	}
	var sc knn.Scratch
	var dst []knn.Result
	var searches []float64
	for _, q := range rungs[0].queries {
		row := ss.ck.Entities.Row(q.H)
		t0 := time.Now()
		if dst, err = idx.SearchInto(dst, row, queryK, kg.EntityID(q.H), &sc); err != nil {
			return nil, err
		}
		d := time.Since(t0)
		rec.add("bench.direct.knn", t0, d, false, 0)
		searches = append(searches, ms(d))
	}
	L["knn.search_ms.p50"] = quantile(searches, 0.5)
	L["knn.search_ms.p99"] = quantile(searches, 0.99)

	coll := span.NewCollector(span.CollectorConfig{Every: 1, Capacity: 1 << 16})
	tm, err := startServer(ss.ck, coll.Tracer(0, 0))
	if err != nil {
		return nil, err
	}
	nom := rungs[0]
	tr := runRung(client, "http://"+tm.l.Addr().String(), nominalRate, nom.dur,
		rand.New(rand.NewSource(seed*31)), ss.gs.split.Train.Triples, false, 0, rec)
	tm.close()
	L["trace.overhead_share"] = ratio(tr.p50-nom.p50, nom.p50)
	r.note("traced nominal rung: p50 %.3f ms vs untraced %.3f ms", tr.p50, nom.p50)
	return offsetIDs(coll.Drain(), true), nil
}
