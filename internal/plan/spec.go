package plan

import (
	"flag"
	"fmt"
	"reflect"
	"sort"
	"strings"

	"hetkg/internal/core"
	"hetkg/internal/dataset"
	"hetkg/internal/model"
)

// RunSpec is the declarative surface of one training run: every knob a plan
// file or a hetkg-train flag may set, and nothing deployment-specific
// (shard addresses, checkpoint paths, observability sinks — those belong to
// the process, not the experiment). It is the single source of truth three
// consumers share, so they cannot drift:
//
//   - the YAML loader decodes plan `run:` and `sweep:` keys into it (the
//     `plan:"..."` tags name the keys; scripts/check.sh lints that each is
//     documented in DESIGN.md §14);
//   - BindFlags registers the equivalent hetkg-train flags onto it;
//   - RunConfig() is the one mapping from either source to core.RunConfig.
//
// Field semantics are documented on core.RunConfig; zero values defer to
// the scale-derived defaults there.
type RunSpec struct {
	Dataset     string  `plan:"dataset"`
	Scale       string  `plan:"scale"`
	System      string  `plan:"system"`
	Model       string  `plan:"model"`
	Loss        string  `plan:"loss"`
	Optimizer   string  `plan:"optimizer"`
	Margin      float64 `plan:"margin"`
	Dim         int     `plan:"dim"`
	LR          float64 `plan:"lr"`
	Epochs      int     `plan:"epochs"`
	Batch       int     `plan:"batch"`
	Negs        int     `plan:"negs"`
	Chunk       int     `plan:"chunk"`
	Machines    int     `plan:"machines"`
	Workers     int     `plan:"workers"`
	Partitioner string  `plan:"partitioner"`
	// Cache is the absolute hot-table capacity; CacheBudget the fractional
	// spelling (of the entity+relation universe). Cache wins when both set.
	Cache           int     `plan:"cache"`
	CacheBudget     float64 `plan:"cacheBudget"`
	Staleness       int     `plan:"staleness"`
	Prefetch        int     `plan:"prefetch"`
	EntityRatio     float64 `plan:"entityRatio"`
	NoHeterogeneity bool    `plan:"noHeterogeneity"`
	Codec           string  `plan:"codec"`
	TopKRatio       float64 `plan:"topkRatio"`
	Adversarial     float64 `plan:"adversarial"`
	DegreeNegatives bool    `plan:"degreeNegatives"`
	Parallelism     int     `plan:"parallelism"`
	EvalEvery       int     `plan:"evalEvery"`
	EvalMax         int     `plan:"evalMax"`
	Seed            int64   `plan:"seed"`
}

// DefaultSpec returns the repo-wide run defaults — identical to the
// hetkg-train flag defaults, because BindFlags registers these values.
func DefaultSpec() RunSpec {
	return RunSpec{
		Dataset:     "fb15k",
		Scale:       "small",
		System:      "hetkg-d",
		Model:       "transe",
		Loss:        "logistic",
		Optimizer:   "adagrad",
		Margin:      1.0,
		LR:          0.1,
		Negs:        8,
		Chunk:       8,
		Machines:    4,
		Workers:     1,
		Partitioner: "metis",
		Staleness:   8,
		Prefetch:    16,
		EntityRatio: 0.25,
		Seed:        42,
	}
}

// Normalize fills every defaulted field, so two specs that differ only in
// spelling out a default hash identically. Fields left zero after
// Normalize (dim, epochs, batch, cache, ...) mean "scale-derived default"
// and hash as zero — core resolves them deterministically from Scale.
func (s *RunSpec) Normalize() {
	d := DefaultSpec()
	v := reflect.ValueOf(s).Elem()
	dv := reflect.ValueOf(d)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			v.Field(i).Set(dv.Field(i))
		}
	}
}

// systems maps the flag/plan spelling to the core system.
var systems = map[string]core.System{
	"pbg":     core.SystemPBG,
	"dglke":   core.SystemDGLKE,
	"hetkg-c": core.SystemHETKGC,
	"hetkg-d": core.SystemHETKGD,
}

// ParseSystem resolves a system name ("pbg", "dglke", "hetkg-c", "hetkg-d").
func ParseSystem(name string) (core.System, error) {
	sys, ok := systems[name]
	if !ok {
		names := make([]string, 0, len(systems))
		for n := range systems {
			names = append(names, n)
		}
		sort.Strings(names)
		return "", fmt.Errorf("plan: unknown system %q (have %s)", name, strings.Join(names, ", "))
	}
	return sys, nil
}

// RunConfig maps the spec to an executable core.RunConfig — the one
// flag-or-YAML→config builder. Deployment fields (ShardAddrs, JoinAddr,
// timelines, spans, metrics) are left zero for the caller to overlay.
func (s RunSpec) RunConfig() (core.RunConfig, error) {
	s.Normalize()
	sys, err := ParseSystem(s.System)
	if err != nil {
		return core.RunConfig{}, err
	}
	return core.RunConfig{
		Dataset:                 s.Dataset,
		Scale:                   dataset.ParseScale(s.Scale),
		System:                  sys,
		ModelName:               s.Model,
		LossName:                s.Loss,
		OptimizerName:           s.Optimizer,
		Margin:                  float32(s.Margin),
		Dim:                     s.Dim,
		LR:                      float32(s.LR),
		Epochs:                  s.Epochs,
		BatchSize:               s.Batch,
		NegPerPos:               s.Negs,
		ChunkSize:               s.Chunk,
		Machines:                s.Machines,
		WorkersPerMachine:       s.Workers,
		PartitionerName:         s.Partitioner,
		CacheCapacity:           s.Cache,
		CacheBudget:             s.CacheBudget,
		CacheSyncEvery:          s.Staleness,
		CachePrefetchD:          s.Prefetch,
		EntityFraction:          s.EntityRatio,
		NoHeterogeneity:         s.NoHeterogeneity,
		Codec:                   s.Codec,
		TopKRatio:               s.TopKRatio,
		AdversarialTemp:         float32(s.Adversarial),
		DegreeWeightedNegatives: s.DegreeNegatives,
		Parallelism:             s.Parallelism,
		EvalEvery:               s.EvalEvery,
		EvalMax:                 s.EvalMax,
		Seed:                    s.Seed,
	}, nil
}

// BindFlags registers the run-configuration flags (the experiment-semantic
// subset of hetkg-train's surface) onto fs, bound to the returned spec.
// Flag names and defaults are the historical hetkg-train spellings.
func BindFlags(fs *flag.FlagSet) *RunSpec {
	s := DefaultSpec()
	fs.StringVar(&s.Dataset, "dataset", s.Dataset, "dataset preset: fb15k | wn18 | freebase86m")
	fs.StringVar(&s.Scale, "scale", s.Scale, "dataset scale: tiny | small | paper")
	fs.StringVar(&s.System, "system", s.System, "system: pbg | dglke | hetkg-c | hetkg-d")
	fs.StringVar(&s.Model, "model", s.Model, "model: "+strings.Join(model.Names(), " | "))
	fs.StringVar(&s.Loss, "loss", s.Loss, "loss: logistic | ranking")
	fs.StringVar(&s.Optimizer, "optimizer", s.Optimizer, "optimizer: adagrad | sgd | adam")
	fs.Float64Var(&s.Margin, "margin", s.Margin, "ranking-loss margin γ")
	fs.IntVar(&s.Dim, "dim", s.Dim, "embedding dimension d (0 = scale default)")
	fs.Float64Var(&s.LR, "lr", s.LR, "AdaGrad learning rate")
	fs.IntVar(&s.Epochs, "epochs", s.Epochs, "training epochs (0 = scale default)")
	fs.IntVar(&s.Batch, "batch", s.Batch, "positive batch size b_p (0 = scale default)")
	fs.IntVar(&s.Negs, "negs", s.Negs, "negatives per positive b_n")
	fs.IntVar(&s.Chunk, "chunk", s.Chunk, "negative-sampling chunk size b_c")
	fs.IntVar(&s.Machines, "machines", s.Machines, "cluster machines (PS shards)")
	fs.IntVar(&s.Workers, "workers", s.Workers, "workers per machine")
	fs.StringVar(&s.Partitioner, "partitioner", s.Partitioner, "graph partitioner: metis | random")
	fs.IntVar(&s.Cache, "cache", s.Cache, "hot-embedding table capacity k (0 = -cache-budget, else 5% of ids)")
	fs.Float64Var(&s.CacheBudget, "cache-budget", s.CacheBudget, "hot table size as a fraction of the entity+relation universe (0 = default; ignored when -cache is set)")
	fs.IntVar(&s.Staleness, "staleness", s.Staleness, "staleness bound P (cache refresh interval)")
	fs.IntVar(&s.Prefetch, "prefetch", s.Prefetch, "prefetch depth D (DPS rebuild interval)")
	fs.Float64Var(&s.EntityRatio, "entity-ratio", s.EntityRatio, "entity share of the cache (heterogeneity quota)")
	fs.BoolVar(&s.NoHeterogeneity, "no-heterogeneity", s.NoHeterogeneity, "disable the entity/relation quota (HET-KG-N)")
	fs.StringVar(&s.Codec, "codec", s.Codec, "wire codec profile: fp32 | fp16 | int8 | delta-int8 | topk | auto (default fp32)")
	fs.Float64Var(&s.TopKRatio, "topk-ratio", s.TopKRatio, "kept gradient fraction per row for -codec topk (0 = default 0.125)")
	fs.Float64Var(&s.Adversarial, "adversarial", s.Adversarial, "self-adversarial negative sampling temperature (0 = off)")
	fs.BoolVar(&s.DegreeNegatives, "degree-negatives", s.DegreeNegatives, "corrupt with degree^0.75-weighted entities (hard negatives)")
	fs.IntVar(&s.Parallelism, "parallelism", s.Parallelism, "cores for batch compute and evaluation (0 = all; results identical at any value)")
	fs.IntVar(&s.EvalEvery, "eval-every", s.EvalEvery, "epochs between validation evaluations (0 = every epoch; larger than -epochs defers to the final evaluation only)")
	fs.IntVar(&s.EvalMax, "eval-max", s.EvalMax, "validation triples scored per evaluation (0 = default 300)")
	fs.Int64Var(&s.Seed, "seed", s.Seed, "random seed")
	return &s
}

// specFields enumerates the plan-tagged fields, sorted by key — the shared
// walk under decoding, hashing, and key listing.
func specFields() []reflect.StructField {
	t := reflect.TypeOf(RunSpec{})
	fields := make([]reflect.StructField, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		if t.Field(i).Tag.Get("plan") != "" {
			fields = append(fields, t.Field(i))
		}
	}
	sort.Slice(fields, func(i, j int) bool {
		return fields[i].Tag.Get("plan") < fields[j].Tag.Get("plan")
	})
	return fields
}

// SpecKeys lists every plan key, sorted — the schema surface the DESIGN.md
// §14 lint covers.
func SpecKeys() []string {
	fields := specFields()
	keys := make([]string, len(fields))
	for i, f := range fields {
		keys[i] = f.Tag.Get("plan")
	}
	return keys
}

// setSpecKey assigns one decoded YAML value to its spec field.
func setSpecKey(s *RunSpec, key string, val any) error {
	for _, f := range specFields() {
		if f.Tag.Get("plan") != key {
			continue
		}
		fv := reflect.ValueOf(s).Elem().FieldByIndex(f.Index)
		return coerce(fv, key, val)
	}
	return fmt.Errorf("plan: unknown run key %q (have %s)", key, strings.Join(SpecKeys(), ", "))
}

// coerce converts a parsed YAML scalar into a spec field.
func coerce(fv reflect.Value, key string, val any) error {
	if val == nil {
		return fmt.Errorf("plan: key %q has no value", key)
	}
	switch fv.Kind() {
	case reflect.String:
		s, ok := val.(string)
		if !ok {
			return fmt.Errorf("plan: key %q wants a string, got %v (%T)", key, val, val)
		}
		fv.SetString(s)
	case reflect.Int, reflect.Int64:
		n, ok := val.(int64)
		if !ok {
			return fmt.Errorf("plan: key %q wants an integer, got %v (%T)", key, val, val)
		}
		fv.SetInt(n)
	case reflect.Float64:
		switch n := val.(type) {
		case float64:
			fv.SetFloat(n)
		case int64:
			fv.SetFloat(float64(n))
		default:
			return fmt.Errorf("plan: key %q wants a number, got %v (%T)", key, val, val)
		}
	case reflect.Bool:
		b, ok := val.(bool)
		if !ok {
			return fmt.Errorf("plan: key %q wants true/false, got %v (%T)", key, val, val)
		}
		fv.SetBool(b)
	default:
		return fmt.Errorf("plan: key %q has unsupported field kind %s", key, fv.Kind())
	}
	return nil
}
