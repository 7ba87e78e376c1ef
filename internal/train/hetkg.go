package train

import (
	"fmt"

	"hetkg/internal/cache"
)

// TrainHETKG runs the paper's system: the DGL-KE substrate plus a per-worker
// hot-embedding table built by prefetch (Algorithm 1) and filter
// (Algorithm 2), maintained under the partial-stale protocol (Algorithms
// 3/4). cfg.Cache.Strategy selects CPS (table fixed after a one-shot census)
// or DPS (table rebuilt from a D-iteration lookahead every D iterations).
func TrainHETKG(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Cache.Capacity < 0 {
		return nil, fmt.Errorf("train: negative cache capacity %d", cfg.Cache.Capacity)
	}
	name := "HET-KG-C"
	if cfg.Cache.Strategy == cache.DPS {
		name = "HET-KG-D"
	}
	return runPSTraining(&cfg, name, hetkgHook(&cfg))
}

// hetkgHook builds the HET-KG per-iteration hook: prefetch (Algorithm 1),
// hot-table construction via filter (Algorithm 2), and the CPS/DPS build
// policy. The one-shot CPS build is marked on the worker itself, so a
// worker built for an adopted (or re-adopted) partition builds its table
// once and then keeps it fixed.
func hetkgHook(cfg *Config) func(*worker) error {
	filterCfg := cache.FilterConfig{
		Capacity:       cfg.Cache.Capacity,
		EntityFraction: cfg.Cache.EntityFraction,
		Heterogeneity:  cfg.Cache.Heterogeneity,
	}
	return func(w *worker) error {
		// Staleness synchronization (Algorithm 3 lines 8–9) is per-row:
		// the cache expires entries older than P at Get time and the
		// worker re-pulls them with its ordinary batch pull, so refresh
		// traffic is metered through the normal path and only rows that
		// are actually used pay it.
		if len(w.queued) > 0 {
			return nil
		}
		// Queue exhausted: prefetch ahead (Algorithm 1).
		switch cfg.Cache.Strategy {
		case cache.CPS:
			d := cfg.Cache.PrefetchD
			if d <= 0 {
				d = w.smp.IterationsPerEpoch()
			}
			pre := cache.Prefetch(w.smp, d)
			w.queued = pre.Batches
			if !w.cpsBuilt {
				// One-shot construction from the whole-subgraph census.
				keys, err := cache.Filter(pre, filterCfg)
				if err != nil {
					return err
				}
				if err := w.hot.Build(keys, w.iteration); err != nil {
					return err
				}
				w.cpsBuilt = true
			}
		case cache.DPS:
			d := cfg.Cache.PrefetchD
			if d <= 0 {
				d = 16
			}
			pre := cache.Prefetch(w.smp, d)
			w.queued = pre.Batches
			// Rebuild the table from the short-term census every D
			// iterations (the rebuild is also a refresh, so DPS pays pull
			// traffic for the new table's values here).
			keys, err := cache.Filter(pre, filterCfg)
			if err != nil {
				return err
			}
			if err := w.hot.Build(keys, w.iteration); err != nil {
				return err
			}
		default:
			return fmt.Errorf("train: unknown cache strategy %v", cfg.Cache.Strategy)
		}
		return nil
	}
}
