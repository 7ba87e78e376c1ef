package train

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"hetkg/internal/cache"
	"hetkg/internal/vec"
)

// embeddingHash fingerprints the final tables bit for bit.
func embeddingHash(ents, rels *vec.Matrix) string {
	h := sha256.New()
	var buf [4]byte
	for _, m := range []*vec.Matrix{ents, rels} {
		for _, v := range m.Data {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestStaticTrainersGolden pins the static PS trainers' exact outcome on
// the test graph: final loss, validation MRR, remote bytes, cache hit ratio
// and a hash of the gathered embeddings. Training is bit-deterministic, so
// any change to the driver loop, worker construction or cache hook that
// alters what is trained shows here.
func TestStaticTrainersGolden(t *testing.T) {
	cases := []struct {
		name   string
		setup  func(*Config)
		train  func(Config) (*Result, error)
		loss   float64
		mrr    float64
		remote int64
		hit    float64
		hash   string
	}{
		{
			name:   "DGL-KE",
			train:  TrainDGLKE,
			loss:   1.5052881690749524,
			mrr:    0.19812920019694108,
			remote: 1876464,
			hit:    0,
			hash:   "b6e2aebd46818ac4",
		},
		{
			name:   "HET-KG-C",
			train:  TrainHETKG,
			loss:   1.5352116316937976,
			mrr:    0.2028115890345174,
			remote: 1700680,
			hit:    0.2671268039472934,
			hash:   "5d128344f0ed7839",
		},
		{
			name:   "HET-KG-D",
			setup:  func(c *Config) { c.Cache.Strategy = cache.DPS },
			train:  TrainHETKG,
			loss:   1.588712434917667,
			mrr:    0.2159774994520481,
			remote: 1682544,
			hit:    0.3070560721008499,
			hash:   "3b09f4e176e3f56c",
		},
		{
			// One process of a 3-machine deployment driving machine 2's
			// worker only (the others' shards stay in-process here).
			name: "HET-KG-D/local-2-of-3",
			setup: func(c *Config) {
				c.NumMachines = 3
				c.LocalMachines = []int{2}
				c.Cache.Strategy = cache.DPS
			},
			train:  TrainHETKG,
			loss:   4.329316964489408,
			mrr:    0.133609594062586,
			remote: 443752,
			hit:    0.32801472844430807,
			hash:   "dc5c8490a1c48ce2",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(t, 2)
			if tc.setup != nil {
				tc.setup(&cfg)
			}
			res, err := tc.train(cfg)
			if err != nil {
				t.Fatal(err)
			}
			loss := res.Epochs[len(res.Epochs)-1].Loss
			hash := embeddingHash(res.Entities, res.Relations)
			if loss != tc.loss || res.Final.MRR != tc.mrr || res.Traffic.RemoteBytes != tc.remote ||
				res.HitRatio != tc.hit || hash != tc.hash {
				t.Errorf("got loss %v mrr %v remote %d hit %v hash %q,\nwant loss %v mrr %v remote %d hit %v hash %q",
					loss, res.Final.MRR, res.Traffic.RemoteBytes, res.HitRatio, hash,
					tc.loss, tc.mrr, tc.remote, tc.hit, tc.hash)
			}
		})
	}
}
