package core

import (
	"fmt"
	"math/rand"
	"os"

	"hetkg/internal/dataset"
	"hetkg/internal/kg"
	"hetkg/internal/model"
	"hetkg/internal/opt"
	"hetkg/internal/partition"
	"hetkg/internal/ps"
	"hetkg/internal/train"
)

// Multi-process deployment: every process — the trainer and each
// cmd/hetkg-ps shard — derives the identical cluster state from the same
// RunConfig, because dataset generation, the train/valid/test split, the
// graph partition, and per-key embedding initialization are all pure
// functions of the config's seeds. A shard process therefore needs no state
// transfer at startup: it computes its own rows and starts serving.

// clusterSpec derives the parameter-server cluster configuration a
// RunConfig implies (after the same preprocessing Run performs).
func clusterSpec(rc RunConfig) (ps.ClusterConfig, error) {
	rc.defaults()
	g := rc.Graph
	if g == nil {
		var ok bool
		g, ok = dataset.ByNameCached(rc.Dataset, rc.Scale, rc.Seed, rc.Artifacts)
		if !ok {
			return ps.ClusterConfig{}, fmt.Errorf("core: unknown dataset %q", rc.Dataset)
		}
	}
	sp, err := kg.SplitTriples(g, rand.New(rand.NewSource(rc.Seed+17)), 0.05, 0.05)
	if err != nil {
		return ps.ClusterConfig{}, err
	}
	if rc.InverseRelations {
		sp.Train = kg.AddInverses(sp.Train)
	}
	mdl, err := model.New(rc.ModelName)
	if err != nil {
		return ps.ClusterConfig{}, err
	}
	part, err := partition.New(rc.PartitionerName, rc.Seed)
	if err != nil {
		return ps.ClusterConfig{}, err
	}
	pr, err := partition.Cached(part, rc.Artifacts).Partition(sp.Train, rc.Machines)
	if err != nil {
		return ps.ClusterConfig{}, err
	}
	lr := rc.LR
	name := rc.OptimizerName
	if name == "" {
		name = "adagrad"
	}
	if _, err := opt.New(name, lr); err != nil {
		return ps.ClusterConfig{}, err
	}
	return ps.ClusterConfig{
		NumMachines:  rc.Machines,
		EntityPart:   pr.EntityPart,
		NumRelations: g.NumRel,
		EntityDim:    mdl.EntityDim(rc.Dim),
		RelationDim:  mdl.RelationDim(rc.Dim),
		NewOptimizer: func() opt.Optimizer {
			o, _ := opt.New(name, lr)
			return o
		},
		Seed: rc.Seed,
	}, nil
}

// runElastic joins the cluster at rc.JoinAddr and trains whatever the
// coordinator assigns (Run's elastic-mode dispatch). The registration
// happens here rather than in the trainer because the join reply's shard
// list is needed to build the transport.
func runElastic(rc RunConfig, tc train.Config) (*train.Result, error) {
	switch rc.System {
	case SystemDGLKE, SystemHETKGC, SystemHETKGD:
	default:
		return nil, fmt.Errorf("core: system %q does not support elastic mode", rc.System)
	}
	label := rc.WorkerLabel
	if label == "" {
		host, _ := os.Hostname()
		label = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	// Bound each membership round trip relative to the heartbeat cadence,
	// so a dead coordinator surfaces within a few intervals.
	cc, err := ps.DialCoordinator(rc.JoinAddr, 3*rc.HeartbeatInterval)
	if err != nil {
		return nil, err
	}
	defer cc.Close()
	join, err := cc.Join(ps.JoinRequest{Label: label, Preferred: rc.LocalMachines})
	if err != nil {
		return nil, fmt.Errorf("core: joining cluster at %s: %w", rc.JoinAddr, err)
	}
	if join.Partitions != rc.Machines {
		return nil, fmt.Errorf("core: coordinator runs %d partitions, -machines says %d (all processes must share the run configuration)",
			join.Partitions, rc.Machines)
	}
	if len(join.ShardAddrs) != rc.Machines {
		return nil, fmt.Errorf("core: coordinator advertised %d shard addresses for %d machines",
			len(join.ShardAddrs), rc.Machines)
	}
	codec := rc.Codec
	addrs := join.ShardAddrs
	lcfg := rc.linkConfig()
	tc.NewTransport = func(*ps.Cluster) (ps.Transport, error) {
		return ps.DialTCPLink(addrs, codec, lcfg)
	}
	tc.Elastic = &train.ElasticConfig{
		Coordinator:    cc,
		Join:           join,
		Label:          label,
		HeartbeatEvery: rc.HeartbeatInterval,
		CkptDir:        rc.CkptDir,
		RecoverFrom:    rc.RecoverFrom,
		CkptEvery:      rc.CkptEvery,
		Logf:           rc.ClusterLogf,
	}
	return runSystem(rc.System, tc)
}

// BuildShard constructs the single parameter-server shard that machine m of
// the given run owns — what a cmd/hetkg-ps process hosts.
func BuildShard(rc RunConfig, machine int) (*ps.Server, error) {
	spec, err := clusterSpec(rc)
	if err != nil {
		return nil, err
	}
	return ps.NewClusterShard(spec, machine)
}
