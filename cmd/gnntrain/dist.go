package main

import (
	"context"
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"scalegnn/internal/ckpt"
	"scalegnn/internal/dataset"
	"scalegnn/internal/distnet"
	"scalegnn/internal/models"
	"scalegnn/internal/partition"
	"scalegnn/internal/tensor"
	"scalegnn/internal/train"
)

// Distributed-training flags. A run becomes distributed when -shard is set:
// N processes each open the same flag set (only -shard differs), partition
// the graph identically with a shared deterministic RNG, and exchange
// boundary rows through internal/distnet. In strict synchronous mode
// (-max-staleness 0, the default) the cluster's predictions are bitwise
// identical to a single-process run — provable with -fingerprint.
var distFlags = struct {
	shard    *string
	peers    *string
	part     *string
	maxStale *int
	xTimeout *time.Duration
	pTimeout *time.Duration
	retain   *int
	printFP  *bool
}{
	shard:    flag.String("shard", "", `distributed shard id as "i/N" (requires -peers with N addresses)`),
	peers:    flag.String("peers", "", "comma-separated shard addresses, one per shard (unix:/path or tcp:host:port)"),
	part:     flag.String("partitioner", "ldg", "graph partitioner for distributed runs: ldg | fennel | metis-style | hash"),
	maxStale: flag.Int("max-staleness", 0, "bounded-staleness window in epochs (0 = strict synchronous, bitwise-reproducible)"),
	xTimeout: flag.Duration("exchange-timeout", distnet.DefaultExchangeTimeout, "wait before substituting stale rows (-max-staleness > 0 only)"),
	pTimeout: flag.Duration("peer-timeout", distnet.DefaultPeerTimeout, "hard bound before an exchange round fails loudly"),
	retain:   flag.Int("retain-epochs", 0, "exchange replay window in epochs (0 = -checkpoint-every + 1)"),
	printFP:  flag.Bool("fingerprint", false, "print the FNV-1a fingerprint of full-graph predictions after training"),
}

// setupDist turns this process into one shard of a cluster: it opens the
// distnet mesh, partitions the graph deterministically (every shard derives
// the same assignment from the seed), installs the propagation hook on the
// dataset's CSR, and registers the epoch hook that advances the staleness
// clock. The cluster's cursor rides inside training checkpoints via
// Checkpoint.Aux, so a SIGKILLed shard resumes mid-sequence.
func setupDist(ctx context.Context, ds *dataset.Dataset, cfg *models.TrainConfig, model string, hops, ckptEvery int) (*distnet.Cluster, error) {
	shard, n, err := parseShard(*distFlags.shard)
	if err != nil {
		return nil, err
	}
	addrs := strings.Split(*distFlags.peers, ",")
	if *distFlags.peers == "" || len(addrs) != n {
		return nil, fmt.Errorf("-peers lists %d addresses for %d shards", len(addrs), n)
	}
	assign, err := buildPartition(ds, *distFlags.part, n, cfg.Seed)
	if err != nil {
		return nil, err
	}
	runFP := runFingerprint(model, ds, *cfg, hops, n, *distFlags.maxStale, *distFlags.part)
	retain := *distFlags.retain
	if retain <= 0 {
		retain = ckptEvery + 1
	}
	cluster, err := distnet.Open(distnet.Config{
		Shard: shard, N: n, Addrs: addrs, Fingerprint: runFP,
		MaxStaleness:    *distFlags.maxStale,
		ExchangeTimeout: *distFlags.xTimeout,
		PeerTimeout:     *distFlags.pTimeout,
		RetainEpochs:    retain,
		Ctx:             ctx,
	})
	if err != nil {
		return nil, err
	}
	hook, err := distnet.NewHook(cluster, assign)
	if err != nil {
		_ = cluster.Close()
		return nil, err
	}
	hook.Attach(ds.G)
	logger.Info("distributed shard up",
		"shard", shard, "n", n, "owned", len(hook.Owned()),
		"partitioner", *distFlags.part, "max_staleness", *distFlags.maxStale)
	cfg.Hooks = append(cfg.Hooks, distEpochHook{cluster})
	if cfg.Checkpoint.Dir != "" {
		cfg.Checkpoint.Aux = cluster
	}
	return cluster, nil
}

// parseShard splits "i/N" into the shard id and cluster size.
func parseShard(s string) (shard, n int, err error) {
	i := strings.IndexByte(s, '/')
	if i < 0 {
		return 0, 0, fmt.Errorf("-shard %q is not of the form i/N", s)
	}
	shard, err1 := strconv.Atoi(s[:i])
	n, err2 := strconv.Atoi(s[i+1:])
	if err1 != nil || err2 != nil || n < 1 || shard < 0 || shard >= n {
		return 0, 0, fmt.Errorf("-shard %q is not a valid i/N with 0 <= i < N", s)
	}
	return shard, n, nil
}

// buildPartition derives the shard assignment every process must agree on.
// The RNG is seeded from the training seed alone (never the shard id), so
// lockstep shards compute identical assignments without communicating.
func buildPartition(ds *dataset.Dataset, name string, k int, seed uint64) (*partition.Assignment, error) {
	rng := tensor.NewRand(seed ^ 0xd157_9a27)
	switch name {
	case "ldg":
		return partition.LDG(ds.G, k, 1.05, rng)
	case "fennel":
		return partition.Fennel(ds.G, k, rng)
	case "metis-style":
		return partition.Multilevel(ds.G, k, max(ds.G.N/10, k), 8, rng)
	case "hash":
		return partition.Hash(ds.G, k, rng)
	default:
		return nil, fmt.Errorf("unknown partitioner %q (want ldg | fennel | metis-style | hash)", name)
	}
}

// runFingerprint hashes every shard-invariant setting that must agree
// across the cluster (and across a resume). It doubles as the checkpoint
// run identity's distributed extension: a shard from a different command
// line is rejected at the handshake instead of corrupting the run.
func runFingerprint(model string, ds *dataset.Dataset, cfg models.TrainConfig, hops, n, maxStale int, partitioner string) uint64 {
	return ckpt.NewFingerprint().
		String("gnntrain.dist").String(model).String(cfg.DType).String(partitioner).
		U64(uint64(ds.G.N)).U64(uint64(ds.G.NumEdges())).U64(uint64(ds.NumClasses)).
		U64(cfg.Seed).U64(uint64(hops)).U64(uint64(cfg.Hidden)).U64(uint64(cfg.BatchSize)).
		U64(uint64(n)).U64(uint64(maxStale)).
		Sum()
}

// distEpochHook advances the cluster's staleness epoch in lockstep with
// training. It runs on every shard at the same point of the same epoch, so
// the deterministic exchange-site counter stays aligned across processes.
type distEpochHook struct{ c *distnet.Cluster }

func (distEpochHook) OnBatch(train.BatchEnd) {}

func (h distEpochHook) OnEpoch(e train.EpochEnd) { h.c.SetEpoch(e.Epoch + 1) }

// fitModel runs Fit, converting the propagation hook's typed panic (the
// only way an exchange failure can escape the void ApplyInto seam) back
// into an ordinary error at the process boundary.
func fitModel(m models.Trainer, ds *dataset.Dataset, cfg models.TrainConfig) (rep *models.Report, err error) {
	defer recoverExchange(&err)
	return m.Fit(ds, cfg)
}

// predictModel is Predict with the same exchange-failure recovery.
func predictModel(m models.Trainer, ds *dataset.Dataset) (pred []int, err error) {
	defer recoverExchange(&err)
	return m.Predict(ds)
}

func recoverExchange(err *error) {
	if r := recover(); r != nil {
		xe, ok := r.(*distnet.ExchangeError)
		if !ok {
			panic(r)
		}
		*err = xe
	}
}
