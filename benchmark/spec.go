package main

import (
	"encoding/json"
	"math"
	"runtime"
)

// The metric catalog and the workload table are the single source of truth:
// BENCHMARK.json is generated from them (-manifest) and the smoke test
// fails when the committed file drifts.

// metricDef names one metric. Bound is the relative worsening allowed
// before -compare (and the PR driver) says "regressed"; per-layer metrics
// carry none. Moves records, for the README table, which end-to-end metric
// on which workload the layer metric is expected to move.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Bound  float64
	Moves  string
}

// endToEnd is what a user of the system sees. The builder contract makes
// every workload report every one of them, so the ISSUE metrics that exist
// on one kind of workload only are paired across kinds (README "Metrics"):
// an op is one training epoch (train/dist workloads) or one HTTP request
// (serve_mix); an inference pass is an epoch's validation forward or a cold
// request. Every timed one is a median: of every op or pass of the run, of
// the set-ups, of the windows' rates. The time bounds are wide because the
// ten-seed spreads measured on the shared 2-core sandbox reach 0.10.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "infer_ms_p50", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "slo_ok_frac", Unit: "fraction", Better: "higher", Bound: 0.005},
	{Name: "test_acc", Unit: "fraction", Better: "higher", Bound: 0.01},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.05},
}

// perLayer is measured from outside, by the traced run only. A layer that a
// workload does not exercise reports 0 there — that zero is the "bypass"
// prediction of the workload table, not a missing value.
var perLayer = []metricDef{
	// dataset / graph
	{Name: "graph.load_ms", Unit: "ms", Better: "lower", Moves: "setup_s (all)"},
	{Name: "graph.load_edges_per_s", Unit: "1/s", Better: "higher", Moves: "setup_s (all)"},
	{Name: "graph.operator_build_ms", Unit: "ms", Better: "lower", Moves: "train.fit_s, work_per_s"},
	{Name: "graph.spmm_calls_per_epoch", Unit: "count", Better: "lower", Moves: "op_ms_p50 on fullbatch_gcn, dist_gcn_2shard; 0 on sampled_sage, decoupled_sign_f32"},
	{Name: "graph.spmm_busy_ms_per_epoch", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on fullbatch_gcn"},
	{Name: "graph.spmm_share", Unit: "fraction", Better: "lower", Moves: "caps an SpMM-only gain on fullbatch_gcn"},
	{Name: "graph.spmm_gflops", Unit: "gflop/s", Better: "higher", Moves: "computed from shapes (2*nnz*d per call)"},
	{Name: "graph.spmm_gb_s_computed", Unit: "GB/s", Better: "higher", Moves: "computed from shapes, not measured traffic"},
	{Name: "graph.spmm_rows_ms", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on dist_gcn_2shard"},
	// tensor
	{Name: "tensor.matmul_ms.f64", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on fullbatch_gcn; work_per_s on serve_mix"},
	{Name: "tensor.matmul_t_ms.f64", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on fullbatch_gcn"},
	{Name: "tensor.t_matmul_ms.f64", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on fullbatch_gcn"},
	{Name: "tensor.matmul_ms.f32", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on decoupled_sign_f32"},
	{Name: "tensor.matmul_t_ms.f32", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on decoupled_sign_f32"},
	{Name: "tensor.t_matmul_ms.f32", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on decoupled_sign_f32"},
	{Name: "tensor.matmul_gflops.f64", Unit: "gflop/s", Better: "higher", Moves: "computed from shapes"},
	{Name: "tensor.matmul_gflops.f32", Unit: "gflop/s", Better: "higher", Moves: "computed from shapes"},
	{Name: "tensor.dense_est_ms_per_epoch", Unit: "ms", Better: "lower", Moves: "op_ms_p50 (sum of standalone kernels x known calls)"},
	{Name: "tensor.pool_hit_ratio", Unit: "fraction", Better: "higher", Moves: "live_heap_mb, runtime.alloc_mb_per_op"},
	// nn (replica epoch, fullbatch_gcn only)
	{Name: "nn.forward_ms_per_epoch", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on fullbatch_gcn, dist_gcn_2shard"},
	{Name: "nn.backward_ms_per_epoch", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on fullbatch_gcn, dist_gcn_2shard"},
	{Name: "nn.loss_ms_per_epoch", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on fullbatch_gcn"},
	{Name: "nn.optimizer_step_ms_per_epoch", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on fullbatch_gcn"},
	{Name: "trace.coverage", Unit: "fraction", Better: "higher", Moves: "report: replica layer time / measured epoch"},
	// sampling
	{Name: "sampling.sample_ms_per_batch", Unit: "ms", Better: "lower", Moves: "op_ms_p50, infer_ms_p50 on sampled_sage"},
	{Name: "sampling.src_nodes_per_batch", Unit: "count", Better: "lower", Moves: "op_ms_p50 on sampled_sage"},
	{Name: "sampling.edges_per_batch", Unit: "count", Better: "lower", Moves: "op_ms_p50 on sampled_sage"},
	// train
	{Name: "train.fit_s", Unit: "s", Better: "lower", Moves: "work_per_s"},
	{Name: "train.epoch_ms_min", Unit: "ms", Better: "lower", Moves: "report"},
	{Name: "train.epoch_ms_p50", Unit: "ms", Better: "lower", Moves: "the traced half's op_ms_p50"},
	{Name: "train.epoch_ms_p90", Unit: "ms", Better: "lower", Moves: "report (tail, not gated)"},
	{Name: "train.batch_ms_p50", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on sampled_sage, decoupled_sign_f32"},
	{Name: "train.batch_ms_p99", Unit: "ms", Better: "lower", Moves: "report"},
	{Name: "train.batches_per_epoch", Unit: "count", Better: "lower", Moves: "report"},
	{Name: "train.validate_ms_per_epoch", Unit: "ms", Better: "lower", Moves: "infer_ms_p50, op_ms_p50 (training workloads)"},
	{Name: "train.gather_ms_per_epoch", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on decoupled_sign_f32"},
	{Name: "train.rows_gathered_per_epoch", Unit: "count", Better: "lower", Moves: "op_ms_p50 on decoupled_sign_f32"},
	// models
	{Name: "models.precompute_ms", Unit: "ms", Better: "lower", Moves: "work_per_s on decoupled_sign_f32; setup_s on serve_mix"},
	{Name: "models.peak_mfloats", Unit: "Mfloat", Better: "lower", Moves: "live_heap_mb"},
	{Name: "models.predict_ms_p50", Unit: "ms", Better: "lower", Moves: "offline inference: median of 21 full-graph Predict calls (report: decoupled models answer from cached logits)"},
	{Name: "models.predict_ms_p90", Unit: "ms", Better: "lower", Moves: "report"},
	{Name: "models.score_us_per_row", Unit: "us", Better: "lower", Moves: "work_per_s on serve_mix"},
	// ckpt
	{Name: "ckpt.write_ms", Unit: "ms", Better: "lower", Moves: "report"},
	{Name: "ckpt.bytes", Unit: "B", Better: "lower", Moves: "setup_s on serve_mix"},
	{Name: "ckpt.restore_ms", Unit: "ms", Better: "lower", Moves: "setup_s, serve.swap_ms_p50 on serve_mix"},
	// serve
	{Name: "serve.req_per_s", Unit: "1/s", Better: "higher", Moves: "whole-phase rate; work_per_s is the median window's"},
	{Name: "serve.cache_hit_ratio", Unit: "fraction", Better: "higher", Moves: "op_ms_p50 on serve_mix"},
	{Name: "serve.hot_cache_hit_ratio", Unit: "fraction", Better: "higher", Moves: "op_ms_p50 on serve_mix"},
	{Name: "serve.cold_cache_hit_ratio", Unit: "fraction", Better: "higher", Moves: "work_per_s on serve_mix"},
	{Name: "serve.rows_per_batch", Unit: "count", Better: "higher", Moves: "work_per_s on serve_mix"},
	{Name: "serve.requests_per_batch", Unit: "count", Better: "higher", Moves: "work_per_s on serve_mix"},
	{Name: "serve.hot_req_ms_p50", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on serve_mix"},
	{Name: "serve.cold_req_ms_p50", Unit: "ms", Better: "lower", Moves: "the traced half's infer_ms_p50 on serve_mix"},
	{Name: "serve.req_ms_p50", Unit: "ms", Better: "lower", Moves: "the traced half's op_ms_p50 (cache/HTTP path)"},
	{Name: "serve.req_ms_p95", Unit: "ms", Better: "lower", Moves: "report (body of the cold mode: gather + forward)"},
	{Name: "serve.req_ms_p99", Unit: "ms", Better: "lower", Moves: "report (tail, not gated)"},
	{Name: "serve.req_ms_max", Unit: "ms", Better: "lower", Moves: "report"},
	{Name: "serve.engine_predict_us_p50", Unit: "us", Better: "lower", Moves: "op_ms_p50 on serve_mix"},
	{Name: "serve.http_overhead_us", Unit: "us", Better: "lower", Moves: "op_ms_p50 on serve_mix"},
	{Name: "serve.queue_wait_us_p50", Unit: "us", Better: "lower", Moves: "work_per_s on serve_mix"},
	{Name: "serve.batch_forward_us_p50", Unit: "us", Better: "lower", Moves: "work_per_s on serve_mix (also through queue wait)"},
	{Name: "serve.swap_ms_p50", Unit: "ms", Better: "lower", Moves: "work_per_s, slo_ok_frac on serve_mix"},
	{Name: "serve.swaps", Unit: "count", Better: "higher", Moves: "report"},
	{Name: "serve.requests_failed", Unit: "count", Better: "lower", Moves: "report"},
	// partition
	{Name: "partition.ldg_ms", Unit: "ms", Better: "lower", Moves: "setup_s on dist_gcn_2shard"},
	{Name: "partition.edge_cut_frac", Unit: "fraction", Better: "lower", Moves: "report"},
	{Name: "partition.balance", Unit: "ratio", Better: "lower", Moves: "op_ms_p50 on dist_gcn_2shard (slower shard sets the epoch)"},
	// distnet
	{Name: "distnet.wire_mb_per_epoch", Unit: "MB", Better: "lower", Moves: "op_ms_p50 on dist_gcn_2shard"},
	{Name: "distnet.rounds_per_epoch", Unit: "count", Better: "lower", Moves: "op_ms_p50 on dist_gcn_2shard"},
	{Name: "distnet.apply_ms_per_epoch", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on dist_gcn_2shard"},
	{Name: "distnet.blocked_ms_per_epoch", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on dist_gcn_2shard"},
	{Name: "distnet.comm_share", Unit: "fraction", Better: "lower", Moves: "op_ms_p50 on dist_gcn_2shard"},
	{Name: "distnet.single_proc_epoch_ms", Unit: "ms", Better: "lower", Moves: "baseline"},
	{Name: "distnet.epoch_ratio_vs_single", Unit: "ratio", Better: "lower", Moves: "report (shards share the cores: not a scaling claim)"},
	{Name: "distnet.stale_hits", Unit: "count", Better: "lower", Moves: "must be 0"},
	{Name: "distnet.reconnects", Unit: "count", Better: "lower", Moves: "must be 0"},
	{Name: "distnet.replays", Unit: "count", Better: "lower", Moves: "must be 0"},
	// par
	{Name: "par.tasks_per_op", Unit: "count", Better: "lower", Moves: "op_ms_p50 (scheduling overhead; watch sampled_sage)"},
	{Name: "par.inline_ratio", Unit: "fraction", Better: "lower", Moves: "report"},
	// obs
	{Name: "obs.trace_overhead_frac", Unit: "fraction", Better: "lower", Moves: "traced op_ms_p50 / untraced - 1"},
	// runtime
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower", Moves: "report (swings; not gated)"},
	{Name: "runtime.alloc_mb_per_op", Unit: "MB", Better: "lower", Moves: "op_ms_p50 on sampled_sage; live_heap_mb"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower", Moves: "op_ms_p50 on sampled_sage"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Moves: "report"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower", Moves: "work_per_s"},
}

// workload is one row of the workload table. Sizes are fixed work: Epochs
// is the epoch count of a -seconds 12 run (about 12 s of Fit on the 2-core
// reference sandbox) and scales with -seconds, so one -seconds value means
// the same work on every commit.
type workload struct {
	Name string
	Why  string
	Kind string // "train" | "serve" | "dist"

	Nodes     int
	Degree    float64
	Homophily float64
	Noise     float64

	Model  string // "gcn" | "sage" | "sign"
	DType  string
	Epochs int
	// Serial pins GOMAXPROCS to 1 instead of min(nproc, 4). Only serve_mix
	// sets it: with two Ps a 0.1 ms request crosses OS threads several
	// times, and the wake-up latency of a shared vCPU then decides the
	// numbers (same seed, six runs: spread of the median request 0.44 at
	// two Ps, 0.06 at one, at the same throughput).
	Serial bool
	// Floor is the lowest acceptable test_acc of an untraced run at
	// -seconds 12: the minimum seen over seeds 1..10, 42 and 7, minus 0.02.
	// (The traced run trains half the epochs; its check is the fingerprint.)
	Floor float64
	// DenseOps lists the dense kernels of one epoch for
	// tensor.dense_est_ms_per_epoch (training kinds with static shapes).
	DenseOps []denseOp
	// KernelShape is the representative Linear layer timed standalone.
	KernelShape [3]int // rows, in, out
}

// denseOp is Calls applications per epoch of one kernel of a
// Linear(In->Out) layer over Rows activations: "matmul" is the forward x*W,
// "t_matmul" the weight gradient xT*g, "matmul_t" the input gradient g*WT.
type denseOp struct {
	Kernel        string
	Rows, In, Out int
	Calls         int
}

const (
	classes    = 5
	featureDim = 64
	hidden     = 64
	batchSize  = 512
	signHops   = 3
	sageFanout = 5
	trainFrac  = 0.5
	valFrac    = 0.2
)

// gcnDense is the dense work of one GCN-2L epoch over n nodes: a training
// forward+backward and a validation forward through Linear(64->64) and
// Linear(64->5).
func gcnDense(n int) []denseOp {
	return []denseOp{
		{"matmul", n, featureDim, hidden, 2},
		{"matmul", n, hidden, classes, 2},
		{"t_matmul", n, featureDim, hidden, 1},
		{"t_matmul", n, hidden, classes, 1},
		{"matmul_t", n, featureDim, hidden, 1},
		{"matmul_t", n, hidden, classes, 1},
	}
}

// signDense is one SIGN epoch: ceil(train/512) batches through the
// 256->64->5 head (forward+backward) plus one validation forward.
func signDense(n int) []denseOp {
	emb := featureDim * (signHops + 1)
	nTrain := int(trainFrac * float64(n))
	batches := (nTrain + batchSize - 1) / batchSize
	nVal := int(valFrac * float64(n))
	return []denseOp{
		{"matmul", batchSize, emb, hidden, batches},
		{"matmul", batchSize, hidden, classes, batches},
		{"t_matmul", batchSize, emb, hidden, batches},
		{"t_matmul", batchSize, hidden, classes, batches},
		{"matmul_t", batchSize, emb, hidden, batches},
		{"matmul_t", batchSize, hidden, classes, batches},
		{"matmul", nVal, emb, hidden, 1},
		{"matmul", nVal, hidden, classes, 1},
	}
}

var workloads = []workload{
	{
		Name: "fullbatch_gcn", Kind: "train",
		Why:   "GCN-2L float64, full batch: SpMM (ApplyInto) and float64 dense kernels do the work; sampling, gather, serve and distnet do none",
		Nodes: 20000, Degree: 25, Homophily: 0.7, Noise: 15,
		Model: "gcn", DType: "float64", Epochs: 36, Floor: 0.96,
		DenseOps: gcnDense(20000), KernelShape: [3]int{20000, featureDim, hidden},
	},
	{
		Name: "sampled_sage", Kind: "train",
		Why:   "GraphSAGE-2L fan-out 5, batch 512: sampler, block gather and allocation dominate; ApplyInto is never called, so it bypasses any SpMM change",
		Nodes: 10000, Degree: 10, Homophily: 0.8, Noise: 4.5,
		Model: "sage", DType: "float64", Epochs: 32, Floor: 0.96,
		KernelShape: [3]int{batchSize * (1 + sageFanout), featureDim, hidden},
	},
	{
		Name: "decoupled_sign_f32", Kind: "train",
		Why:   "SIGN-K3 float32, batch 512: 3 one-shot SpMMs in precompute, then gather + AVX2 float32 matmul per epoch; the only workload on the float32 tier",
		Nodes: 50000, Degree: 10, Homophily: 0.8, Noise: 7,
		Model: "sign", DType: "float32", Epochs: 30, Floor: 0.96,
		DenseOps: signDense(50000), KernelShape: [3]int{batchSize, featureDim * (signHops + 1), hidden},
	},
	{
		Name: "serve_mix", Kind: "serve",
		Why:   "SIGN-K3 float64 behind serve.Server on loopback HTTP, 2 closed-loop clients, 80% hot (cache) / 20% cold (gather+forward) requests, a hot-swap every 2 s beside the reads",
		Nodes: 50000, Degree: 10, Homophily: 0.8, Noise: 7,
		Model: "sign", DType: "float64", Floor: 0.96, Serial: true,
		KernelShape: [3]int{256, featureDim * (signHops + 1), hidden},
	},
	{
		Name: "dist_gcn_2shard", Kind: "dist",
		Why:   "GCN-2L float64 as two distnet shards over unix sockets (LDG, sync): the only workload where frame/exchange/peer code and ApplyRowsInto run; checked against a single-process fit",
		Nodes: 10000, Degree: 25, Homophily: 0.7, Noise: 15,
		Model: "gcn", DType: "float64", Epochs: 30, Floor: 0.96,
		DenseOps: gcnDense(10000), KernelShape: [3]int{10000, featureDim, hidden},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// procs is the GOMAXPROCS a run of the workload pins and its result
// records: the machine's cores, at most 4, so par's fan-out and the two
// shards run in parallel. The load generators (2 client goroutines, 2 shard
// goroutines) share those cores with the program and are never wider than
// the machine.
func (w *workload) procs() int {
	if w.Serial {
		return 1
	}
	return min(runtime.NumCPU(), 4)
}

// epochs is the fixed epoch count for a -seconds budget.
func (w *workload) epochs(seconds float64) int {
	e := int(math.Round(float64(w.Epochs) * seconds / runSeconds))
	if e < 4 {
		e = 4
	}
	return e
}

// runSeconds is the run length BENCHMARK.json fixes for every commit;
// minSeconds is the shortest a run may be asked for.
const (
	runSeconds = 12
	minSeconds = 4
)

// manifest renders BENCHMARK.json from the catalog.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
