package partition

import (
	"fmt"

	"scalegnn/internal/graph"
)

// The synchronous distributed-training cost model of experiment E19 — the
// §3.4.3 "scalable training schemes and systems" direction, reproduced per
// DESIGN.md's substitution rule: no cluster is available, so the per-epoch
// makespan of data-parallel full-graph training is modeled from the
// partition's measurable properties, the way ADGNN/G3/SANCUS-style systems
// reason about placement.
//
// Model (per epoch, per layer): every worker aggregates over its local
// arcs, applies the dense transform to its local nodes, and exchanges
// boundary node features with other workers.
//
//	compute(w)  = (local arcs · FlopPerEdge + local nodes · FlopPerNode) / WorkerFlops
//	comm(w)     = (boundary features sent+received by w) · BytesPerFeature / Bandwidth
//	makespan    = max over workers of (compute + comm)   [synchronous step]
//
// The absolute constants are arbitrary; the claims under test are the
// *ratios* between partitioners and worker counts.

// CostConfig sets the cost-model constants.
type CostConfig struct {
	FeatureDim  int     // feature width exchanged per boundary node
	WorkerGFLO  float64 // worker compute throughput, GFLOP/s
	BandwidthGB float64 // interconnect bandwidth per worker, GB/s
	FlopPerEdge float64 // aggregation FLOPs per arc per layer (≈ 2·FeatureDim)
	FlopPerNode float64 // dense-transform FLOPs per node per layer (≈ 2·FeatureDim²)
	Layers      int
}

// DefaultCostConfig models a modest CPU cluster on a 100 GbE interconnect.
func DefaultCostConfig(featureDim int) CostConfig {
	return CostConfig{
		FeatureDim:  featureDim,
		WorkerGFLO:  50,
		BandwidthGB: 12.5, // 100 Gbit/s
		FlopPerEdge: 2 * float64(featureDim),
		FlopPerNode: 2 * float64(featureDim) * float64(featureDim),
		Layers:      2,
	}
}

func (c CostConfig) validate() error {
	if c.FeatureDim < 1 || c.WorkerGFLO <= 0 || c.BandwidthGB <= 0 || c.Layers < 1 || c.FlopPerNode < 0 {
		return fmt.Errorf("partition: invalid cost config %+v", c)
	}
	return nil
}

// CostReport is the simulated per-epoch outcome.
type CostReport struct {
	// MakespanSec is the synchronous per-epoch time (max over workers).
	MakespanSec float64
	// ComputeSec / CommSec decompose the critical worker's time.
	ComputeSec float64
	CommSec    float64
	// Imbalance is the max worker compute over the mean worker compute
	// (always >= 1; the load-balance quality of the partition).
	Imbalance float64
	// BoundaryNodes is the total feature transfers per layer.
	BoundaryNodes int
}

// Simulate evaluates the cost model for a partition assignment.
func Simulate(g *graph.CSR, a *Assignment, cfg CostConfig) (*CostReport, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(a.Parts) != g.N {
		return nil, fmt.Errorf("partition: assignment covers %d of %d nodes", len(a.Parts), g.N)
	}
	localArcs := make([]float64, a.K)
	localNodes := make([]float64, a.K)
	for _, p := range a.Parts {
		localNodes[p]++
	}
	// sendSet[w] counts distinct (node, remote part) transfers originating
	// from worker w — each boundary node's features go once to each remote
	// part that needs them.
	send := make([]float64, a.K)
	recv := make([]float64, a.K)
	seen := make(map[int]struct{}, a.K)
	for u := 0; u < g.N; u++ {
		pu := a.Parts[u]
		clear(seen)
		for _, v := range g.Neighbors(u) {
			pv := a.Parts[v]
			if pv == pu {
				localArcs[pu]++
				continue
			}
			// Remote arc: v's worker computes u's contribution after
			// receiving u's features once per layer.
			localArcs[pv]++
			if _, dup := seen[pv]; !dup {
				seen[pv] = struct{}{}
				send[pu]++
				recv[pv]++
			}
		}
	}
	bytesPerNode := float64(cfg.FeatureDim) * 8
	var worst, worstCompute, worstComm, totalCompute, maxCompute float64
	var boundary float64
	for w := 0; w < a.K; w++ {
		flops := float64(localArcs[w]*cfg.FlopPerEdge) + float64(localNodes[w]*cfg.FlopPerNode)
		compute := flops * float64(cfg.Layers) / (cfg.WorkerGFLO * 1e9)
		comm := (send[w] + recv[w]) * bytesPerNode * float64(cfg.Layers) / (cfg.BandwidthGB * 1e9)
		totalCompute += compute
		boundary += send[w]
		if compute > maxCompute {
			maxCompute = compute
		}
		if compute+comm > worst {
			worst = compute + comm
			worstCompute = compute
			worstComm = comm
		}
	}
	rep := &CostReport{
		MakespanSec:   worst,
		ComputeSec:    worstCompute,
		CommSec:       worstComm,
		BoundaryNodes: int(boundary),
	}
	mean := totalCompute / float64(a.K)
	if mean > 0 {
		rep.Imbalance = maxCompute / mean
	}
	return rep, nil
}

// Speedup returns the simulated speedup of partitioning over a single
// worker running the whole graph (no communication).
func Speedup(g *graph.CSR, a *Assignment, cfg CostConfig) (float64, error) {
	rep, err := Simulate(g, a, cfg)
	if err != nil {
		return 0, err
	}
	single := (float64(float64(g.NumEdges())*cfg.FlopPerEdge) + float64(float64(g.N)*cfg.FlopPerNode)) *
		float64(cfg.Layers) / (cfg.WorkerGFLO * 1e9)
	if rep.MakespanSec == 0 {
		return 0, nil
	}
	return single / rep.MakespanSec, nil
}
