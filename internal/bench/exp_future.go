package bench

import (
	"fmt"

	"scalegnn/internal/dataset"
	"scalegnn/internal/graph"
	"scalegnn/internal/models"
	"scalegnn/internal/partition"
	"scalegnn/internal/tensor"
)

func init() {
	register(Experiment{ID: "E19", Anchor: "3.4.3", Title: "Simulated distributed training: partitioner x workers", Run: runE19})
	register(Experiment{ID: "E20", Anchor: "3.4.2", Title: "Label efficiency across model families", Run: runE20})
}

// runE19 sweeps partitioners and worker counts through the distributed
// cost model.
func runE19(cfg Config) (*Table, error) {
	n := 50000
	if cfg.Quick {
		n = 8000
	}
	g, _, err := graph.SBM(graph.SBMConfig{Nodes: n, Blocks: 16, AvgDegree: 12, Homophily: 0.85}, tensor.NewRand(cfg.Seed))
	if err != nil {
		return nil, err
	}
	dcfg := partition.DefaultCostConfig(64)
	t := &Table{
		ID: "E19", Title: fmt.Sprintf("Simulated synchronous data-parallel epoch (SBM n=%d, 64-dim features, 100 GbE model)", n),
		Claim:  "partition quality decides whether adding workers helps: low-cut partitions keep communication off the critical path; hash partitions saturate on the network (§3.1.4/§3.4.3)",
		Header: []string{"partitioner", "workers", "makespan", "compute", "comm", "speedup", "imbalance"},
	}
	type method struct {
		name string
		run  func(k int) (*partition.Assignment, error)
	}
	methods := []method{
		{"hash", func(k int) (*partition.Assignment, error) { return partition.Hash(g, k, tensor.NewRand(cfg.Seed)) }},
		{"fennel", func(k int) (*partition.Assignment, error) { return partition.Fennel(g, k, tensor.NewRand(cfg.Seed)) }},
		{"multilevel", func(k int) (*partition.Assignment, error) {
			return partition.Multilevel(g, k, n/10, 8, tensor.NewRand(cfg.Seed))
		}},
	}
	var hashSpeed16, bestSpeed16 float64
	for _, m := range methods {
		for _, k := range []int{4, 16} {
			a, err := m.run(k)
			if err != nil {
				return nil, fmt.Errorf("%s k=%d: %w", m.name, k, err)
			}
			rep, err := partition.Simulate(g, a, dcfg)
			if err != nil {
				return nil, err
			}
			sp, err := partition.Speedup(g, a, dcfg)
			if err != nil {
				return nil, err
			}
			if k == 16 {
				if m.name == "hash" {
					hashSpeed16 = sp
				}
				if sp > bestSpeed16 {
					bestSpeed16 = sp
				}
			}
			t.AddRow(m.name, fmt.Sprintf("%d", k),
				fmt.Sprintf("%.1fms", rep.MakespanSec*1e3),
				fmt.Sprintf("%.1fms", rep.ComputeSec*1e3),
				fmt.Sprintf("%.1fms", rep.CommSec*1e3),
				fnum(sp), fnum(rep.Imbalance))
		}
	}
	t.Verdict = fmt.Sprintf("at 16 workers the best partitioner reaches %.1fx simulated speedup vs %.1fx for hash",
		bestSpeed16, hashSpeed16)
	return t, nil
}

// runE20 sweeps the labeled fraction and compares how model families
// degrade — the §3.4.2 "insufficient labels" concern: graph propagation
// substitutes for labels by spreading the few that exist.
func runE20(cfg Config) (*Table, error) {
	nodes, epochs := 6000, 60
	if cfg.Quick {
		nodes, epochs = 1500, 30
	}
	t := &Table{
		ID: "E20", Title: fmt.Sprintf("Test accuracy vs labeled fraction (SBM n=%d, h=0.8)", nodes),
		Claim:  "graph propagation compensates for scarce labels: GNN accuracy degrades far slower than the graph-free baseline as labels shrink (§3.4.2)",
		Header: []string{"train frac", "MLP (no graph)", "SGC-K2", "APPNP-K10"},
	}
	tcfg := models.DefaultTrainConfig()
	tcfg.Epochs = epochs
	tcfg.Patience = 20
	var gapAt1pct float64
	for _, frac := range []float64{0.5, 0.1, 0.02, 0.005} {
		ds, err := dataset.Generate(dataset.Config{
			Nodes: nodes, Classes: 5, AvgDegree: 12, Homophily: 0.8,
			FeatureDim: 32, NoiseStd: 1.5, TrainFrac: frac, ValFrac: 0.1, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		mlpAcc, err := mlpBaseline(ds, tcfg)
		if err != nil {
			return nil, err
		}
		sgc, err := models.NewSGC(2)
		if err != nil {
			return nil, err
		}
		sgcRep, err := sgc.Fit(ds, tcfg)
		if err != nil {
			return nil, err
		}
		appnp, err := models.NewAPPNP(10, 0.15)
		if err != nil {
			return nil, err
		}
		appnpRep, err := appnp.Fit(ds, tcfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(fnum(frac), fnum(mlpAcc), fnum(sgcRep.TestAcc), fnum(appnpRep.TestAcc))
		if frac <= 0.01 {
			gapAt1pct = sgcRep.TestAcc - mlpAcc
		}
	}
	t.Verdict = fmt.Sprintf("at <=1%% labels the propagation models hold a %.0f-point lead over the graph-free baseline",
		100*gapAt1pct)
	return t, nil
}
