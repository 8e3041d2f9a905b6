package partition

import (
	"testing"

	"scalegnn/internal/graph"
	"scalegnn/internal/tensor"
)

func costGraph(t *testing.T) *graph.CSR {
	t.Helper()
	g, _, err := graph.SBM(graph.SBMConfig{
		Nodes: 4000, Blocks: 8, AvgDegree: 12, Homophily: 0.9,
	}, tensor.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSimulateBasics(t *testing.T) {
	g := costGraph(t)
	a, err := Fennel(g, 8, tensor.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Simulate(g, a, DefaultCostConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	if rep.MakespanSec <= 0 || rep.ComputeSec <= 0 {
		t.Fatalf("non-positive times: %+v", rep)
	}
	if rep.MakespanSec < rep.ComputeSec || rep.MakespanSec < rep.CommSec {
		t.Error("makespan must bound its components")
	}
	if rep.Imbalance < 1 {
		t.Errorf("imbalance %v < 1", rep.Imbalance)
	}
	if rep.BoundaryNodes <= 0 {
		t.Error("modular partition should still have some boundary")
	}
}

func TestSinglePartitionNoComm(t *testing.T) {
	g := costGraph(t)
	a, err := Hash(g, 1, tensor.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Simulate(g, a, DefaultCostConfig(32))
	if err != nil {
		t.Fatal(err)
	}
	if rep.CommSec != 0 || rep.BoundaryNodes != 0 {
		t.Errorf("single worker should have zero communication: %+v", rep)
	}
	sp, err := Speedup(g, a, DefaultCostConfig(32))
	if err != nil {
		t.Fatal(err)
	}
	if sp < 0.99 || sp > 1.01 {
		t.Errorf("single-worker speedup = %v, want 1", sp)
	}
}

func TestBetterPartitionBetterMakespan(t *testing.T) {
	// On a modular graph, a structure-aware partition must beat hash in
	// simulated makespan at equal worker count — the §3.1.4 claim that
	// partition quality drives distributed training cost.
	g := costGraph(t)
	cfg := DefaultCostConfig(64)
	hash, err := Hash(g, 8, tensor.NewRand(4))
	if err != nil {
		t.Fatal(err)
	}
	fennel, err := Fennel(g, 8, tensor.NewRand(4))
	if err != nil {
		t.Fatal(err)
	}
	rh, err := Simulate(g, hash, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := Simulate(g, fennel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rf.MakespanSec >= rh.MakespanSec {
		t.Errorf("fennel makespan %v not below hash %v", rf.MakespanSec, rh.MakespanSec)
	}
	if rf.BoundaryNodes >= rh.BoundaryNodes {
		t.Errorf("fennel boundary %d not below hash %d", rf.BoundaryNodes, rh.BoundaryNodes)
	}
}

func TestMoreWorkersLessComputeMoreComm(t *testing.T) {
	g := costGraph(t)
	cfg := DefaultCostConfig(64)
	var prevCompute float64
	for i, k := range []int{2, 8, 32} {
		a, err := Fennel(g, k, tensor.NewRand(5))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Simulate(g, a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && rep.ComputeSec >= prevCompute {
			t.Errorf("k=%d: compute %v did not shrink from %v", k, rep.ComputeSec, prevCompute)
		}
		prevCompute = rep.ComputeSec
	}
}

func TestSimulateValidation(t *testing.T) {
	g := costGraph(t)
	a, _ := Hash(g, 4, tensor.NewRand(6))
	bad := DefaultCostConfig(0)
	if _, err := Simulate(g, a, bad); err == nil {
		t.Error("zero feature dim should error")
	}
	short := &Assignment{Parts: []int{0}, K: 1}
	if _, err := Simulate(g, short, DefaultCostConfig(16)); err == nil {
		t.Error("short assignment should error")
	}
}
