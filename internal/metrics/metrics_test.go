package metrics

import (
	"math"
	"testing"
)

func TestAccuracy(t *testing.T) {
	if got := Accuracy([]int{1, 2, 3}, []int{1, 0, 3}); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("Accuracy = %v", got)
	}
	if Accuracy(nil, nil) != 0 {
		t.Error("empty accuracy should be 0")
	}
}

func TestAccuracyPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	Accuracy([]int{1}, []int{1, 2})
}

func TestConfusion(t *testing.T) {
	cm := confusion([]int{0, 1, 1, 0}, []int{0, 1, 0, 1}, 2)
	if cm[0][0] != 1 || cm[1][1] != 1 || cm[0][1] != 1 || cm[1][0] != 1 {
		t.Errorf("confusion = %v", cm)
	}
	// Out-of-range ignored.
	cm = confusion([]int{5}, []int{0}, 2)
	if cm[0][0] != 0 {
		t.Error("out-of-range prediction should be ignored")
	}
}

func TestMacroF1Perfect(t *testing.T) {
	pred := []int{0, 1, 2, 0, 1, 2}
	if got := MacroF1(pred, pred, 3); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect F1 = %v", got)
	}
}

func TestMacroF1KnownValue(t *testing.T) {
	// Class 0: tp=1, fp=1, fn=0 → P=0.5, R=1, F1=2/3.
	// Class 1: tp=0 → F1=0.
	pred := []int{0, 0}
	labels := []int{0, 1}
	want := (2.0 / 3.0) / 2
	if got := MacroF1(pred, labels, 2); math.Abs(got-want) > 1e-12 {
		t.Errorf("MacroF1 = %v, want %v", got, want)
	}
}

func TestMacroF1EmptyClasses(t *testing.T) {
	if MacroF1(nil, nil, 0) != 0 {
		t.Error("0 classes should be 0")
	}
}

func TestQuantiles(t *testing.T) {
	s := []float64{5, 1, 3, 2, 4}
	qs := Quantiles(s, 0, 0.5, 1)
	if qs[0] != 1 || qs[1] != 3 || qs[2] != 5 {
		t.Errorf("quantiles = %v", qs)
	}
	// Out-of-range clamped; empty input safe.
	qs = Quantiles(s, -1, 2)
	if qs[0] != 1 || qs[1] != 5 {
		t.Errorf("clamped quantiles = %v", qs)
	}
	if got := Quantiles(nil, 0.5); got[0] != 0 {
		t.Error("empty quantiles should be 0")
	}
}

func TestAUCPerfectAndRandom(t *testing.T) {
	// Perfect separation.
	if got := AUC([]float64{0.9, 0.8, 0.2, 0.1}, []int{1, 1, 0, 0}); got != 1 {
		t.Errorf("perfect AUC = %v", got)
	}
	// Perfectly wrong.
	if got := AUC([]float64{0.1, 0.2, 0.8, 0.9}, []int{1, 1, 0, 0}); got != 0 {
		t.Errorf("inverted AUC = %v", got)
	}
	// All ties: 0.5 by midrank convention.
	if got := AUC([]float64{0.5, 0.5, 0.5, 0.5}, []int{1, 1, 0, 0}); got != 0.5 {
		t.Errorf("tied AUC = %v", got)
	}
	// Degenerate class: 0.5.
	if got := AUC([]float64{1, 2}, []int{1, 1}); got != 0.5 {
		t.Errorf("single-class AUC = %v", got)
	}
}

func TestAUCKnownValue(t *testing.T) {
	// scores: pos {0.8, 0.4}, neg {0.6, 0.2}: pairs won = (0.8>0.6, 0.8>0.2,
	// 0.4<0.6, 0.4>0.2) = 3/4.
	got := AUC([]float64{0.8, 0.4, 0.6, 0.2}, []int{1, 1, 0, 0})
	if math.Abs(got-0.75) > 1e-12 {
		t.Errorf("AUC = %v, want 0.75", got)
	}
}

func TestAUCPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	AUC([]float64{1}, []int{1, 0})
}
