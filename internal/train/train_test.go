package train

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"scalegnn/internal/nn"
	"scalegnn/internal/tensor"
)

// step is one Step call as a test model saw it: where in the run it came
// and a copy of its ids.
type step struct {
	epoch, index int
	ids          []int
}

// fakeModel is a deterministic one-parameter model: each Step adds the batch
// size (or 1 for full-batch work) to a counter parameter, and validation
// accuracy follows a scripted sequence. It records every batch it sees, so
// tests can assert the exact schedule the engine drove.
type fakeModel struct {
	param   *nn.Param
	valSeq  []float64 // validation accuracy per epoch (last repeats)
	epoch   int       // Validate calls so far: the epoch being stepped
	batches []step
	stepErr error
}

func newFakeModel(valSeq ...float64) *fakeModel {
	return &fakeModel{
		param:  nn.NewParam("fake.w", tensor.New(1, 1)),
		valSeq: valSeq,
	}
}

func (f *fakeModel) spec(src *Batches) Spec {
	return Spec{
		Source: src,
		Step: func(ids []int) error {
			if f.stepErr != nil {
				return f.stepErr
			}
			index := 0
			if k := len(f.batches); k > 0 && f.batches[k-1].epoch == f.epoch {
				index = f.batches[k-1].index + 1
			}
			f.batches = append(f.batches, step{f.epoch, index, slices.Clone(ids)})
			n := float64(len(ids))
			if n == 0 {
				n = 1
			}
			f.param.Value.Data[0] += n
			return nil
		},
		Validate: func() (float64, error) {
			i := min(f.epoch, len(f.valSeq)-1)
			f.epoch++
			return f.valSeq[i], nil
		},
		Params:     []*nn.Param{f.param},
		PeakFloats: func() int { return 42 },
	}
}

func TestRunFullBatch(t *testing.T) {
	f := newFakeModel(0.5, 0.6, 0.7)
	rep, err := Run(Config{Epochs: 3}, f.spec(nil))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epochs != 3 || rep.Stopped != StopCompleted {
		t.Errorf("report %+v", rep)
	}
	if len(f.batches) != 3 {
		t.Fatalf("full batch should run once per epoch, got %d steps", len(f.batches))
	}
	for i, b := range f.batches {
		if b.epoch != i || b.index != 0 || b.ids != nil {
			t.Errorf("batch %d: %+v", i, b)
		}
	}
	if rep.BestVal != 0.7 || rep.BestEpoch != 2 {
		t.Errorf("best tracking: %+v", rep)
	}
	if rep.PeakFloats != 42 {
		t.Errorf("PeakFloats %d", rep.PeakFloats)
	}
	if rep.TrainTime <= 0 || rep.EpochTime <= 0 {
		t.Errorf("timing not recorded: %+v", rep)
	}
}

func TestRunIndexBatchesCoverTrainingSet(t *testing.T) {
	idx := []int{10, 11, 12, 13, 14, 15, 16}
	f := newFakeModel(0.5)
	rep, err := Run(Config{Epochs: 2, RNG: tensor.NewPCG(3)}, f.spec(NewBatches(idx, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epochs != 2 {
		t.Fatalf("epochs %d", rep.Epochs)
	}
	// 7 indices in batches of 3 → 3 batches per epoch (3+3+1).
	if len(f.batches) != 6 {
		t.Fatalf("expected 6 batches, got %d", len(f.batches))
	}
	for ep := 0; ep < 2; ep++ {
		seen := map[int]int{}
		for _, b := range f.batches[ep*3 : ep*3+3] {
			if b.epoch != ep {
				t.Errorf("batch stepped in epoch %d want %d", b.epoch, ep)
			}
			for _, v := range b.ids {
				seen[v]++
			}
		}
		for _, v := range idx {
			if seen[v] != 1 {
				t.Errorf("epoch %d: index %d visited %d times", ep, v, seen[v])
			}
		}
	}
}

func TestRunClusterBatchesVisitEveryCluster(t *testing.T) {
	// ClusterGCN steps batches of one cluster id over [0, 4).
	f := newFakeModel(0.5)
	_, err := Run(Config{Epochs: 1, RNG: tensor.NewPCG(5)}, f.spec(NewBatches([]int{0, 1, 2, 3}, 1)))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for _, b := range f.batches {
		if len(b.ids) != 1 {
			t.Fatalf("batch %+v holds %d clusters, want 1", b, len(b.ids))
		}
		seen[b.ids[0]]++
	}
	for c := 0; c < 4; c++ {
		if seen[c] != 1 {
			t.Errorf("cluster %d visited %d times", c, seen[c])
		}
	}
}

func TestSeedStability(t *testing.T) {
	idx := make([]int, 50)
	for i := range idx {
		idx[i] = i
	}
	order := func(seed uint64) []int {
		f := newFakeModel(0.5)
		_, err := Run(Config{Epochs: 3, RNG: tensor.NewPCG(seed)}, f.spec(NewBatches(idx, 8)))
		if err != nil {
			t.Fatal(err)
		}
		var flat []int
		for _, b := range f.batches {
			flat = append(flat, b.ids...)
		}
		return flat
	}
	a, b := order(9), order(9)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("order lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at position %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := order(10)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical batch order")
	}
}

func TestEarlyStopAndPatience(t *testing.T) {
	// Improves at epochs 0,1 then plateaus; patience 3 → stop at epoch 4.
	f := newFakeModel(0.5, 0.6, 0.55, 0.55, 0.55, 0.55, 0.55)
	rep, err := Run(Config{Epochs: 50, Patience: 3}, f.spec(nil))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stopped != StopEarly {
		t.Errorf("stopped %q", rep.Stopped)
	}
	if rep.Epochs != 5 {
		t.Errorf("ran %d epochs, want 5", rep.Epochs)
	}
	if rep.BestVal != 0.6 || rep.BestEpoch != 1 {
		t.Errorf("best %+v", rep)
	}

	// Patience 0 disables early stopping even under a worsening sequence.
	f0 := newFakeModel(0.9, 0.1)
	rep0, err := Run(Config{Epochs: 10, Patience: 0}, f0.spec(nil))
	if err != nil {
		t.Fatal(err)
	}
	if rep0.Epochs != 10 || rep0.Stopped != StopCompleted {
		t.Errorf("patience=0 run: %+v", rep0)
	}
}

func TestRestoreBestSnapshotsParameters(t *testing.T) {
	// Validation peaks at epoch 1; the counter parameter keeps growing each
	// step, so restoration must rewind it to its epoch-1 value.
	f := newFakeModel(0.5, 0.9, 0.4, 0.4, 0.4)
	rep, err := Run(Config{Epochs: 5, RestoreBest: true}, f.spec(nil))
	if err != nil {
		t.Fatal(err)
	}
	if rep.BestEpoch != 1 {
		t.Fatalf("best epoch %d", rep.BestEpoch)
	}
	// One full-batch step per epoch adds 1; after epoch 1 the value was 2.
	if got := f.param.Value.Data[0]; got != 2 {
		t.Errorf("restored parameter %v, want 2 (epoch-1 snapshot)", got)
	}

	// Without restoration the final value stands.
	f2 := newFakeModel(0.5, 0.9, 0.4, 0.4, 0.4)
	if _, err := Run(Config{Epochs: 5}, f2.spec(nil)); err != nil {
		t.Fatal(err)
	}
	if got := f2.param.Value.Data[0]; got != 5 {
		t.Errorf("final parameter %v, want 5", got)
	}
}

func TestCancellationMidEpochReturnsPartialReport(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	idx := make([]int, 40)
	for i := range idx {
		idx[i] = i
	}
	f := newFakeModel(0.5)
	spec := f.spec(NewBatches(idx, 10))
	steps := 0
	inner := spec.Step
	spec.Step = func(b []int) error {
		steps++
		if steps == 6 { // cancel mid-second-epoch (4 batches per epoch)
			cancel()
		}
		return inner(b)
	}
	rep, err := Run(Config{Epochs: 100, RNG: tensor.NewPCG(2), Ctx: ctx}, spec)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("cancelled run must return the partial report")
	}
	if rep.Stopped != StopCancelled {
		t.Errorf("stopped %q", rep.Stopped)
	}
	if rep.Epochs != 2 {
		t.Errorf("partial report says %d epochs, want 2", rep.Epochs)
	}
	if steps != 6 {
		t.Errorf("ran %d steps after cancellation, want 6", steps)
	}
	// The engine is synchronous: no goroutines may outlive the run.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

func TestAlreadyExpiredDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	f := newFakeModel(0.5)
	rep, err := Run(Config{Epochs: 3, Ctx: ctx}, f.spec(nil))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not wrap DeadlineExceeded", err)
	}
	if rep == nil || len(f.batches) != 0 {
		t.Errorf("expired context must stop before the first step (rep=%v steps=%d)", rep, len(f.batches))
	}
}

// countingHook records hook invocations.
type countingHook struct {
	batches []BatchEnd
	epochs  []EpochEnd
}

func (h *countingHook) OnBatch(e BatchEnd) { h.batches = append(h.batches, e) }
func (h *countingHook) OnEpoch(e EpochEnd) { h.epochs = append(h.epochs, e) }

func TestHooksObserveRun(t *testing.T) {
	h := &countingHook{}
	idx := []int{0, 1, 2, 3, 4}
	f := newFakeModel(0.5, 0.7, 0.6)
	_, err := Run(Config{Epochs: 3, RNG: tensor.NewPCG(1), Hooks: []Hook{h}},
		f.spec(NewBatches(idx, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(h.batches) != 9 { // 3 batches x 3 epochs
		t.Errorf("OnBatch fired %d times, want 9", len(h.batches))
	}
	if len(h.epochs) != 3 {
		t.Fatalf("OnEpoch fired %d times, want 3", len(h.epochs))
	}
	if !h.epochs[0].Improved || !h.epochs[1].Improved || h.epochs[2].Improved {
		t.Errorf("Improved flags: %+v", h.epochs)
	}
	if h.epochs[2].Best != 0.7 || h.epochs[2].ValAcc != 0.6 {
		t.Errorf("epoch 2 payload: %+v", h.epochs[2])
	}
}

func TestConfigValidation(t *testing.T) {
	f := newFakeModel(0.5)
	if _, err := Run(Config{Epochs: 0}, f.spec(nil)); err == nil {
		t.Error("epochs=0 must error")
	}
	if _, err := Run(Config{Epochs: 1}, Spec{}); err == nil {
		t.Error("empty spec must error")
	}
	spec := f.spec(nil)
	spec.Params = nil
	if _, err := Run(Config{Epochs: 1, RestoreBest: true}, spec); err == nil {
		t.Error("RestoreBest without params must error")
	}
}

// TestShufflingSourceNeedsRNG: a source with no RNG to shuffle with is a
// config error, not a nil dereference at the first epoch.
func TestShufflingSourceNeedsRNG(t *testing.T) {
	f := newFakeModel(0.5)
	rep, err := Run(Config{Epochs: 1}, f.spec(NewBatches([]int{0, 1, 2}, 2)))
	if err == nil || rep != nil || len(f.batches) != 0 {
		t.Errorf("got rep=%v err=%v after %d steps, want a config error before any step", rep, err, len(f.batches))
	}
}

func TestStepErrorAborts(t *testing.T) {
	f := newFakeModel(0.5)
	f.stepErr = errors.New("boom")
	rep, err := Run(Config{Epochs: 3}, f.spec(nil))
	if err == nil || rep != nil {
		t.Errorf("step error must abort with nil report, got rep=%v err=%v", rep, err)
	}
}
