package train

import (
	"context"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"scalegnn/internal/ckpt"
	"scalegnn/internal/nn"
	"scalegnn/internal/tensor"
)

// ckptModel is a stochastic one-parameter model for resume-identity tests:
// every Step draws a gradient from the shared RNG and applies a real Adam
// update, and Validate draws from the same stream (like GraphSAGE's
// sampled inference does). Any divergence in RNG replay, parameter
// restore, or moment restore shows up as a bitwise parameter difference.
type ckptModel struct {
	param   *nn.Param
	opt     *nn.Adam
	rng     *rand.Rand
	batches []step
}

func newCkptModel(rng *rand.Rand) *ckptModel {
	return &ckptModel{
		param: nn.NewParam("w", tensor.New(2, 3)),
		opt:   nn.NewAdam(0.05),
		rng:   rng,
	}
}

func (m *ckptModel) spec(src *Batches) Spec {
	return Spec{
		Source: src,
		Step: func(ids []int) error {
			m.batches = append(m.batches, step{ids: slices.Clone(ids)})
			for i := range m.param.Grad.Data {
				m.param.Grad.Data[i] = m.rng.NormFloat64()
			}
			m.opt.Step([]*nn.Param{m.param})
			return nil
		},
		Validate:  func() (float64, error) { return m.rng.Float64(), nil },
		Params:    []*nn.Param{m.param},
		Optimizer: m.opt,
	}
}

// OnBatch records where in the run the batch just stepped came: the
// engine's cursor, so a resumed run is compared on the same epochs.
func (m *ckptModel) OnBatch(e BatchEnd) {
	b := &m.batches[len(m.batches)-1]
	b.epoch, b.index = e.Epoch, e.Batch
}
func (m *ckptModel) OnEpoch(EpochEnd) {}

// run builds a fresh model+RNG from seed and trains it, optionally with
// checkpointing, cancelling after cancelAfter batch steps (0 = never).
func ckptRun(t *testing.T, seed uint64, epochs int, ckCfg CheckpointConfig, cancelAfter int) (*ckptModel, *Report, error) {
	t.Helper()
	pcg := tensor.NewPCG(seed)
	rng := rand.New(pcg)
	m := newCkptModel(rng)
	cfg := Config{Epochs: epochs, RNG: pcg, Checkpoint: ckCfg, Hooks: []Hook{m}}
	if cancelAfter > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg.Ctx = ctx
		cfg.Hooks = append(cfg.Hooks, &cancelAfterBatches{n: cancelAfter, cancel: cancel})
	}
	rep, err := Run(cfg, m.spec(NewBatches([]int{0, 1, 2, 3, 4, 5, 6}, 3)))
	return m, rep, err
}

type cancelAfterBatches struct {
	n, seen int
	cancel  context.CancelFunc
}

func (c *cancelAfterBatches) OnBatch(BatchEnd) {
	c.seen++
	if c.seen == c.n {
		c.cancel()
	}
}
func (c *cancelAfterBatches) OnEpoch(EpochEnd) {}

func sameBatches(t *testing.T, got, want []step) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("batch count %d, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.epoch != w.epoch || g.index != w.index || len(g.ids) != len(w.ids) {
			t.Fatalf("batch %d: got %+v want %+v", i, g, w)
		}
		for j := range g.ids {
			if g.ids[j] != w.ids[j] {
				t.Fatalf("batch %d index %d: got %d want %d (permutation replay diverged)",
					i, j, g.ids[j], w.ids[j])
			}
		}
	}
}

func sameParams(t *testing.T, got, want *ckptModel) {
	t.Helper()
	for i := range want.param.Value.Data {
		if got.param.Value.Data[i] != want.param.Value.Data[i] {
			t.Fatalf("param[%d]: got %v want %v (not bitwise identical)",
				i, got.param.Value.Data[i], want.param.Value.Data[i])
		}
	}
}

// TestResumeFromBoundaryBitwiseIdentical: train 3 epochs with snapshots,
// then resume a fresh process image to 6 epochs; the result must be
// bitwise identical to an uninterrupted 6-epoch run.
func TestResumeFromBoundaryBitwiseIdentical(t *testing.T) {
	const seed, fp = 11, 77
	full, _, err := ckptRun(t, seed, 6, CheckpointConfig{}, 0)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cc := CheckpointConfig{Dir: dir, Every: 1, KeepLast: 3, Fingerprint: fp}
	if _, _, err := ckptRun(t, seed, 3, cc, 0); err != nil {
		t.Fatal(err)
	}
	cc.Resume = true
	resumed, rep, err := ckptRun(t, seed, 6, cc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epochs != 6 {
		t.Fatalf("resumed report epochs %d, want 6", rep.Epochs)
	}
	// 7 indices / batch 3 = 3 batches per epoch; the resumed model runs
	// exactly the final 3 epochs' worth.
	sameBatches(t, resumed.batches, full.batches[9:])
	sameParams(t, resumed, full)
}

// TestResumeMidEpochBitwiseIdentical: cancellation lands mid-epoch, the
// snapshot stores the batch cursor, and the resumed run replays the
// epoch's permutation before continuing — bitwise identical overall.
func TestResumeMidEpochBitwiseIdentical(t *testing.T) {
	const seed, fp = 23, 99
	full, _, err := ckptRun(t, seed, 5, CheckpointConfig{}, 0)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cc := CheckpointConfig{Dir: dir, Every: 1, Fingerprint: fp}
	// Cancel after 5 steps: epoch 1, batch 2 is next (3 batches/epoch).
	interrupted, rep, err := ckptRun(t, seed, 5, cc, 5)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if !strings.Contains(err.Error(), "cancelled") || rep == nil || rep.Stopped != StopCancelled {
		t.Fatalf("unexpected cancellation result: rep=%+v err=%v", rep, err)
	}
	if len(interrupted.batches) != 5 {
		t.Fatalf("interrupted run stepped %d batches, want 5", len(interrupted.batches))
	}

	cc.Resume = true
	resumed, rep, err := ckptRun(t, seed, 5, cc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epochs != 5 {
		t.Fatalf("resumed report epochs %d, want 5", rep.Epochs)
	}
	sameBatches(t, append(append([]step(nil), interrupted.batches...), resumed.batches...), full.batches)
	sameParams(t, resumed, full)
}

// TestResumeRestoresEarlyStopState: patience counting must survive a
// resume — the combined run stops at the same epoch as the uninterrupted
// one (Validate draws from the shared stream, so val sequences match).
func TestResumeRestoresEarlyStopState(t *testing.T) {
	const seed, fp, epochs, patience = 31, 5, 40, 3
	pcgRun := func(ck CheckpointConfig, maxEpochs int) (*Report, error) {
		pcg := tensor.NewPCG(seed)
		rng := rand.New(pcg)
		m := newCkptModel(rng)
		return Run(Config{Epochs: maxEpochs, Patience: patience, RNG: pcg, Checkpoint: ck},
			m.spec(NewBatches([]int{0, 1, 2, 3}, 2)))
	}
	fullRep, err := pcgRun(CheckpointConfig{}, epochs)
	if err != nil {
		t.Fatal(err)
	}
	if fullRep.Stopped != StopEarly {
		t.Skipf("seed did not early-stop (stopped %s); pick another seed", fullRep.Stopped)
	}

	dir := t.TempDir()
	cc := CheckpointConfig{Dir: dir, Fingerprint: fp}
	// First leg: stop partway through, before the early stop triggers.
	half := fullRep.Epochs / 2
	if _, err := pcgRun(cc, half); err != nil {
		t.Fatal(err)
	}
	cc.Resume = true
	rep, err := pcgRun(cc, epochs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stopped != StopEarly || rep.Epochs != fullRep.Epochs ||
		rep.BestEpoch != fullRep.BestEpoch || rep.BestVal != fullRep.BestVal {
		t.Fatalf("resumed stop state %+v, want %+v", rep, fullRep)
	}
}

// TestResumeAfterEarlyStopIsNoop: a snapshot taken at the early-stop
// boundary records exhausted patience; resuming it (even with a higher
// epoch budget) must not train further — the uninterrupted run wouldn't.
func TestResumeAfterEarlyStopIsNoop(t *testing.T) {
	const seed, fp, patience = 31, 8, 3
	run := func(ck CheckpointConfig, epochs int) (*ckptModel, *Report, error) {
		pcg := tensor.NewPCG(seed)
		rng := rand.New(pcg)
		m := newCkptModel(rng)
		rep, err := Run(Config{Epochs: epochs, Patience: patience, RNG: pcg, Checkpoint: ck},
			m.spec(NewBatches([]int{0, 1, 2, 3}, 2)))
		return m, rep, err
	}
	cc := CheckpointConfig{Dir: t.TempDir(), Fingerprint: fp}
	_, firstRep, err := run(cc, 40)
	if err != nil {
		t.Fatal(err)
	}
	if firstRep.Stopped != StopEarly {
		t.Skipf("seed did not early-stop (stopped %s); pick another seed", firstRep.Stopped)
	}
	cc.Resume = true
	m, rep, err := run(cc, 80)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.batches) != 0 {
		t.Fatalf("resume after early stop stepped %d batches, want 0", len(m.batches))
	}
	if rep.Stopped != StopEarly || rep.Epochs != firstRep.Epochs || rep.BestEpoch != firstRep.BestEpoch {
		t.Fatalf("resumed report %+v, want %+v", rep, firstRep)
	}
}

// TestResumeRestoreBestWeights: the best-validation weight copy must ride
// along in the snapshot so RestoreBest works across a resume.
func TestResumeRestoreBestWeights(t *testing.T) {
	const seed, fp = 7, 13
	run := func(ck CheckpointConfig, epochs int) (*ckptModel, *Report, error) {
		pcg := tensor.NewPCG(seed)
		rng := rand.New(pcg)
		m := newCkptModel(rng)
		rep, err := Run(Config{Epochs: epochs, RestoreBest: true, RNG: pcg, Checkpoint: ck},
			m.spec(NewBatches([]int{0, 1, 2}, 2)))
		return m, rep, err
	}
	full, fullRep, err := run(CheckpointConfig{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cc := CheckpointConfig{Dir: dir, Fingerprint: fp}
	if _, _, err := run(cc, 5); err != nil {
		t.Fatal(err)
	}
	cc.Resume = true
	resumed, rep, err := run(cc, 8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BestEpoch != fullRep.BestEpoch {
		t.Fatalf("best epoch %d, want %d", rep.BestEpoch, fullRep.BestEpoch)
	}
	sameParams(t, resumed, full)
}

// TestResumeEmptyDirIsFreshStart: Resume=true over an empty directory
// trains from scratch, identically to a run without checkpointing.
func TestResumeEmptyDirIsFreshStart(t *testing.T) {
	const seed = 3
	full, _, err := ckptRun(t, seed, 3, CheckpointConfig{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cc := CheckpointConfig{Dir: t.TempDir(), Resume: true, Fingerprint: 1}
	fresh, rep, err := ckptRun(t, seed, 3, cc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epochs != 3 {
		t.Fatalf("epochs %d", rep.Epochs)
	}
	sameParams(t, fresh, full)
}

// TestResumeCompletedRunIsNoop: resuming a finished run performs no
// further steps and reports the snapshot's state.
func TestResumeCompletedRunIsNoop(t *testing.T) {
	cc := CheckpointConfig{Dir: t.TempDir(), Fingerprint: 2}
	if _, _, err := ckptRun(t, 5, 4, cc, 0); err != nil {
		t.Fatal(err)
	}
	cc.Resume = true
	m, rep, err := ckptRun(t, 5, 4, cc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.batches) != 0 {
		t.Fatalf("no-op resume stepped %d batches", len(m.batches))
	}
	if rep.Epochs != 4 || rep.Stopped != StopCompleted {
		t.Fatalf("report %+v", rep)
	}
}

// TestResumeRejectsFingerprintMismatch: a config change between legs must
// refuse the old snapshots instead of silently restarting.
func TestResumeRejectsFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	cc := CheckpointConfig{Dir: dir, Fingerprint: 10}
	if _, _, err := ckptRun(t, 5, 2, cc, 0); err != nil {
		t.Fatal(err)
	}
	cc.Fingerprint = 20
	cc.Resume = true
	_, _, err := ckptRun(t, 5, 2, cc, 0)
	if err == nil || !strings.Contains(err.Error(), ckpt.ErrFingerprint.Error()) {
		t.Fatalf("got %v, want fingerprint mismatch", err)
	}
}

// TestCheckpointConfigValidation: enabling checkpointing without the
// required Spec/Config pieces must fail fast.
func TestCheckpointConfigValidation(t *testing.T) {
	pcg := tensor.NewPCG(1)
	rng := rand.New(pcg)
	m := newCkptModel(rng)
	good := m.spec(nil)
	ck := CheckpointConfig{Dir: t.TempDir()}

	noParams := good
	noParams.Params = nil
	noOpt := good
	noOpt.Optimizer = nil
	for name, tc := range map[string]struct {
		spec Spec
		cfg  Config
	}{
		"no params":    {noParams, Config{Epochs: 1, RNG: pcg, Checkpoint: ck}},
		"no optimizer": {noOpt, Config{Epochs: 1, RNG: pcg, Checkpoint: ck}},
		"no rng":       {good, Config{Epochs: 1, Checkpoint: ck}},
	} {
		if _, err := Run(tc.cfg, tc.spec); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
