package train

import (
	"encoding"
	"fmt"

	"scalegnn/internal/ckpt"
	"scalegnn/internal/nn"
	"scalegnn/internal/obs"
	"scalegnn/internal/tensor"
)

// CheckpointConfig enables durable snapshot/resume for a run. The zero
// value (empty Dir) disables checkpointing entirely; nothing below is
// touched and the hot path is unchanged.
type CheckpointConfig struct {
	// Dir is the snapshot directory (created if missing). Empty disables.
	Dir string
	// Every snapshots after every N completed epochs; <= 0 means 1. The
	// final epoch, an early stop, and a context cancellation always
	// snapshot regardless of cadence.
	Every int
	// Resume loads the newest usable snapshot from Dir before training,
	// restoring parameters, optimizer moments, early-stopping state, and
	// the RNG so the continued run is bitwise-identical to an
	// uninterrupted one. An empty Dir'ful of no snapshots is a fresh
	// start, not an error.
	Resume bool
	// KeepLast bounds retained snapshots; <= 0 means 2 (latest + one
	// fallback for corruption recovery).
	KeepLast int
	// Fingerprint identifies the run (model + graph + config hash, see
	// ckpt.Fingerprint). Resume rejects snapshots from a different run.
	Fingerprint uint64
	// RNG is the concrete serializable source behind Config.RNG (e.g.
	// *rand.PCG from tensor.NewPCG). Required: Config.RNG alone cannot be
	// marshaled, and restoring the source restores every rand.Rand view
	// of it at once.
	RNG RNGState
	// Aux, when non-nil, is subsystem state that must travel with the
	// training cursor: it is marshaled into every snapshot and restored on
	// resume before training continues (the distributed runtime uses it to
	// carry its exchange-round counter). Resuming with Aux set from a
	// snapshot written without auxiliary state is an error — the subsystem
	// would silently restart from its zero state while the cursor moved.
	Aux AuxState
	// Run is written verbatim into every snapshot (ckpt.Snapshot.Run): the
	// caller's description of the run, e.g. an encoded models.RunSpec.
	Run []byte
}

// AuxState is the serializable auxiliary state a snapshot can carry on
// behalf of a subsystem riding along with the run (same contract as
// RNGState).
type AuxState interface {
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// RNGState is the serializable random source a checkpointed run must
// expose; *math/rand/v2.PCG satisfies it.
type RNGState interface {
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// OptimizerStateOf is the optimizer-side contract for checkpointing: export
// and restore the per-parameter moment state and step counter.
// *nn.AdamOf[T] implements it.
type OptimizerStateOf[T tensor.Elem] interface {
	ExportMoments(params []*nn.ParamOf[T]) (step int, moments []*tensor.Mat[T])
	ImportMoments(params []*nn.ParamOf[T], step int, moments []*tensor.Mat[T]) error
}

// OptimizerState is the float64 instantiation of OptimizerStateOf.
type OptimizerState = OptimizerStateOf[float64]

// blockOf wraps a tensor's backing slice as a dtype-tagged checkpoint
// block without copying: float64 data becomes a Float64 block, float32 a
// Float32 block.
func blockOf[T tensor.Elem](name string, rows, cols int, data []T) ckpt.Block {
	switch d := any(data).(type) {
	case []float64:
		return ckpt.Block{Name: name, Dtype: ckpt.Float64, Rows: rows, Cols: cols, Data: d}
	case []float32:
		return ckpt.Block{Name: name, Dtype: ckpt.Float32, Rows: rows, Cols: cols, Data32: d}
	default:
		panic("train: unsupported block element type")
	}
}

// blockData returns a block's payload as []T, converting across dtypes when
// the snapshot was written at a different precision (a block already at
// T's precision returns its payload uncopied).
func blockData[T tensor.Elem](b ckpt.Block) []T {
	var z T
	switch any(z).(type) {
	case float32:
		return any(b.Float32()).([]T)
	default:
		return any(b.Float64()).([]T)
	}
}

// ckptRunner glues a run to its ckpt.Manager: it captures the pre-shuffle
// RNG state each epoch (so a mid-epoch snapshot can re-derive the
// permutation by replaying Shuffle), assembles Snapshots from the live
// Spec, and restores them on resume.
type ckptRunner[T tensor.Elem] struct {
	mgr      *ckpt.Manager
	spec     *SpecOf[T]
	rng      RNGState
	aux      AuxState
	run      []byte
	fp       uint64
	every    int
	epochRNG []byte // RNG state captured just before the current epoch's shuffle
	midRNG   []byte // mid-epoch cursor state awaiting replay, nil otherwise
}

func newCkptRunner[T tensor.Elem](cfg *Config, spec *SpecOf[T]) (*ckptRunner[T], error) {
	c := cfg.Checkpoint
	if len(spec.Params) == 0 {
		return nil, fmt.Errorf("train: checkpointing needs Spec.Params")
	}
	if spec.Optimizer == nil {
		return nil, fmt.Errorf("train: checkpointing needs Spec.Optimizer")
	}
	if c.RNG == nil {
		return nil, fmt.Errorf("train: checkpointing needs Checkpoint.RNG (the serializable source behind Config.RNG)")
	}
	every := c.Every
	if every <= 0 {
		every = 1
	}
	mgr, err := ckpt.NewManager(c.Dir, c.KeepLast)
	if err != nil {
		return nil, err
	}
	return &ckptRunner[T]{mgr: mgr, spec: spec, rng: c.RNG, aux: c.Aux, run: c.Run, fp: c.Fingerprint, every: every}, nil
}

// beginEpoch records the RNG state before the epoch's shuffle consumes it.
func (c *ckptRunner[T]) beginEpoch() error {
	state, err := c.rng.MarshalBinary()
	if err != nil {
		return fmt.Errorf("train: marshal rng: %w", err)
	}
	c.epochRNG = state
	return nil
}

// boundary reports whether epoch (0-based, just completed) is a snapshot
// point: the cadence hit, the final epoch, or an early stop.
func (c *ckptRunner[T]) boundary(epoch, maxEpochs int, stop bool) bool {
	return stop || (epoch+1)%c.every == 0 || epoch == maxEpochs-1
}

// save durably writes the snapshot for the cursor (epoch, batch); batch
// is -1 at epoch boundaries, otherwise the next batch index to run.
func (c *ckptRunner[T]) save(epoch, batch int, stopper *earlyStop, rep *Report, best snapshotOf[T]) error {
	sp := obs.Start("ckpt.save")
	defer sp.End()
	rngState, err := c.rng.MarshalBinary()
	if err != nil {
		return fmt.Errorf("train: marshal rng: %w", err)
	}
	var auxState []byte
	if c.aux != nil {
		if auxState, err = c.aux.MarshalBinary(); err != nil {
			return fmt.Errorf("train: marshal aux state: %w", err)
		}
	}
	step, moments := c.spec.Optimizer.ExportMoments(c.spec.Params)
	s := &ckpt.Snapshot{
		Fingerprint:    c.fp,
		Epoch:          epoch,
		Batch:          batch,
		OptStep:        step,
		BestEpoch:      rep.BestEpoch,
		PatienceAnchor: stopper.bestAt,
		BestVal:        stopper.best,
		RNG:            rngState,
		RNGEpoch:       c.epochRNG,
		Aux:            auxState,
		Run:            c.run,
	}
	nb := 2*len(c.spec.Params) + len(moments)/2 + len(best)
	s.Blocks = make([]ckpt.Block, 0, nb)
	for i, p := range c.spec.Params {
		s.Blocks = append(s.Blocks, blockOf(
			fmt.Sprintf("param.%d", i), p.Value.Rows, p.Value.Cols, p.Value.Data))
	}
	for i, m := range moments {
		s.Blocks = append(s.Blocks, blockOf(
			fmt.Sprintf("moment.%d", i), m.Rows, m.Cols, m.Data))
	}
	for i, data := range best {
		p := c.spec.Params[i].Value
		s.Blocks = append(s.Blocks, blockOf(
			fmt.Sprintf("best.%d", i), p.Rows, p.Cols, data))
	}
	if _, err := c.mgr.Save(s); err != nil {
		return fmt.Errorf("train: checkpoint save (epoch %d batch %d): %w", epoch, batch, err)
	}
	sp.SetCount(int64(len(s.Blocks)))
	return nil
}

// resume loads the newest usable snapshot and restores parameters,
// optimizer moments, early-stopping state, and the report. It returns the
// snapshot (nil for a fresh start) plus the restored best-weights copy.
// RNG restoration is left to Run: a boundary snapshot restores s.RNG
// directly, a mid-epoch one (s.Batch >= 0) restores s.RNGEpoch, replays
// Shuffle to re-derive the permutation, then restores s.RNG via
// replayedShuffle.
func (c *ckptRunner[T]) resume(stopper *earlyStop, rep *Report) (*ckpt.Snapshot, snapshotOf[T], error) {
	s, path, err := c.mgr.Latest(c.fp)
	if err != nil || s == nil {
		return nil, nil, err
	}
	if c.aux != nil {
		if len(s.Aux) == 0 {
			return nil, nil, fmt.Errorf("train: resume %s: snapshot carries no auxiliary state but Checkpoint.Aux is set (snapshot from a run without the subsystem?)", path)
		}
		if err := c.aux.UnmarshalBinary(s.Aux); err != nil {
			return nil, nil, fmt.Errorf("train: resume %s: restore aux state: %w", path, err)
		}
	}
	blocks := make(map[string]ckpt.Block, len(s.Blocks))
	for _, b := range s.Blocks {
		blocks[b.Name] = b
	}
	block := func(name string, want *tensor.Mat[T]) (ckpt.Block, error) {
		b, ok := blocks[name]
		if !ok {
			return b, fmt.Errorf("train: resume %s: snapshot has no block %q", path, name)
		}
		if b.Rows != want.Rows || b.Cols != want.Cols {
			return b, fmt.Errorf("train: resume %s: block %q is %dx%d, model wants %dx%d",
				path, name, b.Rows, b.Cols, want.Rows, want.Cols)
		}
		return b, nil
	}
	moments := make([]*tensor.Mat[T], 0, 2*len(c.spec.Params))
	var best snapshotOf[T]
	for i, p := range c.spec.Params {
		pb, err := block(fmt.Sprintf("param.%d", i), p.Value)
		if err != nil {
			return nil, nil, err
		}
		copy(p.Value.Data, blockData[T](pb))
		for _, half := range []int{2 * i, 2*i + 1} {
			mb, err := block(fmt.Sprintf("moment.%d", half), p.Value)
			if err != nil {
				return nil, nil, err
			}
			moments = append(moments, tensor.FromSlice(mb.Rows, mb.Cols, blockData[T](mb)))
		}
		if bb, ok := blocks[fmt.Sprintf("best.%d", i)]; ok {
			if best == nil {
				best = make(snapshotOf[T], len(c.spec.Params))
			}
			if bb.Len() != len(p.Value.Data) {
				return nil, nil, fmt.Errorf("train: resume %s: best.%d has %d values, want %d",
					path, i, bb.Len(), len(p.Value.Data))
			}
			best[i] = blockData[T](bb)
		}
	}
	if best != nil {
		for i := range best {
			if best[i] == nil {
				return nil, nil, fmt.Errorf("train: resume %s: best-weights blocks are incomplete", path)
			}
		}
	}
	if err := c.spec.Optimizer.ImportMoments(c.spec.Params, s.OptStep, moments); err != nil {
		return nil, nil, fmt.Errorf("train: resume %s: %w", path, err)
	}
	stopper.best = s.BestVal
	stopper.bestAt = s.PatienceAnchor
	rep.BestVal = s.BestVal
	rep.BestEpoch = s.BestEpoch
	rep.Epochs = s.Epoch
	c.epochRNG = s.RNGEpoch
	if s.Batch >= 0 {
		c.midRNG = s.RNG
		if err := c.setRNG(s.RNGEpoch); err != nil {
			return nil, nil, err
		}
	} else if err := c.setRNG(s.RNG); err != nil {
		return nil, nil, err
	}
	return s, best, nil
}

// replayedShuffle finishes a mid-epoch resume after Run has re-derived the
// permutation: the RNG jumps from the pre-shuffle state to the exact
// mid-epoch cursor state.
func (c *ckptRunner[T]) replayedShuffle() error {
	err := c.setRNG(c.midRNG)
	c.midRNG = nil
	return err
}

func (c *ckptRunner[T]) setRNG(state []byte) error {
	if err := c.rng.UnmarshalBinary(state); err != nil {
		return fmt.Errorf("train: restore rng: %w", err)
	}
	return nil
}
