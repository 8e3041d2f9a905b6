package models

import (
	"fmt"
	"slices"

	"scalegnn/internal/ckpt"
	"scalegnn/internal/dataset"
	"scalegnn/internal/graph"
	"scalegnn/internal/implicit"
	"scalegnn/internal/nn"
	"scalegnn/internal/tensor"
	"scalegnn/internal/train"
)

// ImplicitNet is the EIGNN-style implicit GNN (§3.2.3): node states are the
// equilibrium of Z = γ·ÂZW + XW_in, read out by a linear head. Gradients
// are exact via the adjoint fixed point (implicit differentiation), and the
// learnable W is projected back inside the contraction region after every
// optimizer step.
type ImplicitNet struct {
	Gamma float64
	// Scales lists the propagation scales (MGNNI); nil means single-scale {1}.
	Scales []int

	st *implicitState // nil before Fit
}

// implicitState is ImplicitNet's trained state: the input, implicit and
// output weights, with the γ and scales they were trained at.
type implicitState struct {
	gamma  float64
	scales []int
	win    *nn.Param
	wimp   []*nn.Param // one per scale
	wout   *nn.Param
	bout   *nn.Param
	hidden int

	// pooled forward scratch, recycled on the next forward call
	fb, fmean, flogits tensor.Buf
}

// NewImplicitNet constructs an implicit model with contraction factor γ.
func NewImplicitNet(gamma float64, scales []int) (*ImplicitNet, error) {
	if gamma <= 0 || gamma >= 1 {
		return nil, fmt.Errorf("models: ImplicitNet gamma %v outside (0,1)", gamma)
	}
	if len(scales) == 0 {
		scales = []int{1}
	}
	for _, s := range scales {
		if s < 1 {
			return nil, fmt.Errorf("models: ImplicitNet scale %d < 1", s)
		}
	}
	return &ImplicitNet{Gamma: gamma, Scales: scales}, nil
}

// Name implements Trainer.
func (m *ImplicitNet) Name() string {
	if len(m.Scales) == 1 && m.Scales[0] == 1 {
		return "ImplicitGNN"
	}
	return fmt.Sprintf("ImplicitGNN-ms%d", len(m.Scales))
}

// forward computes per-scale equilibria and the averaged logits. The logits
// live in a pooled buffer recycled on the next forward call.
func (s *implicitState) forward(op *graph.Operator, x *tensor.Matrix) (zs []*tensor.Matrix, logits *tensor.Matrix, err error) {
	b := s.fb.Next(x.Rows, s.win.Value.Cols)
	tensor.MatMulInto(x, s.win.Value, b)
	zs = make([]*tensor.Matrix, len(s.scales))
	mean := s.fmean.NextZero(x.Rows, s.hidden)
	for i, sc := range s.scales {
		solver, serr := implicit.NewSolver(op, s.gamma)
		if serr != nil {
			return nil, nil, serr
		}
		solver.Scale = sc
		solver.Tol = 1e-7
		z, _, serr := solver.Solve(b, s.wimp[i].Value)
		if serr != nil {
			return nil, nil, serr
		}
		zs[i] = z
		mean.AddScaled(1/float64(len(s.scales)), z)
	}
	logits = s.flogits.Next(x.Rows, s.wout.Value.Cols)
	tensor.MatMulInto(mean, s.wout.Value, logits)
	logits.AddRowVector(s.bout.Value.Row(0))
	return zs, logits, nil
}

// Fit trains full-batch with implicit differentiation.
func (m *ImplicitNet) Fit(ds *dataset.Dataset, cfg TrainConfig) (*Report, error) {
	return atTier(m, &m.st, ds, cfg, nil, fitImplicit, nil)
}

func fitImplicit(m *ImplicitNet, ds *dataset.Dataset, cfg TrainConfig, _ *ckpt.Snapshot, rep *Report) (*implicitState, error) {
	pcg, rng := newRunRNG(cfg.Seed)
	op := graph.NewOperator(ds.G, graph.NormSymmetric, true)

	st := &implicitState{gamma: m.Gamma, scales: slices.Clone(m.Scales), hidden: cfg.Hidden}
	st.win = nn.NewParam("implicit.win", tensor.GlorotUniform(ds.X.Cols, cfg.Hidden, rng))
	st.wout = nn.NewParam("implicit.wout", tensor.GlorotUniform(cfg.Hidden, ds.NumClasses, rng))
	st.bout = nn.NewParam("implicit.bout", tensor.New(1, ds.NumClasses))
	st.wimp = make([]*nn.Param, len(st.scales))
	maxNorm := 0.95 / st.gamma
	for i := range st.scales {
		w := tensor.RandNormal(cfg.Hidden, cfg.Hidden, 0.1, rng)
		implicit.ProjectSpectralNorm(w, maxNorm*0.5)
		st.wimp[i] = nn.NewParam(fmt.Sprintf("implicit.w%d", i), w)
	}
	params := append([]*nn.Param{st.win, st.wout, st.bout}, st.wimp...)
	opt := nn.NewAdam(cfg.LR)
	opt.WeightDecay = cfg.WeightDecay

	defer opt.Reset()
	err := runLoop(m.Name(), ds, cfg, pcg, rep, train.Spec{
		Step: func([]int) error {
			zs, logits, err := st.forward(op, ds.X)
			if err != nil {
				return fmt.Errorf("models: implicit forward: %w", err)
			}
			_, gLogits := maskedLoss(logits, ds.Labels, ds.TrainIdx)
			// Head gradients. mean = (1/S)Σ z_i.
			mean := tensor.GetZeroBuf(ds.G.N, st.hidden)
			for _, z := range zs {
				mean.AddScaled(1/float64(len(st.scales)), z)
			}
			wg := tensor.GetBuf(st.hidden, ds.NumClasses)
			tensor.TMatMulInto(mean, gLogits, wg)
			st.wout.Grad.Add(wg)
			tensor.PutBuf(wg)
			tensor.PutBuf(mean)
			gLogits.AddRowsTo(st.bout.Grad.Row(0))
			gZ := tensor.GetBuf(ds.G.N, st.hidden)
			tensor.MatMulTInto(gLogits, st.wout.Value, gZ)
			tensor.PutBuf(gLogits)
			gZ.Scale(1 / float64(len(st.scales)))
			// Per-scale adjoint solves.
			gB := tensor.GetZeroBuf(ds.G.N, st.hidden)
			for i, sc := range st.scales {
				solver, err := implicit.NewSolver(op, st.gamma)
				if err != nil {
					tensor.PutBuf(gZ)
					tensor.PutBuf(gB)
					return err
				}
				solver.Scale = sc
				solver.Tol = 1e-7
				u, _, err := solver.SolveAdjoint(gZ, st.wimp[i].Value)
				if err != nil {
					tensor.PutBuf(gZ)
					tensor.PutBuf(gB)
					return fmt.Errorf("models: implicit adjoint: %w", err)
				}
				st.wimp[i].Grad.Add(solver.GradW(zs[i], u))
				gB.Add(u)
			}
			tensor.PutBuf(gZ)
			ig := tensor.GetBuf(ds.X.Cols, st.hidden)
			tensor.TMatMulInto(ds.X, gB, ig)
			st.win.Grad.Add(ig)
			tensor.PutBuf(ig)
			tensor.PutBuf(gB)
			nn.ClipGradNorm(params, 5)
			opt.Step(params)
			for i := range st.wimp {
				implicit.ProjectSpectralNorm(st.wimp[i].Value, maxNorm)
			}
			return nil
		},
		Validate: func() (float64, error) {
			_, valLogits, err := st.forward(op, ds.X)
			if err != nil {
				return 0, err
			}
			return accuracyAt(valLogits, ds.Labels, ds.ValIdx), nil
		},
		Params:    params,
		Optimizer: opt,
		PeakFloats: func() int {
			return ds.G.N*cfg.Hidden*(2+2*len(st.scales)) + ds.G.N*ds.NumClasses
		},
	})
	if err != nil {
		return nil, err
	}

	_, logits, err := st.forward(op, ds.X)
	if err != nil {
		return nil, err
	}
	fillAccuracies(func(idx []int) []int {
		return nn.Argmax(logits.SelectRows(idx))
	}, ds, rep)
	return st, nil
}

// Predict implements Trainer.
func (m *ImplicitNet) Predict(ds *dataset.Dataset) ([]int, error) {
	if m.st == nil {
		return nil, fmt.Errorf("models: ImplicitNet.Predict before Fit")
	}
	op := graph.NewOperator(ds.G, graph.NormSymmetric, true)
	_, logits, err := m.st.forward(op, ds.X)
	if err != nil {
		return nil, err
	}
	return nn.Argmax(logits), nil
}
