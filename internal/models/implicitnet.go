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
	gamma           float64
	scales          []int
	win, wout, bout *nn.Param
	wimp            []*nn.Param        // one per scale
	solvers         []*implicit.Solver // one per scale, on the operator of the last Fit or Predict
	hidden          int

	// The last forward's results, recycled by the next forward: the
	// per-scale equilibria (pooled, owned here), their mean and the logits.
	// current marks them as solved at the present weights, so a Step after
	// Validate trains on them instead of solving again.
	zs                 []*tensor.Matrix
	mean, logits       *tensor.Matrix
	fb, fmean, flogits tensor.Buf
	current            bool
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

// forward solves each scale's equilibrium and leaves the equilibria, their
// mean and the averaged logits in s, replacing the last forward's.
func (s *implicitState) forward(x *tensor.Matrix) error {
	b := s.fb.Next(x.Rows, s.win.Value.Cols)
	tensor.MatMulInto(x, s.win.Value, b)
	s.mean = s.fmean.NextZero(x.Rows, s.hidden)
	for i, sv := range s.solvers {
		z, _, err := sv.Solve(b, s.wimp[i].Value)
		if err != nil {
			return err
		}
		tensor.PutBuf(s.zs[i])
		s.zs[i] = z
		s.mean.AddScaled(1/float64(len(s.scales)), z)
	}
	s.logits = s.flogits.Next(x.Rows, s.wout.Value.Cols)
	tensor.MatMulInto(s.mean, s.wout.Value, s.logits)
	s.logits.AddRowVector(s.bout.Value.Row(0))
	s.current = true
	return nil
}

// Fit trains full-batch with implicit differentiation.
func (m *ImplicitNet) Fit(ds *dataset.Dataset, cfg TrainConfig) (*Report, error) {
	return atTier(m, &m.st, ds, cfg, nil, fitImplicit, nil)
}

func fitImplicit(m *ImplicitNet, ds *dataset.Dataset, _ func() uint64, cfg TrainConfig, _ *ckpt.Snapshot, rep *Report) (*implicitState, error) {
	pcg, rng := newRunRNG(cfg.Seed)
	op := graph.NewOperator(ds.G, graph.NormSymmetric, true)

	st := &implicitState{gamma: m.Gamma, scales: slices.Clone(m.Scales), hidden: cfg.Hidden,
		zs: make([]*tensor.Matrix, len(m.Scales))}
	for _, sc := range st.scales {
		sv, err := implicit.NewSolver(op, st.gamma)
		if err != nil {
			return nil, err
		}
		sv.Scale, sv.Tol = sc, 1e-7
		st.solvers = append(st.solvers, sv)
	}
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
			if !st.current {
				if err := st.forward(ds.X); err != nil {
					return fmt.Errorf("models: implicit forward: %w", err)
				}
			}
			st.current = false
			_, gLogits := maskedLoss(st.logits, ds.Labels, ds.TrainIdx)
			// Head gradients. mean = (1/S)Σ z_i.
			wg := tensor.GetBuf(st.hidden, ds.NumClasses)
			tensor.TMatMulInto(st.mean, gLogits, wg)
			st.wout.Grad.Add(wg)
			tensor.PutBuf(wg)
			gLogits.AddRowsTo(st.bout.Grad.Row(0))
			gZ := tensor.GetBuf(ds.G.N, st.hidden)
			defer tensor.PutBuf(gZ)
			tensor.MatMulTInto(gLogits, st.wout.Value, gZ)
			tensor.PutBuf(gLogits)
			gZ.Scale(1 / float64(len(st.scales)))
			// Per-scale adjoint solves: U_i = Solve(∂L/∂Z_i, W_iᵀ).
			gB, gW := tensor.GetZeroBuf(ds.G.N, st.hidden), tensor.GetBuf(st.hidden, st.hidden)
			defer tensor.PutBuf(gB)
			defer tensor.PutBuf(gW)
			for i, sv := range st.solvers {
				u, _, err := sv.Solve(gZ, st.wimp[i].Value.T())
				if err != nil {
					return fmt.Errorf("models: implicit adjoint: %w", err)
				}
				sv.GradW(st.zs[i], u, gW)
				st.wimp[i].Grad.Add(gW)
				gB.Add(u)
				tensor.PutBuf(u)
			}
			ig := tensor.GetBuf(ds.X.Cols, st.hidden)
			tensor.TMatMulInto(ds.X, gB, ig)
			st.win.Grad.Add(ig)
			tensor.PutBuf(ig)
			nn.ClipGradNorm(params, 5)
			opt.Step(params)
			for i := range st.wimp {
				implicit.ProjectSpectralNorm(st.wimp[i].Value, maxNorm)
			}
			return nil
		},
		Validate: func() (float64, error) {
			if err := st.forward(ds.X); err != nil {
				return 0, err
			}
			return accuracyAt(st.logits, ds.Labels, ds.ValIdx), nil
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

	// RestoreBest may have swapped the weights since the last Validate.
	if err := st.forward(ds.X); err != nil {
		return nil, err
	}
	fillAccuracies(func(idx []int) []int {
		return nn.Argmax(st.logits.SelectRows(idx))
	}, ds, rep)
	return st, nil
}

// Predict implements Trainer.
func (m *ImplicitNet) Predict(ds *dataset.Dataset) ([]int, error) {
	if m.st == nil {
		return nil, fmt.Errorf("models: ImplicitNet.Predict before Fit")
	}
	op := graph.NewOperator(ds.G, graph.NormSymmetric, true)
	for _, sv := range m.st.solvers {
		sv.Op = op
	}
	if err := m.st.forward(ds.X); err != nil {
		return nil, err
	}
	return nn.Argmax(m.st.logits), nil
}
