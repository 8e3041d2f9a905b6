package models

import (
	"encoding/json"
	"errors"
	"fmt"

	"scalegnn/internal/dataset"
)

// RunSpec names a training run completely: the family and hops New takes,
// the dataset.Load arguments, and the TrainConfig. gnntrain writes it into
// every snapshot, so gnnserve rebuilds dataset, model and config from the
// snapshot file alone; the run fingerprint then proves the rebuilt dataset
// is the one trained on.
type RunSpec struct {
	Family        string
	Hops          int
	Graph, Labels string // dataset.Load paths; an empty Graph is synthetic
	Data          dataset.Config
	Train         TrainConfig // Ctx, Hooks and Checkpoint are not encoded
}

// Encode returns the spec's snapshot form (JSON).
func (s RunSpec) Encode() ([]byte, error) { return json.Marshal(s) }

// DecodeRunSpec parses Encode's output. A snapshot written without a spec
// carries an empty blob, which is an error: nothing names its run.
func DecodeRunSpec(b []byte) (RunSpec, error) {
	var s RunSpec
	if len(b) == 0 {
		return s, errors.New("models: snapshot carries no run spec")
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("models: run spec: %w", err)
	}
	return s, nil
}

// New constructs a model family by its command-line name at depth hops
// (APPNP runs K = 10, α = 0.15; implicit and transformer take no depth).
func New(family string, hops int) (Trainer, error) {
	switch family {
	case "gcn":
		return NewGCN(hops)
	case "sage":
		return NewGraphSAGE(hops, 5)
	case "clustergcn":
		return NewClusterGCN(hops, 16)
	case "sgc":
		return NewSGC(hops)
	case "appnp":
		return NewAPPNP(10, 0.15)
	case "sign":
		return NewSIGN(hops)
	case "gamlp":
		return NewGAMLP(hops)
	case "ld2":
		return NewLD2(hops)
	case "implicit":
		return NewImplicitNet(0.8, nil)
	case "transformer":
		return NewGraphTransformer(6)
	default:
		return nil, fmt.Errorf("models: unknown model family %q", family)
	}
}
