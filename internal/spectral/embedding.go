package spectral

import (
	"fmt"

	"scalegnn/internal/graph"
	"scalegnn/internal/tensor"
)

// ChannelKind names one channel of a multi-filter embedding.
type ChannelKind int

const (
	// ChannelIdentity is the raw feature channel (h(λ)=1).
	ChannelIdentity ChannelKind = iota
	// ChannelLowPass is K-step smoothing ((1−λ/2)^K), the homophilous signal.
	ChannelLowPass
	// ChannelHighPass is the K-step difference filter ((λ/2)^K), the
	// heterophilous signal.
	ChannelHighPass
	// ChannelPPR is the truncated personalized-PageRank filter.
	ChannelPPR
	// ChannelAdjPower is (1−λ)^K — Â^K on a self-looped operator.
	ChannelAdjPower
	// ChannelLapPower is λ^K — the complementary high-pass.
	ChannelLapPower
)

func (c ChannelKind) String() string {
	switch c {
	case ChannelIdentity:
		return "identity"
	case ChannelLowPass:
		return "lowpass"
	case ChannelHighPass:
		return "highpass"
	case ChannelPPR:
		return "ppr"
	case ChannelAdjPower:
		return "adjpower"
	case ChannelLapPower:
		return "lappower"
	default:
		return fmt.Sprintf("ChannelKind(%d)", int(c))
	}
}

// ChannelSpec configures one channel of a MultiFilter embedding.
type ChannelSpec struct {
	Kind  ChannelKind
	Hops  int     // polynomial degree K
	Alpha float64 // PPR restart probability (ChannelPPR only)
}

// MultiFilter produces the LD2-style combined embedding: each channel is a
// different spectral view of the same features, concatenated column-wise.
// Low-pass captures homophilous structure, high-pass heterophilous
// structure, identity preserves raw attributes; a downstream MLP learns
// which view matters — with plain mini-batch training, since the graph is
// consumed only here.
func MultiFilter(op *graph.Operator, x *tensor.Matrix, channels []ChannelSpec) (*tensor.Matrix, error) {
	if len(channels) == 0 {
		return nil, fmt.Errorf("spectral: MultiFilter needs at least one channel")
	}
	mats := make([]*tensor.Matrix, len(channels))
	for i, ch := range channels {
		var f *Filter
		switch ch.Kind {
		case ChannelIdentity:
			f = identity()
		case ChannelLowPass:
			f = lowPass(ch.Hops)
		case ChannelHighPass:
			f = highPass(ch.Hops)
		case ChannelPPR:
			if ch.Alpha <= 0 || ch.Alpha > 1 {
				return nil, fmt.Errorf("spectral: channel %d: ppr alpha %v outside (0,1]", i, ch.Alpha)
			}
			f = pprFilter(ch.Alpha, ch.Hops)
		case ChannelAdjPower:
			f = adjacencyPower(ch.Hops)
		case ChannelLapPower:
			f = laplacianPower(ch.Hops)
		default:
			return nil, fmt.Errorf("spectral: channel %d: unknown kind %d", i, int(ch.Kind))
		}
		mats[i] = f.Apply(op, x)
	}
	return ConcatColumns(mats), nil
}

// ConcatColumns stacks matrices with equal row counts side by side. It is
// generic over the tensor element type; float64 call sites are unchanged.
func ConcatColumns[T tensor.Elem](mats []*tensor.Mat[T]) *tensor.Mat[T] {
	if len(mats) == 0 {
		return tensor.NewOf[T](0, 0)
	}
	rows := mats[0].Rows
	total := 0
	for _, m := range mats {
		if m.Rows != rows {
			panic("spectral: ConcatColumns row mismatch")
		}
		total += m.Cols
	}
	out := tensor.NewOf[T](rows, total)
	for i := 0; i < rows; i++ {
		dst := out.Row(i)
		off := 0
		for _, m := range mats {
			copy(dst[off:off+m.Cols], m.Row(i))
			off += m.Cols
		}
	}
	return out
}
