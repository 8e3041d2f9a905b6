package models

import (
	"fmt"
	"runtime"
	"testing"
)

// goldenFingerprints are the ten `go run ./cmd/gnnfingerprint` lines
// (float64, default flags) captured at commit c5c01c1. A numeric refactor
// must pass TestGoldenFingerprints without editing this table; a change that
// is meant to move the numbers re-captures it and says so.
var goldenFingerprints = []struct {
	name string
	make func() (Trainer, error)
	want string
}{
	{"gcn", func() (Trainer, error) { return NewGCN(2) },
		"pred=98087beca154d427 epochs=24 train=0.98333333333333328 val=0.9916666666666667 test=0.98888888888888893 f1=0.98856304985337251"},
	{"sage", func() (Trainer, error) { return NewGraphSAGE(2, 5) },
		"pred=89aadf4e4cb755c5 epochs=16 train=1 val=0.94166666666666665 test=0.97222222222222221 f1=0.97183509441573956"},
	{"clustergcn", func() (Trainer, error) { return NewClusterGCN(2, 4) },
		"pred=f8056aa91aa03326 epochs=22 train=0.93999999999999995 val=0.94999999999999996 test=0.93888888888888888 f1=0.93830839535914634"},
	{"sgc", func() (Trainer, error) { return NewSGC(2) },
		"pred=bfd9bf13aeb7bc06 epochs=22 train=0.97999999999999998 val=0.98333333333333328 test=0.96666666666666667 f1=0.96595101128763583"},
	{"appnp", func() (Trainer, error) { return NewAPPNP(8, 0.15) },
		"pred=f3e0c50212591807 epochs=22 train=0.85999999999999999 val=0.83333333333333337 test=0.87777777777777777 f1=0.87671664493698387"},
	{"sign", func() (Trainer, error) { return NewSIGN(3) },
		"pred=2bf6ac2171c28104 epochs=18 train=0.98999999999999999 val=0.9916666666666667 test=0.98333333333333328 f1=0.98282568807339443"},
	{"gamlp", func() (Trainer, error) { return NewGAMLP(3) },
		"pred=27bd8aefe9430ba6 epochs=30 train=0.97999999999999998 val=0.9916666666666667 test=0.98333333333333328 f1=0.9831846407225705"},
	{"ld2", func() (Trainer, error) { return NewLD2(2) },
		"pred=f1dbfac109dbf025 epochs=19 train=0.99333333333333329 val=0.98333333333333328 test=0.98333333333333328 f1=0.98282568807339443"},
	{"implicit", func() (Trainer, error) { return NewImplicitNet(0.8, nil) },
		"pred=62a95060cb66e8a6 epochs=30 train=0.9966666666666667 val=0.98333333333333328 test=0.97222222222222221 f1=0.97169631573831039"},
	{"transformer", func() (Trainer, error) { return NewGraphTransformer(6) },
		"pred=d6600cf9fee76d25 epochs=14 train=0.59333333333333338 val=0.54166666666666663 test=0.58888888888888891 f1=0.58442477986640728"},
}

// TestGoldenFingerprints is the "ten fingerprints bitwise unchanged"
// contract as a test: the dataset (smallTask) and config are those of
// cmd/gnnfingerprint's defaults. Floating-point contraction differs across
// architectures, so the table binds amd64 only.
func TestGoldenFingerprints(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden table was captured on amd64, not %s", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("ten full fits; the -short race pass in scripts/check.sh skips them")
	}
	ds := smallTask(t)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 30
	cfg.Patience = 10
	cfg.BatchSize = 64
	cfg.Seed = 7
	for _, g := range goldenFingerprints {
		t.Run(g.name, func(t *testing.T) {
			m, err := g.make()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := m.Fit(ds, cfg)
			if err != nil {
				t.Fatalf("fit: %v", err)
			}
			pred, err := m.Predict(ds)
			if err != nil {
				t.Fatalf("predict: %v", err)
			}
			got := fmt.Sprintf("pred=%016x epochs=%d train=%.17g val=%.17g test=%.17g f1=%.17g",
				PredictionFingerprint(pred), rep.Epochs, rep.TrainAcc, rep.ValAcc, rep.TestAcc, rep.TestF1)
			if got != g.want {
				t.Errorf("fingerprint moved:\n got  %s\n want %s", got, g.want)
			}
		})
	}
}
