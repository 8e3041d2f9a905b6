package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"scalegnn/internal/ckpt"
	"scalegnn/internal/dataset"
	"scalegnn/internal/models"
	"scalegnn/internal/serve"
	"scalegnn/internal/train"
)

// trainInto fits an SGC-K2 that snapshots into dir and returns its offline
// predictions and the path of its newest snapshot file.
func trainInto(t *testing.T, ds *dataset.Dataset, cfg models.TrainConfig, dir string) ([]int, string) {
	t.Helper()
	cfg.Checkpoint = train.CheckpointConfig{Dir: dir, Every: 1, KeepLast: 2}
	m, err := models.NewSGC(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Fit(ds, cfg); err != nil {
		t.Fatal(err)
	}
	want, err := m.Predict(ds)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := ckpt.NewManager(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, path, err := mgr.Latest(models.RunFingerprint(m.Name(), ds, cfg))
	if err != nil || path == "" {
		t.Fatalf("no snapshot written: path=%q err=%v", path, err)
	}
	return want, path
}

// post sends body as JSON and decodes the reply into out, returning the
// status code.
func post(t *testing.T, url string, body, out any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

// TestServedSnapshotMatchesOfflinePredict drives the CLI's own loader —
// makeModel → snapshotLoader → readSnapshot → Restore → warm — on
// snapshots the training code wrote, behind a real HTTP server: every
// node must be served the class offline Predict gives it, from a
// checkpoint directory and from a single snapshot file alike. /admin/swap
// through the same loader must refuse a snapshot of another run (409) and
// an empty directory (404) without disturbing the served generation.
func TestServedSnapshotMatchesOfflinePredict(t *testing.T) {
	ds, err := dataset.Generate(dataset.Config{
		Nodes: 300, Classes: 3, AvgDegree: 6, Homophily: 0.8,
		FeatureDim: 10, NoiseStd: 1.0, TrainFrac: 0.5, ValFrac: 0.2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := models.DefaultTrainConfig()
	cfg.Epochs, cfg.Patience, cfg.BatchSize, cfg.Hidden, cfg.Seed = 4, 0, 64, 8, 7
	dir := t.TempDir()
	want, file := trainInto(t, ds, cfg, dir)

	other := cfg
	other.LR *= 2
	otherDir := t.TempDir()
	trainInto(t, ds, other, otherDir)
	emptyDir := t.TempDir()

	all := make([]int, ds.G.N)
	for i := range all {
		all[i] = i
	}
	loader := snapshotLoader(ds, "sgc", 2, cfg)
	for kind, source := range map[string]string{"directory": dir, "file": file} {
		t.Run(kind, func(t *testing.T) {
			m, info, err := loader(source)
			if err != nil {
				t.Fatal(err)
			}
			eng := serve.NewEngine(serve.Config{})
			defer eng.Close()
			eng.Swap(m, info)
			srv := serve.NewServer(eng, loader)
			if err := srv.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			base := "http://" + srv.Addr()

			var pred struct {
				Generation  uint64 `json:"generation"`
				Predictions []int  `json:"predictions"`
			}
			servesOffline := func(when string) {
				t.Helper()
				if code := post(t, base+"/predict", map[string]any{"nodes": all}, &pred); code != http.StatusOK {
					t.Fatalf("%s: /predict status %d", when, code)
				}
				if pred.Generation != 1 {
					t.Fatalf("%s: served generation %d, want 1", when, pred.Generation)
				}
				for i, c := range pred.Predictions {
					if c != want[i] {
						t.Fatalf("%s: node %d served class %d, offline Predict %d", when, i, c, want[i])
					}
				}
			}
			servesOffline("after load")

			var failure struct {
				Error string `json:"error"`
			}
			for _, c := range []struct {
				source string
				status int
			}{
				{otherDir, http.StatusConflict},
				{emptyDir, http.StatusNotFound},
			} {
				if code := post(t, base+"/admin/swap", map[string]string{"source": c.source}, &failure); code != c.status {
					t.Errorf("swap to %s: status %d (%s), want %d", c.source, code, failure.Error, c.status)
				}
			}
			servesOffline("after rejected swaps")
		})
	}
}

// TestMakeModelRejectsUnknownFamily: only the decoupled families can be
// served, and a typo names itself rather than serving something else.
func TestMakeModelRejectsUnknownFamily(t *testing.T) {
	for _, name := range []string{"sgc", "sign", "appnp", "gamlp", "ld2"} {
		if _, err := makeModel(name, 2); err != nil {
			t.Errorf("makeModel(%q): %v", name, err)
		}
	}
	for _, name := range []string{"gcn", "SGC", ""} {
		if _, err := makeModel(name, 2); err == nil {
			t.Errorf("makeModel(%q) accepted a family it cannot serve", name)
		}
	}
}
