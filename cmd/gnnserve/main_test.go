package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"scalegnn/internal/ckpt"
	"scalegnn/internal/dataset"
	"scalegnn/internal/graph"
	"scalegnn/internal/models"
	"scalegnn/internal/serve"
	"scalegnn/internal/tensor"
	"scalegnn/internal/train"
)

// trainInto fits the run spec names, snapshotting into dir with the spec in
// every snapshot as gnntrain writes it, and returns the run's offline
// predictions and the path of its newest snapshot file.
func trainInto(t *testing.T, spec models.RunSpec, dir string) ([]int, string) {
	t.Helper()
	ds, err := dataset.Load(spec.Graph, spec.Labels, spec.Data)
	if err != nil {
		t.Fatal(err)
	}
	m, err := models.New(spec.Family, spec.Hops)
	if err != nil {
		t.Fatal(err)
	}
	run, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.Train
	cfg.Checkpoint = train.CheckpointConfig{Dir: dir, Every: 1, KeepLast: 2, Run: run}
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
	_, path, err := mgr.Newest()
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
// newLoader → readSnapshot → models.New → Restore → warm — on snapshots
// the training code wrote, given nothing but the snapshot's path, behind a
// real HTTP server: every node must be served the class offline Predict
// gives it, from a checkpoint directory and from a single snapshot file
// alike. /admin/swap through the same loader must refuse a snapshot
// trained on a graph of the same shape (409), one of a family it cannot
// serve (422) and an empty directory (404) without disturbing the served
// generation, and then install a retrained snapshot of the same dataset.
func TestServedSnapshotMatchesOfflinePredict(t *testing.T) {
	cfg := models.DefaultTrainConfig()
	cfg.Epochs, cfg.Patience, cfg.BatchSize, cfg.Hidden, cfg.Seed = 4, 0, 64, 8, 7
	spec := models.RunSpec{
		Family: "sgc", Hops: 2,
		Data: dataset.Config{
			Nodes: 300, Classes: 3, AvgDegree: 6, Homophily: 0.8,
			FeatureDim: 10, NoiseStd: 1.0, TrainFrac: 0.5, ValFrac: 0.2, Seed: 7,
		},
		Train: cfg,
	}
	dir := t.TempDir()
	want, file := trainInto(t, spec, dir)

	retrained := spec
	retrained.Train.LR *= 2
	retrainedDir := t.TempDir()
	wantRetrained, _ := trainInto(t, retrained, retrainedDir)

	// A different graph with the served one's N and edge count, so the
	// feature width, class count and split sizes match too.
	ds, err := dataset.Load("", "", spec.Data)
	if err != nil {
		t.Fatal(err)
	}
	foreign := spec
	foreign.Graph = filepath.Join(t.TempDir(), "er.el")
	er := graph.ErdosRenyi(ds.G.N, ds.G.NumEdges()/2, tensor.NewRand(3))
	if er.NumEdges() != ds.G.NumEdges() {
		t.Fatalf("foreign graph has %d arcs, want %d", er.NumEdges(), ds.G.NumEdges())
	}
	var el bytes.Buffer
	if err := graph.WriteEdgeList(&el, er); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(foreign.Graph, el.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	foreignDir := t.TempDir()
	trainInto(t, foreign, foreignDir)

	gcn := spec
	gcn.Family = "gcn"
	gcnDir := t.TempDir()
	trainInto(t, gcn, gcnDir)
	emptyDir := t.TempDir()

	all := make([]int, ds.G.N)
	for i := range all {
		all[i] = i
	}
	for kind, source := range map[string]string{"directory": dir, "file": file} {
		t.Run(kind, func(t *testing.T) {
			loader, err := newLoader(source)
			if err != nil {
				t.Fatal(err)
			}
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
			servesOffline := func(when string, gen uint64, want []int) {
				t.Helper()
				if code := post(t, base+"/predict", map[string]any{"nodes": all}, &pred); code != http.StatusOK {
					t.Fatalf("%s: /predict status %d", when, code)
				}
				if pred.Generation != gen {
					t.Fatalf("%s: served generation %d, want %d", when, pred.Generation, gen)
				}
				for i, c := range pred.Predictions {
					if c != want[i] {
						t.Fatalf("%s: node %d served class %d, offline Predict %d", when, i, c, want[i])
					}
				}
			}
			servesOffline("after load", 1, want)

			var failure struct {
				Error string `json:"error"`
			}
			for _, c := range []struct {
				source string
				status int
			}{
				{foreignDir, http.StatusConflict},
				{gcnDir, http.StatusUnprocessableEntity},
				{emptyDir, http.StatusNotFound},
			} {
				if code := post(t, base+"/admin/swap", map[string]string{"source": c.source}, &failure); code != c.status {
					t.Errorf("swap to %s: status %d (%s), want %d", c.source, code, failure.Error, c.status)
				}
			}
			servesOffline("after rejected swaps", 1, want)

			if code := post(t, base+"/admin/swap", map[string]string{"source": retrainedDir}, &failure); code != http.StatusOK {
				t.Fatalf("swap to the retrained run: status %d (%s)", code, failure.Error)
			}
			servesOffline("after swap", 2, wantRetrained)
		})
	}
}
