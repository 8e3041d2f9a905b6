package main

import (
	"bufio"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"

	"scalegnn/internal/dataset"
	"scalegnn/internal/models"
	"scalegnn/internal/train"
)

// inputs are the files one run hands to the program. They are a pure
// function of (workload sizes, seed) and are written by this package's own
// generator, so they stay identical across commits of the program.
type inputs struct {
	EdgeList  string
	Labels    string
	Edges     int      // undirected edges written
	Snapshots []string // serve_mix: two trained snapshot files
}

// genSeed decorrelates the generator's stream from the program's own use of
// the same seed (dataset.Load draws features from it).
const genSeed = 0x9e3779b97f4a7c15

// generate writes an SBM edge list (scalegnn edgelist v1) and a label file
// into dir. Labels are round-robin over the classes; each edge picks a
// uniform endpoint and, with probability homophily, a partner of the same
// class (otherwise of another class). Duplicate edges and self-loops are
// redrawn, so the file holds exactly nodes*degree/2 undirected edges.
func generate(dir string, w *workload, nodes int, seed uint64) (*inputs, error) {
	rng := rand.New(rand.NewPCG(seed, genSeed))
	in := &inputs{
		EdgeList: filepath.Join(dir, "graph.edgelist"),
		Labels:   filepath.Join(dir, "labels.txt"),
		Edges:    int(w.Degree * float64(nodes) / 2),
	}

	write := func(path string, body func(*bufio.Writer)) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		bw := bufio.NewWriterSize(f, 1<<16)
		body(bw)
		if err := bw.Flush(); err != nil {
			_ = f.Close() // the flush error is the one worth reporting
			return err
		}
		return f.Close()
	}

	if err := write(in.Labels, func(bw *bufio.Writer) {
		var buf []byte
		for i := 0; i < nodes; i++ {
			buf = strconv.AppendInt(buf[:0], int64(i%classes), 10)
			buf = append(buf, '\n')
			_, _ = bw.Write(buf) // bufio keeps the first error for Flush
		}
	}); err != nil {
		return nil, fmt.Errorf("labels: %w", err)
	}

	perClass := nodes / classes // nodes with label c: c, c+classes, ...
	if err := write(in.EdgeList, func(bw *bufio.Writer) {
		_, _ = fmt.Fprintf(bw, "# scalegnn edgelist v1\n# nodes %d directed false\n", nodes)
		seen := make(map[uint64]struct{}, in.Edges)
		var buf []byte
		for len(seen) < in.Edges {
			u := rng.IntN(nodes)
			var v int
			if rng.Float64() < w.Homophily {
				v = u%classes + classes*rng.IntN(perClass)
			} else {
				v = rng.IntN(nodes)
				if v%classes == u%classes {
					continue
				}
			}
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			key := uint64(u)<<32 | uint64(v)
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			buf = strconv.AppendInt(buf[:0], int64(u), 10)
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(v), 10)
			buf = append(buf, '\n')
			_, _ = bw.Write(buf) // bufio keeps the first error for Flush
		}
	}); err != nil {
		return nil, fmt.Errorf("edge list: %w", err)
	}
	return in, nil
}

// datasetConfig is what dataset.Load needs beside the two files: feature
// synthesis settings and the split.
func datasetConfig(w *workload, seed uint64) dataset.Config {
	return dataset.Config{
		Classes: classes, FeatureDim: featureDim, NoiseStd: w.Noise,
		TrainFrac: trainFrac, ValFrac: valFrac, Seed: seed,
	}
}

// trainConfig is the shared optimizer schedule (ISSUE: Adam lr 0.01, hidden
// 64, dropout 0.5, patience 0).
func trainConfig(w *workload, seed uint64, epochs int) models.TrainConfig {
	cfg := models.DefaultTrainConfig()
	cfg.Epochs = epochs
	cfg.Hidden = hidden
	cfg.BatchSize = batchSize
	cfg.Patience = 0
	cfg.Seed = seed
	cfg.DType = w.DType
	return cfg
}

// newModel builds the workload's model family.
func newModel(w *workload) (models.Trainer, error) {
	switch w.Model {
	case "gcn":
		return models.NewGCN(2)
	case "sage":
		return models.NewGraphSAGE(2, sageFanout)
	case "sign":
		return models.NewSIGN(signHops)
	}
	return nil, fmt.Errorf("unknown model %q", w.Model)
}

// writeSnapshot trains the workload's model for epochs epochs with
// checkpointing on and returns the final snapshot's path. Every = epochs
// leaves exactly one file in dir.
func writeSnapshot(dir string, w *workload, ds *dataset.Dataset, seed uint64, epochs int) (string, *models.Report, error) {
	m, err := newModel(w)
	if err != nil {
		return "", nil, err
	}
	cfg := trainConfig(w, seed, epochs)
	cfg.Checkpoint = train.CheckpointConfig{Dir: dir, Every: epochs, KeepLast: 1}
	rep, err := m.Fit(ds, cfg)
	if err != nil {
		return "", nil, fmt.Errorf("snapshot fit: %w", err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(files) != 1 {
		return "", nil, fmt.Errorf("snapshot dir %s holds %d files (%v), want 1", dir, len(files), err)
	}
	return files[0], rep, nil
}
