package models_test

import (
	"fmt"
	"log"

	"scalegnn/internal/dataset"
	"scalegnn/internal/models"
)

// ExampleSGC is the minimal end-to-end path through the library: generate a
// synthetic node-classification task, train the decoupled SGC model, and
// predict. Training is seeded, so the output is fixed.
func ExampleSGC() {
	// A stochastic block model graph with class-conditional features and a
	// 50/20/30 train/val/test split.
	ds, err := dataset.Generate(dataset.Config{
		Nodes:      5000,
		Classes:    5,
		AvgDegree:  10,
		Homophily:  0.8, // neighbors tend to share labels
		FeatureDim: 32,
		NoiseStd:   1.2,
		TrainFrac:  0.5,
		ValFrac:    0.2,
		Seed:       42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("task: %d nodes, %d arcs, %d classes, measured homophily %.2f\n",
		ds.G.N, ds.G.NumEdges(), ds.NumClasses, dataset.EdgeHomophily(ds.G, ds.Labels))

	// SGC precomputes Â²X once, then trains a linear head with mini-batches
	// and no graph access.
	model, err := models.NewSGC(2)
	if err != nil {
		log.Fatal(err)
	}
	cfg := models.DefaultTrainConfig()
	cfg.Epochs = 100
	rep, err := model.Fit(ds, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("test accuracy %.2f after %d epochs\n", rep.TestAcc, rep.Epochs)

	pred, err := model.Predict(ds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first 10 predictions: %v\n", pred[:10])
	// Output:
	// task: 5000 nodes, 50000 arcs, 5 classes, measured homophily 0.80
	// test accuracy 0.96 after 97 epochs
	// first 10 predictions: [0 1 2 3 4 0 1 2 3 4]
}
