package main

import (
	"fmt"
	"runtime"
	"time"

	"scalegnn/internal/dataset"
	"scalegnn/internal/models"
	"scalegnn/internal/obs"
	"scalegnn/internal/train"
)

// env is one run of one workload.
type env struct {
	w      *workload
	seed   uint64
	traced bool
	smoke  bool   // tiny sizes for the schema test; accuracy floors do not apply
	dir    string // the run's scratch directory, removed on exit
	sz     sizes
	rec    *recorder // nil unless traced
}

// sizes are the repeat counts of a run; smoke shrinks them all.
type sizes struct {
	nodes      int
	epochs     int
	setups     int // cold set-ups timed; setup_s is their median
	predicts   int // traced run: Predict calls after Fit
	kernelReps int // standalone kernel repeats
	serveFor   time.Duration
	warmFor    time.Duration
	swapEvery  time.Duration
	replay     int // in-process requests replayed against Engine.Predict
}

func sizesFor(w *workload, seconds float64, smoke bool) sizes {
	if smoke {
		return sizes{
			nodes: 1500, epochs: 3, setups: 2, predicts: 3, kernelReps: 3,
			serveFor: 300 * time.Millisecond, warmFor: 50 * time.Millisecond,
			swapEvery: 100 * time.Millisecond, replay: 500,
		}
	}
	return sizes{
		nodes: w.Nodes, epochs: w.epochs(seconds), setups: 9, predicts: 21, kernelReps: 15,
		serveFor:  time.Duration(seconds * float64(time.Second)),
		warmFor:   time.Duration(seconds / 12 * float64(time.Second)),
		swapEvery: 2 * time.Second, replay: 20000,
	}
}

// measured is what a run produces before it is rendered as the result line.
type measured struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failures  []string // failed output checks; any entry fails every op
}

func newMeasured() *measured {
	return &measured{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (m *measured) failf(format string, args ...any) {
	m.failures = append(m.failures, fmt.Sprintf(format, args...))
}

// epochHook timestamps the engine's progress events. Epoch durations are
// the gaps between consecutive OnEpoch events (steps + validation); the
// first epoch has no hooked start and is the warm-up. The gap from an
// epoch's last OnBatch to its OnEpoch is its validation pass: one
// inference forward, no gradients.
type epochHook struct {
	epochEnds []time.Time
	inferMS   []float64
	batches   bool // record per-batch gaps too (traced run)
	last      time.Time
	batchMS   []float64
}

func (h *epochHook) OnBatch(train.BatchEnd) {
	now := time.Now()
	if h.batches {
		h.batchMS = append(h.batchMS, ms(now.Sub(h.last)))
	}
	h.last = now
}

func (h *epochHook) OnEpoch(train.EpochEnd) {
	now := time.Now()
	h.epochEnds = append(h.epochEnds, now)
	h.inferMS = append(h.inferMS, ms(now.Sub(h.last)))
	h.last = now
}

func (h *epochHook) epochMS() []float64 {
	out := make([]float64, 0, len(h.epochEnds))
	for i := 1; i < len(h.epochEnds); i++ {
		out = append(out, ms(h.epochEnds[i].Sub(h.epochEnds[i-1])))
	}
	return out
}

// window is the steady part of a fit: first to last OnEpoch event.
func (h *epochHook) window() (from, to time.Time) {
	return h.epochEnds[0], h.epochEnds[len(h.epochEnds)-1]
}

// fitOut is one Fit plus the offline predictions that follow it.
type fitOut struct {
	model       models.Trainer
	rep         *models.Report
	hook        *epochHook
	fitS        float64
	predictMS   []float64
	fingerprint uint64
}

// fit runs Fit with an epoch hook; extra hooks run after the timing hook.
func fit(e *env, t *track, ds *dataset.Dataset, epochs int, batches bool, extra ...train.Hook) (*fitOut, error) {
	m, err := newModel(e.w)
	if err != nil {
		return nil, err
	}
	out := &fitOut{model: m, hook: &epochHook{batches: batches}}
	cfg := trainConfig(e.w, e.seed, epochs)
	cfg.Hooks = append([]train.Hook{out.hook}, extra...)

	t.begin("models.fit")
	start := time.Now()
	out.hook.last = start
	out.rep, err = m.Fit(ds, cfg)
	out.fitS = time.Since(start).Seconds()
	t.end()
	if err != nil {
		return nil, fmt.Errorf("fit: %w", err)
	}
	if len(out.hook.epochEnds) != epochs {
		return nil, fmt.Errorf("fit ran %d epochs, want %d", len(out.hook.epochEnds), epochs)
	}
	return out, nil
}

// predict runs n full-graph Predict calls on the fitted model. Every call
// must return the same labels; their fingerprint identifies the run.
func (f *fitOut) predict(t *track, ds *dataset.Dataset, n int) error {
	for i := 0; i < n; i++ {
		t.begin("models.predict")
		start := time.Now()
		pred, err := f.model.Predict(ds)
		f.predictMS = append(f.predictMS, ms(time.Since(start)))
		t.end()
		if err != nil {
			return fmt.Errorf("predict: %w", err)
		}
		if len(pred) != ds.G.N {
			return fmt.Errorf("predict returned %d labels for %d nodes", len(pred), ds.G.N)
		}
		fp := models.PredictionFingerprint(pred)
		if i > 0 && fp != f.fingerprint {
			return fmt.Errorf("predict call %d changed the predictions", i)
		}
		f.fingerprint = fp
	}
	return nil
}

// fitAndPredict is fit followed by predicts Predict calls.
func fitAndPredict(e *env, t *track, ds *dataset.Dataset, epochs, predicts int, batches bool) (*fitOut, error) {
	f, err := fit(e, t, ds, epochs, batches)
	if err != nil {
		return nil, err
	}
	return f, f.predict(t, ds, predicts)
}

// trainEndToEnd fills the end-to-end metrics a fit defines. work_per_s
// counts training-node visits.
func trainEndToEnd(m *measured, e *env, f *fitOut, trainNodes int) {
	ep := f.hook.epochMS()
	m.e2e["op_ms_p50"] = median(ep)
	m.e2e["infer_ms_p50"] = median(f.hook.inferMS)
	var rates []float64
	for _, w := range windows(ep) {
		rates = append(rates, float64(len(w)*trainNodes)/(sum(w)/1e3))
	}
	m.e2e["work_per_s"] = median(rates)
	m.e2e["test_acc"] = f.rep.TestAcc
	if f.rep.TestAcc < e.w.Floor && !e.smoke && !e.traced {
		m.failf("test_acc %.4f below the floor %.2f", f.rep.TestAcc, e.w.Floor)
	}
}

// loadSetups times sz.setups cold dataset loads and keeps the last dataset.
func loadSetups(e *env, t *track, in *inputs) (*dataset.Dataset, []float64, error) {
	var ds *dataset.Dataset
	var loadMS []float64
	for i := 0; i < e.sz.setups; i++ {
		t.begin("dataset.load")
		start := time.Now()
		var err error
		ds, err = dataset.Load(in.EdgeList, in.Labels, datasetConfig(e.w, e.seed))
		loadMS = append(loadMS, ms(time.Since(start)))
		t.end()
		if err != nil {
			return nil, nil, fmt.Errorf("load: %w", err)
		}
	}
	return ds, loadMS, nil
}

// runTrain is the three single-process training workloads.
func runTrain(e *env) (*measured, error) {
	in, err := generate(e.dir, e.w, e.sz.nodes, e.seed)
	if err != nil {
		return nil, err
	}
	m := newMeasured()
	t := e.rec.track(0)

	ds, loadMS, err := loadSetups(e, t, in)
	if err != nil {
		return nil, err
	}
	m.e2e["setup_s"] = median(loadMS) / 1e3

	if !e.traced {
		f, err := fitAndPredict(e, t, ds, e.sz.epochs, 1, false)
		if err != nil {
			return nil, err
		}
		m.attempted = e.sz.epochs
		trainEndToEnd(m, e, f, len(ds.TrainIdx))
		m.e2e["live_heap_mb"] = liveHeapMB()
		runtime.KeepAlive(f) // the heap figure is the fitted model + dataset
		runtime.KeepAlive(ds)
		return m, nil
	}

	// Traced run: an untraced reference fit, then the same fit with every
	// probe on. Both halves train the same epochs from the same seed, so
	// their predictions must be identical.
	half := max(e.sz.epochs/2, 3)
	ref, err := fitAndPredict(e, nil, ds, half, 1, false)
	if err != nil {
		return nil, err
	}
	refP50, refFP := median(ref.hook.epochMS()), ref.fingerprint
	ref = nil // drop the reference model before the traced half measures memory

	p := startProbe()
	spmm := &applyTimer{g: ds.G, t: t, name: "graph.spmm"}
	ds.G.SetApplyHook(spmm)
	f, err := fitAndPredict(e, t, ds, half, e.sz.predicts, true)
	ds.G.SetApplyHook(nil)
	spans := p.stop()
	if err != nil {
		return nil, err
	}
	m.attempted = 2 * half
	if f.fingerprint != refFP {
		m.failf("tracing changed the predictions: fingerprint %016x traced, %016x untraced", f.fingerprint, refFP)
	}
	trainEndToEnd(m, e, f, len(ds.TrainIdx))

	L := m.layer
	p.runtimeMetrics(L, half)
	L["obs.trace_overhead_frac"] = ratio(m.e2e["op_ms_p50"], refP50) - 1
	loadLayer(L, in, loadMS)
	trainLayer(L, e, p, spans, f, spmm, ds)
	standaloneLayers(L, e, ds, f.model)
	if e.w.Model == "gcn" { // the replica rebuilds models.GCN's network
		if err := replicaEpoch(L, e, t, ds, median(f.hook.epochMS())); err != nil {
			return nil, err
		}
	}
	L["runtime.peak_rss_mb"] = peakRSSMB()
	return m, nil
}

// loadLayer fills graph.load_*.
func loadLayer(L map[string]float64, in *inputs, loadMS []float64) {
	L["graph.load_ms"] = median(loadMS)
	L["graph.load_edges_per_s"] = ratio(float64(in.Edges), median(loadMS)/1e3)
}

// fitLayer fills the metrics read off one fit's hook timestamps, report and
// Predict timings.
func fitLayer(L map[string]float64, f *fitOut) {
	ep := f.hook.epochMS()
	L["train.fit_s"] = f.fitS
	L["train.epoch_ms_min"] = quantile(ep, 0)
	L["train.epoch_ms_p50"] = median(ep)
	L["train.epoch_ms_p90"] = quantile(ep, 0.9)
	L["train.batch_ms_p50"] = median(f.hook.batchMS)
	L["train.batch_ms_p99"] = quantile(f.hook.batchMS, 0.99)
	L["train.batches_per_epoch"] = ratio(float64(len(f.hook.batchMS)), float64(len(f.hook.epochEnds)))
	L["models.precompute_ms"] = ms(f.rep.Precompute)
	L["models.peak_mfloats"] = float64(f.rep.PeakFloats) / 1e6
	L["models.predict_ms_p50"] = median(f.predictMS)
	L["models.predict_ms_p90"] = quantile(f.predictMS, 0.9)
}

// trainLayer fills the train.*, models.* and graph.spmm_* metrics of a
// traced fit. Per-epoch figures cover the steady window (epochs 2..E).
func trainLayer(L map[string]float64, e *env, p *probe, spans []obs.SpanRecord, f *fitOut, spmm *applyTimer, ds *dataset.Dataset) {
	fitLayer(L, f)
	ep := f.hook.epochMS()
	steady := float64(len(ep))
	from, to := f.hook.window()
	valMS, _ := p.spanWindow(spans, "train.validate", from, to)
	L["train.validate_ms_per_epoch"] = valMS / steady
	gatherMS, _ := p.spanWindow(spans, "train.gather", from, to)
	L["train.gather_ms_per_epoch"] = gatherMS / steady
	L["train.rows_gathered_per_epoch"] = p.counter("train.rows_gathered") / float64(len(f.hook.epochEnds))

	busyMS, calls := e.rec.total(spmm.t.id, spmm.name, e.rec.at(from), e.rec.at(to))
	L["graph.spmm_calls_per_epoch"] = float64(calls) / steady
	L["graph.spmm_busy_ms_per_epoch"] = busyMS / steady
	L["graph.spmm_share"] = ratio(busyMS, sum(ep))
	if spmm.calls > 0 {
		flops, bytes := spmmWork(ds, e.w.DType, float64(spmm.cols)/float64(spmm.calls))
		L["graph.spmm_gflops"] = ratio(flops*float64(calls), busyMS*1e6)
		L["graph.spmm_gb_s_computed"] = ratio(bytes*float64(calls), busyMS*1e6)
	}
}

// spmmWork is the computed (not measured) work of one ApplyInto over cols
// feature columns: 2 flops per nonzero per column, and the bytes of one
// pass over the CSR arrays, the gathered source rows and the written rows.
func spmmWork(ds *dataset.Dataset, dtype string, cols float64) (flops, bytes float64) {
	es := 8.0
	if dtype == models.DTypeFloat32 {
		es = 4
	}
	nnz := float64(ds.G.NumEdges() + ds.G.N) // arcs + self-loops
	n := float64(ds.G.N)
	flops = 2 * nnz * cols
	bytes = nnz*(4+es) + nnz*cols*es + n*cols*es
	return flops, bytes
}
