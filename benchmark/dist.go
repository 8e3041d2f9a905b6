package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"scalegnn/internal/dataset"
	"scalegnn/internal/distnet"
	"scalegnn/internal/graph"
	"scalegnn/internal/partition"
	"scalegnn/internal/tensor"
	"scalegnn/internal/train"
)

const shards = 2

// shard is one of the two in-process distnet shards. Each plays a separate
// gnntrain -shard i/2 process: its own dataset copy (the propagation hook
// hangs off the CSR), its own cluster endpoint, one goroutine.
type shard struct {
	ds      *dataset.Dataset
	cluster *distnet.Cluster
	hook    *distnet.Hook
	assign  *partition.Assignment
	op      *graph.Operator
	loadMS  float64
	ldgMS   float64
}

func (s *shard) close() {
	s.ds.G.SetApplyHook(nil)
	_ = s.cluster.Close() // benchmark teardown; the sockets are ours
}

// distEpochHook advances the cluster's staleness clock in lockstep with
// training, as cmd/gnntrain does.
type distEpochHook struct{ c *distnet.Cluster }

func (distEpochHook) OnBatch(train.BatchEnd) {}

func (h distEpochHook) OnEpoch(e train.EpochEnd) { h.c.SetEpoch(e.Epoch + 1) }

// recoverExchange turns the propagation hook's typed panic back into an
// error at the goroutine boundary.
func recoverExchange(err *error) {
	if r := recover(); r != nil {
		xe, ok := r.(*distnet.ExchangeError)
		if !ok {
			panic(r)
		}
		*err = xe
	}
}

// onShards runs fn once per shard, each on its own goroutine, and joins.
func onShards(fn func(i int) error) error {
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		//lint:ignore naked-go each goroutine plays one shard process; joined via wg below
		go func(i int) {
			defer wg.Done()
			defer recoverExchange(&errs[i])
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// openShards is one cold set-up of the cluster: on both shards, load the
// dataset, partition with LDG, open the distnet endpoint, attach the hook
// and complete one one-column exchange round (the handshake is lazy; the
// round is what proves both connections are up).
func openShards(e *env, in *inputs, tag string) ([]*shard, error) {
	addrs := make([]string, shards)
	for i := range addrs {
		addrs[i] = "unix:" + filepath.Join(e.dir, fmt.Sprintf("%s-s%d.sock", tag, i))
	}
	out := make([]*shard, shards)
	err := onShards(func(i int) error {
		s := &shard{}
		start := time.Now()
		var err error
		s.ds, err = dataset.Load(in.EdgeList, in.Labels, datasetConfig(e.w, e.seed))
		if err != nil {
			return fmt.Errorf("load: %w", err)
		}
		s.loadMS = ms(time.Since(start))
		start = time.Now()
		s.assign, err = partition.LDG(s.ds.G, shards, 1.05, tensor.NewRand(e.seed^0xd157_9a27))
		if err != nil {
			return err
		}
		s.ldgMS = ms(time.Since(start))
		s.cluster, err = distnet.Open(distnet.Config{Shard: i, N: shards, Addrs: addrs, Fingerprint: e.seed})
		if err != nil {
			return err
		}
		out[i] = s
		s.hook, err = distnet.NewHook(s.cluster, s.assign)
		if err != nil {
			return err
		}
		s.hook.Attach(s.ds.G)
		s.op = graph.NewOperator(s.ds.G, graph.NormSymmetric, true)
		s.op.ApplyInto(tensor.New(s.ds.G.N, 1), tensor.New(s.ds.G.N, 1))
		return nil
	})
	if err != nil {
		closeShards(out)
		return nil, err
	}
	return out, nil
}

func closeShards(ss []*shard) {
	for _, s := range ss {
		if s != nil && s.cluster != nil {
			s.close()
		}
	}
}

// distOut is one two-shard fit.
type distOut struct {
	fits      []*fitOut
	wireBytes int64 // frame bytes sent by both shards during Fit
	rounds    int64 // shard 0's exchange rounds during Fit
	stats     distnet.Stats
}

// distFit trains on both shards in lockstep, then runs predicts Predict
// calls on both.
func distFit(e *env, ss []*shard, tracks []*track, epochs, predicts int, batches bool) (*distOut, error) {
	out := &distOut{fits: make([]*fitOut, shards)}
	sent0, _ := distnet.WireBytes()
	rounds0 := ss[0].cluster.Stats().Rounds
	if err := onShards(func(i int) error {
		var err error
		out.fits[i], err = fit(e, tracks[i], ss[i].ds, epochs, batches, distEpochHook{ss[i].cluster})
		return err
	}); err != nil {
		return nil, err
	}
	sent1, _ := distnet.WireBytes()
	out.wireBytes = sent1 - sent0
	out.rounds = ss[0].cluster.Stats().Rounds - rounds0
	if err := onShards(func(i int) error {
		return out.fits[i].predict(tracks[i], ss[i].ds, predicts)
	}); err != nil {
		return nil, err
	}
	for _, s := range ss {
		st := s.cluster.Stats()
		out.stats.StaleHits += st.StaleHits
		out.stats.Reconnects += st.Reconnects
		out.stats.Replays += st.Replays
		out.stats.FramesCorrupt += st.FramesCorrupt
	}
	return out, nil
}

// slower returns the fit of the shard with the larger median epoch: the
// epoch of a synchronous cluster is the slower shard's.
func (d *distOut) slower() *fitOut {
	best := d.fits[0]
	for _, f := range d.fits[1:] {
		if median(f.hook.epochMS()) > median(best.hook.epochMS()) {
			best = f
		}
	}
	return best
}

// check applies the dist output checks: equal fingerprints on every shard
// and no retry counter moved.
func (d *distOut) check(m *measured) {
	for i, f := range d.fits {
		if f.fingerprint != d.fits[0].fingerprint {
			m.failf("shard %d fingerprint %016x differs from shard 0's %016x", i, f.fingerprint, d.fits[0].fingerprint)
		}
	}
	if s := d.stats; s.StaleHits+s.Reconnects+s.Replays+s.FramesCorrupt != 0 {
		m.failf("distnet retried: stale_hits=%d reconnects=%d replays=%d frames_corrupt=%d",
			s.StaleHits, s.Reconnects, s.Replays, s.FramesCorrupt)
	}
}

// runDist is the dist_gcn_2shard workload.
func runDist(e *env) (*measured, error) {
	in, err := generate(e.dir, e.w, e.sz.nodes, e.seed)
	if err != nil {
		return nil, err
	}
	m := newMeasured()
	t := e.rec.track(0)
	tracks := []*track{t, e.rec.track(1)}
	untracked := make([]*track, shards)

	var ss []*shard
	var setupMS []float64
	for i := 0; i < e.sz.setups; i++ {
		closeShards(ss)
		t.begin("distnet.setup")
		start := time.Now()
		ss, err = openShards(e, in, fmt.Sprintf("u%d", i))
		setupMS = append(setupMS, ms(time.Since(start)))
		t.end()
		if err != nil {
			return nil, err
		}
	}
	defer func() { closeShards(ss) }()
	m.e2e["setup_s"] = median(setupMS) / 1e3

	epochs := e.sz.epochs
	var d *distOut
	var p *probe
	var refP50 float64
	var timers []*applyTimer
	if !e.traced {
		d, err = distFit(e, ss, untracked, epochs, 1, false)
		if err != nil {
			return nil, err
		}
	} else {
		epochs = max(epochs/2, 3)
		ref, err := distFit(e, ss, untracked, epochs, 1, false)
		if err != nil {
			return nil, err
		}
		ref.check(m)
		refP50, m.attempted = median(ref.slower().hook.epochMS()), shards*epochs
		refFP := ref.fits[0].fingerprint
		closeShards(ss)
		if ss, err = openShards(e, in, "traced"); err != nil {
			return nil, err
		}
		p = startProbe()
		for i, s := range ss {
			tm := &applyTimer{g: s.ds.G, t: tracks[i], name: "distnet.apply", inner: s.hook}
			s.ds.G.SetApplyHook(tm)
			timers = append(timers, tm)
		}
		d, err = distFit(e, ss, tracks, epochs, e.sz.predicts, true)
		p.stop()
		if err != nil {
			return nil, err
		}
		if d.fits[0].fingerprint != refFP {
			m.failf("tracing changed the predictions: fingerprint %016x traced, %016x untraced", d.fits[0].fingerprint, refFP)
		}
	}
	d.check(m)
	m.attempted += shards * epochs
	slow := d.slower()
	trainEndToEnd(m, e, slow, len(ss[0].ds.TrainIdx))
	m.e2e["live_heap_mb"] = liveHeapMB()

	// The plain single-process fit of the same configuration: the baseline
	// the cluster's predictions must reproduce bit for bit.
	closeShards(ss)
	single, err := fit(e, t, ss[0].ds, epochs, false)
	if err != nil {
		return nil, err
	}
	if err := single.predict(t, ss[0].ds, 1); err != nil {
		return nil, err
	}
	if single.fingerprint != d.fits[0].fingerprint {
		m.failf("cluster fingerprint %016x differs from the single-process fit's %016x", d.fits[0].fingerprint, single.fingerprint)
	}
	if !e.traced {
		return m, nil
	}

	L := m.layer
	p.runtimeMetrics(L, shards*epochs)
	L["obs.trace_overhead_frac"] = ratio(m.e2e["op_ms_p50"], refP50) - 1
	loadLayer(L, in, []float64{ss[0].loadMS, ss[1].loadMS})
	fitLayer(L, slow)
	s0, f0, tm0 := ss[0], d.fits[0], timers[0]
	ep := f0.hook.epochMS()
	steady := float64(len(ep))
	from, to := f0.hook.window()

	L["partition.ldg_ms"] = s0.ldgMS
	q := partition.Evaluate(s0.ds.G, s0.assign)
	L["partition.edge_cut_frac"] = q.CutFrac
	L["partition.balance"] = q.Balance

	applyMS, calls := e.rec.total(0, tm0.name, e.rec.at(from), e.rec.at(to))
	x := tensor.RandNormal(s0.ds.G.N, featureDim, 1, tensor.NewRand(1))
	dst := tensor.New(s0.ds.G.N, featureDim)
	L["graph.spmm_rows_ms"] = medianOf(e.sz.kernelReps, func() { s0.op.ApplyRowsInto(x, dst, s0.hook.Owned()) })
	L["graph.spmm_calls_per_epoch"] = float64(calls) / steady
	L["graph.spmm_busy_ms_per_epoch"] = L["graph.spmm_rows_ms"] * float64(calls) / steady
	L["graph.spmm_share"] = ratio(L["graph.spmm_busy_ms_per_epoch"], median(ep))
	L["distnet.apply_ms_per_epoch"] = applyMS / steady
	L["distnet.blocked_ms_per_epoch"] = L["distnet.apply_ms_per_epoch"] - L["graph.spmm_busy_ms_per_epoch"]
	L["distnet.comm_share"] = ratio(L["distnet.blocked_ms_per_epoch"], median(ep))
	L["distnet.wire_mb_per_epoch"] = float64(d.wireBytes) / 1e6 / float64(epochs)
	L["distnet.rounds_per_epoch"] = float64(d.rounds) / float64(epochs)
	L["distnet.single_proc_epoch_ms"] = median(single.hook.epochMS())
	L["distnet.epoch_ratio_vs_single"] = ratio(median(slow.hook.epochMS()), L["distnet.single_proc_epoch_ms"])
	L["distnet.stale_hits"] = float64(d.stats.StaleHits)
	L["distnet.reconnects"] = float64(d.stats.Reconnects)
	L["distnet.replays"] = float64(d.stats.Replays)
	standaloneLayers(L, e, s0.ds, single.model)
	L["runtime.peak_rss_mb"] = peakRSSMB()
	return m, nil
}
