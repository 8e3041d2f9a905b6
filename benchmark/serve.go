package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"scalegnn/internal/ckpt"
	"scalegnn/internal/dataset"
	"scalegnn/internal/models"
	"scalegnn/internal/obs"
	"scalegnn/internal/serve"
	"scalegnn/internal/tensor"
)

// serve_mix traffic. Two closed-loop keep-alive clients (callers that wait
// for their reply) draw each request hot with probability hotShare: hotIDs
// node ids from a Zipf(zipfS) popularity ranking, mostly LRU hits. The rest
// are cold: coldIDs uniform ids, mostly misses, one pooled forward each.
const (
	serveClients = 2
	hotShare     = 0.8
	hotIDs       = 4
	coldIDs      = 64
	zipfS        = 1.1
	sloLimit     = 5 * time.Millisecond
	sampleEvery  = 50 // every 50th response is kept and checked offline
)

// servable is what serving needs from a model family.
type servable interface {
	models.Trainer
	models.NodeScorer
	models.Restorer
}

// snapLoader mirrors cmd/gnnserve's snapshot loader over the public
// entry points: every load builds a fresh model, decodes the snapshot
// file, restores (which reruns the precompute) and warms the scorer.
type snapLoader struct {
	w    *workload
	ds   *dataset.Dataset
	seed uint64

	mu        sync.Mutex
	restoreMS []float64
}

func (l *snapLoader) restore(source string) (servable, *ckpt.Snapshot, error) {
	m, err := newModel(l.w)
	if err != nil {
		return nil, nil, err
	}
	sv, ok := m.(servable)
	if !ok {
		return nil, nil, fmt.Errorf("model %s is not servable", m.Name())
	}
	start := time.Now()
	data, err := os.ReadFile(source)
	if err != nil {
		return nil, nil, err
	}
	snap, err := ckpt.Decode(data)
	if err != nil {
		return nil, nil, err
	}
	if err := sv.Restore(l.ds, trainConfig(l.w, l.seed, 1), snap); err != nil {
		return nil, nil, err
	}
	if err := sv.Score([]int{0}, tensor.New(1, sv.Classes())); err != nil {
		return nil, nil, err
	}
	l.mu.Lock()
	l.restoreMS = append(l.restoreMS, ms(time.Since(start)))
	l.mu.Unlock()
	return sv, snap, nil
}

func (l *snapLoader) load(source string) (serve.Model, serve.SwapInfo, error) {
	m, snap, err := l.restore(source)
	if err != nil {
		return nil, serve.SwapInfo{}, err
	}
	return m, serve.SwapInfo{Fingerprint: snap.Fingerprint, Source: source}, nil
}

// served is one running engine + HTTP server.
type served struct {
	eng    *serve.Engine
	srv    *serve.Server
	base   string
	loader *snapLoader
	loadMS float64 // the dataset.Load part of the set-up
}

func (s *served) close() {
	_ = s.srv.Close() // benchmark teardown; the listener is ours
	s.eng.Close()
}

// startServed is one cold set-up: load the dataset, restore the snapshot,
// start engine and server with gnnserve's defaults, and get one /predict
// answered.
func startServed(e *env, in *inputs) (*served, *dataset.Dataset, error) {
	start := time.Now()
	ds, err := dataset.Load(in.EdgeList, in.Labels, datasetConfig(e.w, e.seed))
	if err != nil {
		return nil, nil, fmt.Errorf("load: %w", err)
	}
	loadMS := ms(time.Since(start))
	loader := &snapLoader{w: e.w, ds: ds, seed: e.seed}
	m, info, err := loader.load(in.Snapshots[0])
	if err != nil {
		return nil, nil, fmt.Errorf("restore: %w", err)
	}
	eng := serve.NewEngine(serve.Config{
		Window: 0, MaxBatch: 256, CacheSize: 4096,
		SLO: serve.SLOConfig{Target: 25 * time.Millisecond, Objective: 0.99, Window: 60 * time.Second, BurnThreshold: 1},
	})
	eng.Swap(m, info)
	srv := serve.NewServer(eng, loader.load)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		eng.Close()
		return nil, nil, err
	}
	s := &served{eng: eng, srv: srv, base: "http://" + srv.Addr(), loader: loader, loadMS: loadMS}
	c := newClient()
	defer c.CloseIdleConnections()
	if _, err := predictHTTP(c, s.base, []int{0}, true); err != nil {
		s.close()
		return nil, nil, fmt.Errorf("first request: %w", err)
	}
	return s, ds, nil
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConns: 4, MaxIdleConnsPerHost: 4}}
}

// predictReply is the part of the /predict response the checks read.
type predictReply struct {
	Generation  uint64 `json:"generation"`
	Predictions []int  `json:"predictions"`
}

// predictHTTP posts one /predict. With parse false the body is drained
// unparsed (the load path keeps the client's own cost small).
func predictHTTP(c *http.Client, base string, nodes []int, parse bool) (*predictReply, error) {
	body := make([]byte, 0, 16+8*len(nodes))
	body = append(body, `{"nodes":[`...)
	for i, v := range nodes {
		if i > 0 {
			body = append(body, ',')
		}
		body = strconv.AppendInt(body, int64(v), 10)
	}
	body = append(body, "]}"...)
	resp, err := c.Post(base+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !parse {
		_, err := io.Copy(io.Discard, resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil, err
	}
	var r predictReply
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		return nil, err
	}
	if len(r.Predictions) != len(nodes) {
		return nil, fmt.Errorf("%d predictions for %d nodes", len(r.Predictions), len(nodes))
	}
	return &r, nil
}

// traffic draws one client's request stream.
type traffic struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	n     int
	nodes []int
}

func newTraffic(seed uint64, stream uint64, n int) *traffic {
	rng := rand.New(rand.NewPCG(seed, stream))
	return &traffic{rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(n-1)), n: n, nodes: make([]int, 0, coldIDs)}
}

// next returns the next request's node ids (reused on the following call)
// and whether it is a hot one.
func (t *traffic) next() ([]int, bool) {
	hot := t.rng.Float64() < hotShare
	t.nodes = t.nodes[:0]
	if hot {
		for i := 0; i < hotIDs; i++ {
			t.nodes = append(t.nodes, int(t.zipf.Uint64()))
		}
	} else {
		for i := 0; i < coldIDs; i++ {
			t.nodes = append(t.nodes, t.rng.IntN(t.n))
		}
	}
	return t.nodes, hot
}

// sample is one kept response, checked against offline Predict afterwards.
type sample struct {
	gen   uint64
	nodes []int
	pred  []int
}

// loadOut is one load phase.
type loadOut struct {
	hotMS, coldMS []float64
	sent, failed  int
	sloOK         int
	samples       []sample
	swapMS        []float64
	swapErrs      []string
	elapsed       time.Duration
	// winRate is the requests answered per second in each swapEvery-long
	// window of the phase; every window holds exactly one swap.
	winRate []float64
}

func (o *loadOut) allMS() []float64 {
	return append(append([]float64(nil), o.hotMS...), o.coldMS...)
}

// swapper alternates the two snapshots. n counts swaps over the engine's
// life, so generation g always serves Snapshots[(g-1)%2].
type swapper struct {
	n int
}

// loadPhase drives the server for dur with serveClients closed-loop
// clients; when sw is non-nil a third goroutine posts /admin/swap every
// swapEvery.
func loadPhase(e *env, t *track, s *served, in *inputs, nodes int, dur time.Duration, stream uint64, sw *swapper) *loadOut {
	t.begin("serve.load")
	defer t.end()
	outs := make([]loadOut, serveClients)
	win := min(e.sz.swapEvery, dur)
	nWin := int(dur / win)
	winN := make([][]int, serveClients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		//lint:ignore naked-go closed-loop load client; joined via wg below
		go func(c int) {
			defer wg.Done()
			o := &outs[c]
			winN[c] = make([]int, nWin)
			client := newClient()
			defer client.CloseIdleConnections()
			tr := newTraffic(e.seed, stream+uint64(c), nodes)
			for time.Now().Before(deadline) {
				ids, hot := tr.next()
				keep := o.sent%sampleEvery == 0
				t0 := time.Now()
				r, err := predictHTTP(client, s.base, ids, keep)
				lat := time.Since(t0)
				o.sent++
				if err != nil {
					o.failed++
					continue
				}
				if w := int(time.Since(start) / win); w < nWin {
					winN[c][w]++
				}
				if lat <= sloLimit {
					o.sloOK++
				}
				if hot {
					o.hotMS = append(o.hotMS, ms(lat))
				} else {
					o.coldMS = append(o.coldMS, ms(lat))
				}
				if keep {
					o.samples = append(o.samples, sample{r.Generation, append([]int(nil), ids...), r.Predictions})
				}
			}
		}(c)
	}

	var swapMS []float64
	var swapErrs []string
	if sw != nil {
		wg.Add(1)
		//lint:ignore naked-go the writer beside the reads; joined via wg below
		go func() {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			// Mid-window, so each rate window pays for exactly one swap.
			for next := start.Add(e.sz.swapEvery / 2); next.Before(deadline); next = next.Add(e.sz.swapEvery) {
				time.Sleep(time.Until(next))
				sw.n++
				body := fmt.Sprintf(`{"source":%q}`, in.Snapshots[sw.n%2])
				t0 := time.Now()
				resp, err := client.Post(s.base+"/admin/swap", "application/json", bytes.NewReader([]byte(body)))
				if err == nil {
					_, err = io.Copy(io.Discard, resp.Body)
					_ = resp.Body.Close() // body already drained
					if err == nil && resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("status %d", resp.StatusCode)
					}
				}
				if err != nil {
					swapErrs = append(swapErrs, err.Error())
					continue
				}
				swapMS = append(swapMS, ms(time.Since(t0)))
			}
		}()
	}
	wg.Wait()

	out := &loadOut{swapMS: swapMS, swapErrs: swapErrs, elapsed: time.Since(start)}
	for i := range outs {
		o := &outs[i]
		out.hotMS = append(out.hotMS, o.hotMS...)
		out.coldMS = append(out.coldMS, o.coldMS...)
		out.sent += o.sent
		out.failed += o.failed
		out.sloOK += o.sloOK
		out.samples = append(out.samples, o.samples...)
	}
	out.winRate = make([]float64, nWin)
	for w := range out.winRate {
		for c := range winN {
			out.winRate[w] += float64(winN[c][w]) / win.Seconds()
		}
	}
	return out
}

// serveEndToEnd fills the load-defined end-to-end metrics: the median over
// every request (80 % are hot, so this is the cache/HTTP path), the median
// cold request (the gather + batched forward path), the median window's
// answer rate and the share of requests sent that were answered within
// the limit.
func serveEndToEnd(m *measured, o *loadOut) {
	m.e2e["op_ms_p50"] = median(o.allMS())
	m.e2e["infer_ms_p50"] = median(o.coldMS)
	m.e2e["work_per_s"] = median(o.winRate)
	m.e2e["slo_ok_frac"] = ratio(float64(o.sloOK), float64(o.sent))
}

// checkLoad counts a load phase's requests as ops and fails the run on any
// request or swap that failed.
func checkLoad(m *measured, o *loadOut) {
	m.attempted += o.sent
	if o.failed > 0 {
		m.failf("%d of %d requests failed", o.failed, o.sent)
	}
	for _, e := range o.swapErrs {
		m.failf("swap failed: %s", e)
	}
}

// runServe is the serve_mix workload.
func runServe(e *env) (*measured, error) {
	in, err := generate(e.dir, e.w, e.sz.nodes, e.seed)
	if err != nil {
		return nil, err
	}
	m := newMeasured()
	t := e.rec.track(0)

	// Input generation, continued: two trained snapshots of one run
	// configuration (the fingerprint ignores the epoch count).
	genDS, err := dataset.Load(in.EdgeList, in.Labels, datasetConfig(e.w, e.seed))
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	var snapRep *models.Report
	for i, epochs := range []int{2, 3} {
		dir := filepath.Join(e.dir, fmt.Sprintf("snap%d", i))
		path, rep, err := writeSnapshot(dir, e.w, genDS, e.seed, epochs)
		if err != nil {
			return nil, err
		}
		in.Snapshots = append(in.Snapshots, path)
		snapRep = rep
	}
	genDS = nil

	var s *served
	var ds *dataset.Dataset
	var setupMS, loadMS []float64
	for i := 0; i < e.sz.setups; i++ {
		if s != nil {
			s.close()
		}
		t.begin("serve.setup")
		start := time.Now()
		s, ds, err = startServed(e, in)
		setupMS = append(setupMS, ms(time.Since(start)))
		t.end()
		if err != nil {
			return nil, err
		}
		loadMS = append(loadMS, s.loadMS)
	}
	defer s.close()
	m.e2e["setup_s"] = median(setupMS) / 1e3

	loadPhase(e, nil, s, in, ds.G.N, e.sz.warmFor, 100, nil) // warm-up: caches and connections
	sw := &swapper{}
	var o *loadOut
	var p *probe
	var spans []obs.SpanRecord
	var refP50 float64
	var refSamples []sample
	var st0 serve.Stats
	if !e.traced {
		o = loadPhase(e, t, s, in, ds.G.N, e.sz.serveFor, 200, sw)
	} else {
		ref := loadPhase(e, nil, s, in, ds.G.N, e.sz.serveFor/2, 200, sw)
		refP50 = median(ref.allMS())
		checkLoad(m, ref)
		refSamples = ref.samples
		p = startProbe()
		st0 = s.eng.Stats()
		o = loadPhase(e, t, s, in, ds.G.N, e.sz.serveFor/2, 300, sw)
		spans = p.stop()
	}
	st1 := s.eng.Stats()
	serveEndToEnd(m, o)
	checkLoad(m, o)

	// What the service answers for the test nodes, against the labels.
	acc, err := servedAccuracy(s, ds)
	if err != nil {
		return nil, err
	}
	m.e2e["test_acc"] = acc
	if acc < e.w.Floor && !e.smoke && !e.traced {
		m.failf("served test_acc %.4f below the floor %.2f", acc, e.w.Floor)
	}
	m.e2e["live_heap_mb"] = liveHeapMB() // engine, server and dataset stay referenced below

	predicts := 1
	if e.traced {
		predicts = e.sz.predicts
	}
	offline, predictMS, err := checkSamples(m, s.loader, in, append(refSamples, o.samples...), predicts)
	if err != nil {
		return nil, err
	}
	if !e.traced {
		return m, nil
	}

	L := m.layer
	p.runtimeMetrics(L, o.sent)
	L["obs.trace_overhead_frac"] = ratio(m.e2e["op_ms_p50"], refP50) - 1
	all := o.allMS()
	L["serve.req_per_s"] = float64(o.sent-o.failed) / o.elapsed.Seconds()
	L["serve.req_ms_p50"] = median(all)
	L["serve.req_ms_p95"] = quantile(all, 0.95)
	L["serve.hot_req_ms_p50"] = median(o.hotMS)
	L["serve.cold_req_ms_p50"] = median(o.coldMS)
	L["serve.req_ms_p99"] = quantile(all, 0.99)
	L["serve.req_ms_max"] = quantile(all, 1)
	L["serve.swap_ms_p50"] = median(o.swapMS)
	L["serve.swaps"] = float64(len(o.swapMS))
	L["serve.requests_failed"] = float64(o.failed)
	hits, misses := float64(st1.CacheHits-st0.CacheHits), float64(st1.CacheMisses-st0.CacheMisses)
	L["serve.cache_hit_ratio"] = ratio(hits, hits+misses)
	L["serve.rows_per_batch"] = ratio(misses, float64(st1.Batches-st0.Batches))
	var waitUS, fwdUS []float64
	var linked float64
	for i := range spans {
		switch sp := &spans[i]; sp.Name {
		case "serve.request":
			if sp.Wait > 0 {
				waitUS = append(waitUS, float64(sp.Wait.Nanoseconds())/1e3)
			}
		case "serve.batch_forward":
			fwdUS = append(fwdUS, float64(sp.Dur.Nanoseconds())/1e3)
			linked += float64(len(sp.Links))
		}
	}
	L["serve.queue_wait_us_p50"] = median(waitUS)
	L["serve.batch_forward_us_p50"] = median(fwdUS)
	L["serve.requests_per_batch"] = ratio(linked, float64(len(fwdUS)))

	t.begin("serve.replay")
	replay(L, e, s, ds.G.N)
	t.end()
	L["serve.http_overhead_us"] = L["serve.req_ms_p50"]*1e3 - L["serve.engine_predict_us_p50"]

	loadLayer(L, in, loadMS)
	L["models.precompute_ms"] = ms(snapRep.Precompute)
	L["models.peak_mfloats"] = float64(snapRep.PeakFloats) / 1e6
	L["models.predict_ms_p50"] = median(predictMS)
	L["models.predict_ms_p90"] = quantile(predictMS, 0.9)
	L["ckpt.restore_ms"] = median(s.loader.restoreMS)
	if err := ckptLayer(L, e, in.Snapshots[0]); err != nil {
		return nil, err
	}
	standaloneLayers(L, e, ds, offline[0])
	L["runtime.peak_rss_mb"] = peakRSSMB()
	return m, nil
}

// servedAccuracy asks the running service for every test node and scores
// the answers against the labels.
func servedAccuracy(s *served, ds *dataset.Dataset) (float64, error) {
	c := newClient()
	defer c.CloseIdleConnections()
	hit := 0
	for lo := 0; lo < len(ds.TestIdx); lo += 256 {
		ids := ds.TestIdx[lo:min(lo+256, len(ds.TestIdx))]
		r, err := predictHTTP(c, s.base, ids, true)
		if err != nil {
			return 0, fmt.Errorf("test-node request: %w", err)
		}
		for i, v := range ids {
			if r.Predictions[i] == ds.Labels[v] {
				hit++
			}
		}
	}
	return float64(hit) / float64(len(ds.TestIdx)), nil
}

// checkSamples compares every kept response with the offline Predict of
// the snapshot whose generation answered it. It returns the two restored
// models and the timings of predicts Predict calls on the first.
func checkSamples(m *measured, l *snapLoader, in *inputs, samples []sample, predicts int) ([]servable, []float64, error) {
	restored := make([]servable, len(in.Snapshots))
	offline := make([][]int, len(in.Snapshots))
	var predictMS []float64
	for i, path := range in.Snapshots {
		sv, _, err := l.restore(path)
		if err != nil {
			return nil, nil, fmt.Errorf("offline restore: %w", err)
		}
		for k := 0; k < predicts; k++ {
			start := time.Now()
			offline[i], err = sv.Predict(l.ds)
			if i == 0 {
				predictMS = append(predictMS, ms(time.Since(start)))
			}
			if err != nil {
				return nil, nil, fmt.Errorf("offline predict: %w", err)
			}
			if i != 0 {
				break
			}
		}
		restored[i] = sv
	}
	bad := 0
	for _, sm := range samples {
		want := offline[(sm.gen-1)%uint64(len(offline))]
		for i, v := range sm.nodes {
			if sm.pred[i] != want[v] {
				bad++
				break
			}
		}
	}
	if bad > 0 {
		m.failf("%d of %d sampled responses differ from offline Predict of their generation", bad, len(samples))
	}
	return restored, predictMS, nil
}

// replay sends the clients' request stream straight to Engine.Predict from
// one goroutine: the engine's own latency without HTTP, and exact per-kind
// cache hit ratios from the Stats delta around each call.
func replay(L map[string]float64, e *env, s *served, nodes int) {
	tr := newTraffic(e.seed, 400, nodes)
	ctx := context.Background()
	var us []float64
	var hit, miss [2]float64
	before := s.eng.Stats()
	for i := 0; i < e.sz.replay; i++ {
		ids, hot := tr.next()
		start := time.Now()
		_, err := s.eng.Predict(ctx, ids)
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
		after := s.eng.Stats()
		if err != nil {
			before = after
			continue
		}
		k := 0
		if hot {
			k = 1
		}
		hit[k] += float64(after.CacheHits - before.CacheHits)
		miss[k] += float64(after.CacheMisses - before.CacheMisses)
		before = after
	}
	L["serve.engine_predict_us_p50"] = median(us)
	L["serve.cold_cache_hit_ratio"] = ratio(hit[0], hit[0]+miss[0])
	L["serve.hot_cache_hit_ratio"] = ratio(hit[1], hit[1]+miss[1])
}

// ckptLayer times re-encoding and durably writing the snapshot, and
// records its size.
func ckptLayer(L map[string]float64, e *env, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	snap, err := ckpt.Decode(data)
	if err != nil {
		return err
	}
	L["ckpt.bytes"] = float64(len(data))
	out := filepath.Join(e.dir, "rewrite.ckpt")
	var werr error
	L["ckpt.write_ms"] = medianOf(5, func() {
		if err := ckpt.WriteFileDurable(out, snap.Encode()); err != nil {
			werr = err
		}
	})
	return werr
}
