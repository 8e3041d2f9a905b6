// Package serve implements the online inference engine: it holds a trained
// decoupled model (precomputed propagation embeddings + head) behind an
// atomic pointer, coalesces concurrent per-node requests into one pooled
// batched forward, caches hot-node logits in a per-model LRU, and supports
// zero-downtime model hot-swap.
//
// Consistency contract: every request binds exactly one model state at
// entry — its cache lookups and its batched scoring both go through that
// state — so a request in flight during a swap is answered entirely by the
// old model or entirely by the new one, never a mix.
//
// The scoring path deliberately has one consumer: model Score calls reuse
// layer-internal buffers and are not concurrency-safe, so all scoring is
// funneled through a single dispatcher goroutine. Batching is therefore
// not just a throughput trick; it is what turns N concurrent single-node
// requests into one matmul instead of N serialized ones.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"scalegnn/internal/obs"
	"scalegnn/internal/tensor"
)

// Model is the per-node inference contract the engine drives;
// models.NodeScorer satisfies it. Implementations are not required to be
// safe for concurrent Score calls — the engine serializes scoring.
type Model interface {
	Name() string
	Nodes() int
	Classes() int
	// Score reuses pooled scratch buffers with no per-buffer locking, which
	// is sound only while one goroutine — the engine's dispatcher — calls it.
	Score(idx []int, out *tensor.Matrix) error
}

// Engine errors.
var (
	// ErrNoModel means Predict was called before any model was swapped in.
	ErrNoModel = errors.New("serve: no model loaded")
	// ErrClosed means the engine is shutting down.
	ErrClosed = errors.New("serve: engine closed")
	// ErrBadNode means a requested node id is outside the served graph.
	ErrBadNode = errors.New("serve: node id out of range")
)

// Config tunes the engine.
type Config struct {
	// Window is how long the dispatcher waits after the first queued
	// request for more to coalesce into one batch. 0 disables waiting
	// (requests already queued are still drained into the batch).
	Window time.Duration
	// MaxBatch caps the node rows scored in one pooled forward; <= 0
	// means 256.
	MaxBatch int
	// CacheSize bounds the per-model hot-node logit LRU; <= 0 disables
	// caching.
	CacheSize int
	// Registry receives the engine's metrics (request latency histogram,
	// batch sizes, cache hit counters). Nil allocates a private registry;
	// either way the server's /metrics exposes it. Pass an obs session
	// registry to put them on the session's debug listener too.
	Registry *obs.Registry
	// SLO configures the rolling-window latency SLO tracker (slo.go). The
	// zero value disables it; Health then never reports "degraded".
	SLO SLOConfig
}

// SwapInfo describes where a model state came from, for /healthz and logs.
type SwapInfo struct {
	Fingerprint uint64
	Source      string // snapshot path or "fit" for in-process training
	LoadedAt    time.Time
}

// state is one immutable serving generation: a model, its provenance, and
// its cache. Swapping installs a whole new state, so a cache can never
// hold logits from a different generation's weights.
type state struct {
	m     Model
	gen   uint64
	info  SwapInfo
	cache *lruCache // nil when caching is disabled
}

// request is one Predict's cache-miss remainder, queued to the dispatcher.
// The trace fields carry the request span across the coalescing fan-in:
// Predict stamps spanID/enq before the channel send, scoreGroup fills
// batchSpan/queueNS before the done send, and each side reads only what
// the channel hand-off ordered before it — the request span itself is
// never touched off its owning goroutine.
type request struct {
	st      *state
	miss    []int       // node ids needing computation
	missPos []int       // position of each miss in the caller's node list
	scores  [][]float64 // caller-owned, len(original nodes); filled at missPos
	done    chan error  // buffered(1); dispatcher never blocks sending

	enq       time.Time // when Predict queued the request
	spanID    uint64    // the caller's request span id (0 when untraced)
	batchSpan uint64    // set by scoreGroup: the shared batch-forward span id
	queueNS   int64     // set by scoreGroup: time spent queued, ns
}

// Prediction is one answered request.
type Prediction struct {
	Model       string
	Generation  uint64
	Nodes       []int
	Predictions []int
	Logits      [][]float64
}

// Engine is the serving core. Create with NewEngine, install a model with
// Swap, answer requests with Predict, and Close when done.
type Engine struct {
	window   time.Duration
	maxBatch int
	cacheCap int

	cur     atomic.Pointer[state]
	gen     atomic.Uint64
	reqs    chan *request
	quit    chan struct{}
	done    chan struct{}
	closing sync.Once

	reg        *obs.Registry
	mRequests  *obs.Counter
	mErrors    *obs.Counter
	mFailed    *obs.Counter
	mBatches   *obs.Counter
	mCacheHits *obs.Counter
	mCacheMiss *obs.Counter
	mSwaps     *obs.Counter
	hLatency   *obs.Histogram
	hBatchRows *obs.Histogram

	slo *sloTracker // nil when Config.SLO is unset
}

// batchRowBuckets is the bucket layout for batch-size histograms.
var batchRowBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// NewEngine starts the dispatcher and returns a ready (but model-less)
// engine.
func NewEngine(cfg Config) *Engine {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 256
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	e := &Engine{
		window:   cfg.Window,
		maxBatch: cfg.MaxBatch,
		cacheCap: cfg.CacheSize,
		reqs:     make(chan *request, 1024),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),

		reg:        cfg.Registry,
		mRequests:  cfg.Registry.Counter("serve.requests"),
		mErrors:    cfg.Registry.Counter("serve.request_errors"),
		mFailed:    cfg.Registry.Counter("serve.requests_failed"),
		mBatches:   cfg.Registry.Counter("serve.batches"),
		mCacheHits: cfg.Registry.Counter("serve.cache_hits"),
		mCacheMiss: cfg.Registry.Counter("serve.cache_misses"),
		mSwaps:     cfg.Registry.Counter("serve.swaps"),
		hLatency:   cfg.Registry.Histogram("serve.request_seconds", obs.DefaultDurationBuckets),
		hBatchRows: cfg.Registry.Histogram("serve.batch_rows", batchRowBuckets),

		slo: newSLOTracker(cfg.SLO, cfg.Registry),
	}
	//lint:ignore naked-go serving dispatcher, not data-parallel work; lifetime bounded by Close
	go e.dispatch()
	return e
}

// Registry returns the engine's metrics registry (served as /metrics).
func (e *Engine) Registry() *obs.Registry { return e.reg }

// Swap atomically installs a new model with a fresh (cold) cache and
// returns its generation. In-flight requests bound to the previous state
// complete against it; new requests see the new model immediately.
func (e *Engine) Swap(m Model, info SwapInfo) uint64 {
	if info.LoadedAt.IsZero() {
		info.LoadedAt = time.Now()
	}
	gen := e.gen.Add(1)
	e.cur.Store(&state{m: m, gen: gen, info: info, cache: newLRU(e.cacheCap)})
	e.mSwaps.Add(1)
	return gen
}

// Info describes the currently served model.
type Info struct {
	Model       string `json:"model"`
	Generation  uint64 `json:"generation"`
	Nodes       int    `json:"nodes"`
	Classes     int    `json:"classes"`
	Fingerprint string `json:"fingerprint"`
	Source      string `json:"source"`
	LoadedAt    string `json:"loaded_at"`
	CachedNodes int    `json:"cached_nodes"`
}

// Current returns the served model's Info, or ok=false before any Swap.
func (e *Engine) Current() (Info, bool) {
	st := e.cur.Load()
	if st == nil {
		return Info{}, false
	}
	return Info{
		Model:       st.m.Name(),
		Generation:  st.gen,
		Nodes:       st.m.Nodes(),
		Classes:     st.m.Classes(),
		Fingerprint: fmt.Sprintf("%016x", st.info.Fingerprint),
		Source:      st.info.Source,
		LoadedAt:    st.info.LoadedAt.UTC().Format(time.RFC3339Nano),
		CachedNodes: st.cache.len(),
	}, true
}

// Health is the engine's operational status, served by /healthz. Info is
// embedded flat, so a client that only wants the model description decodes
// /healthz as an Info.
type Health struct {
	// Status is "ok", "degraded" (the SLO burn rate crossed its threshold),
	// or "unavailable" (no model loaded).
	Status string `json:"status"`
	*Info
	SLO *SLOStatus `json:"slo,omitempty"`
}

// Health reports the engine's current serving health, folding in the SLO
// tracker's rolling-window burn rate when one is configured. Degradation is
// predictive: the flip happens when the error budget is being spent faster
// than the objective sustains, not when the objective is already blown.
func (e *Engine) Health() Health {
	info, ok := e.Current()
	if !ok {
		return Health{Status: "unavailable"}
	}
	h := Health{Status: "ok", Info: &info, SLO: e.slo.status(time.Now())}
	if h.SLO != nil && h.SLO.Degraded {
		h.Status = "degraded"
	}
	return h
}

// Predict answers class predictions (and logits) for the given nodes. The
// whole answer comes from one model generation. Safe for concurrent use.
//
// When the context carries a request span (obs.ContextWithSpan — the HTTP
// handler attaches one), the span is annotated with the dispatcher fan-in:
// a link to the shared batch-forward span that scored this request's
// misses, and the time the request sat queued. With no span attached every
// annotation is a guarded no-op.
func (e *Engine) Predict(ctx context.Context, nodes []int) (*Prediction, error) {
	start := time.Now()
	sp := obs.SpanFromContext(ctx)
	if len(nodes) == 0 {
		return nil, fmt.Errorf("serve: empty node list")
	}
	st := e.cur.Load()
	if st == nil {
		return nil, ErrNoModel
	}
	n := st.m.Nodes()
	for _, v := range nodes {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("%w: node %d outside [0,%d)", ErrBadNode, v, n)
		}
	}
	e.mRequests.Add(1)

	scores := make([][]float64, len(nodes))
	var miss, missPos []int
	var hits int64
	for i, v := range nodes {
		if l, ok := st.cache.get(v); ok {
			scores[i] = l
			hits++
		} else {
			miss = append(miss, v)
			missPos = append(missPos, i)
		}
	}
	e.mCacheHits.Add(hits)
	e.mCacheMiss.Add(int64(len(miss)))

	if len(miss) > 0 {
		r := &request{
			st: st, miss: miss, missPos: missPos, scores: scores,
			done: make(chan error, 1), enq: time.Now(), spanID: sp.SpanID(),
		}
		select {
		case e.reqs <- r:
		case <-e.quit:
			return nil, ErrClosed
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		select {
		case err := <-r.done:
			if err != nil {
				e.mErrors.Add(1)
				return nil, err
			}
			// The done receive ordered scoreGroup's writes before these reads.
			sp.Link(r.batchSpan)
			sp.SetWait(time.Duration(r.queueNS))
		case <-e.quit:
			return nil, ErrClosed
		case <-ctx.Done():
			// The dispatcher may still fill scores; done is buffered so it
			// never blocks on an abandoned request.
			return nil, ctx.Err()
		}
	}

	preds := make([]int, len(nodes))
	for i, l := range scores {
		best := 0
		for j, v := range l {
			if v > l[best] {
				best = j
			}
		}
		preds[i] = best
	}
	lat := time.Since(start)
	e.hLatency.Observe(lat.Seconds())
	// Only answered requests feed the latency SLO; failures are visible in
	// serve.request_errors / serve.requests_failed instead.
	e.slo.observe(lat, time.Now())
	return &Prediction{
		Model:       st.m.Name(),
		Generation:  st.gen,
		Nodes:       nodes,
		Predictions: preds,
		Logits:      scores,
	}, nil
}

// Close stops the dispatcher and fails queued requests with ErrClosed.
// Idempotent.
func (e *Engine) Close() {
	e.closing.Do(func() { close(e.quit) })
	<-e.done
}

// dispatch is the single scoring goroutine: it forms batches from queued
// requests and answers them.
func (e *Engine) dispatch() {
	defer close(e.done)
	for {
		select {
		case r := <-e.reqs:
			e.collect(r)
		case <-e.quit:
			e.failQueued()
			return
		}
	}
}

// collect gathers more requests after the first — waiting up to the
// batching window when one is configured, otherwise just draining what is
// already queued — and scores the batch.
func (e *Engine) collect(first *request) {
	batch := []*request{first}
	rows := len(first.miss)
	if e.window > 0 {
		timer := time.NewTimer(e.window)
	windowed:
		for rows < e.maxBatch {
			select {
			case r := <-e.reqs:
				batch = append(batch, r)
				rows += len(r.miss)
			case <-timer.C:
				break windowed
			case <-e.quit:
				break windowed // score what we have; dispatch fails the rest
			}
		}
		timer.Stop()
	} else {
	drain:
		for rows < e.maxBatch {
			select {
			case r := <-e.reqs:
				batch = append(batch, r)
				rows += len(r.miss)
			default:
				break drain
			}
		}
	}
	e.runBatch(batch)
}

// runBatch groups the batch by model state (a swap can land between
// enqueues) and scores each group in one pooled forward.
func (e *Engine) runBatch(batch []*request) {
	for len(batch) > 0 {
		st := batch[0].st
		var group, rest []*request
		for _, r := range batch {
			if r.st == st {
				group = append(group, r)
			} else {
				rest = append(rest, r)
			}
		}
		e.scoreGroup(st, group)
		batch = rest
	}
}

// scoreGroup runs one batched Score for every miss in the group, fills
// caller score slots and the state's cache, and signals completion.
//
// This is the fan-in point of the trace model: one batch-forward span is
// shared by every coalesced request. Parent/child can't express that (a
// span has one parent), so the correlation is bidirectional links — the
// batch span links every request span it served, and each request struct
// carries the batch span id back so Predict can link the other direction.
func (e *Engine) scoreGroup(st *state, group []*request) {
	total := 0
	for _, r := range group {
		total += len(r.miss)
	}
	bsp := obs.Start("serve.batch_forward")
	if bsp.Active() {
		bsp.SetCount(int64(total))
		for _, r := range group {
			bsp.Link(r.spanID)
		}
	}
	now := time.Now()
	for _, r := range group {
		// Written before the done send below, which is what publishes them
		// to the waiting Predict goroutine.
		r.batchSpan = bsp.SpanID()
		r.queueNS = now.Sub(r.enq).Nanoseconds()
	}
	nodes := make([]int, 0, total)
	for _, r := range group {
		nodes = append(nodes, r.miss...)
	}
	out := tensor.GetBuf(len(nodes), st.m.Classes())
	err := st.m.Score(nodes, out)
	if err == nil {
		row := 0
		for _, r := range group {
			for i := range r.miss {
				logits := append([]float64(nil), out.Row(row)...)
				r.scores[r.missPos[i]] = logits
				st.cache.add(r.miss[i], logits)
				row++
			}
		}
	}
	tensor.PutBuf(out)
	bsp.End()
	for _, r := range group {
		r.done <- err
	}
	e.mBatches.Add(1)
	e.hBatchRows.Observe(float64(total))
}

// failQueued drains whatever is still queued at shutdown, counting each
// failed request into serve.requests_failed so drained-on-shutdown errors
// are visible in metrics. Racing senders are safe: Predict also selects on
// the closed quit channel.
func (e *Engine) failQueued() {
	for {
		select {
		case r := <-e.reqs:
			r.done <- ErrClosed
			e.mFailed.Add(1)
		default:
			return
		}
	}
}
