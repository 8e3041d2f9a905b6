package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"scalegnn/internal/ckpt"
	"scalegnn/internal/obs"
)

// Loader materializes a Model from a source string (a snapshot path or
// checkpoint directory) for /admin/swap. It returns the model and its
// provenance; an error wrapping ckpt.ErrFingerprint means the snapshot
// belongs to a different run configuration and the swap is rejected with
// 409 Conflict.
type Loader func(source string) (Model, SwapInfo, error)

// Server is the HTTP front end over an Engine:
//
//	GET/POST /predict     — class predictions (and logits) for node ids
//	GET      /healthz     — serving health: model info + SLO burn status
//	GET      /metrics     — Prometheus text exposition of the registry
//	POST     /admin/swap  — hot-swap the model from a new snapshot
//
// Any other verb on these routes answers 405 with an Allow header.
//
// /predict is trace-aware: an inbound W3C traceparent header continues the
// caller's trace, otherwise a fresh trace id is minted (when tracing is
// on); the response carries the outbound traceparent naming the request
// span as parent, and the span is attached to the request context so the
// engine can link it to the batch-forward span it is scored in.
type Server struct {
	eng    *Engine
	loader Loader
	srv    *http.Server
	ln     net.Listener
	log    *slog.Logger // nil disables access logging
}

// NewServer wires the handlers. loader may be nil, which disables
// /admin/swap (501).
func NewServer(eng *Engine, loader Loader) *Server {
	s := &Server{eng: eng, loader: loader}
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", methods(s.handlePredict, http.MethodGet, http.MethodPost))
	mux.HandleFunc("/healthz", methods(s.handleHealth, http.MethodGet))
	mux.HandleFunc("/metrics", methods(obs.MetricsHandler(eng.Registry()).ServeHTTP, http.MethodGet))
	mux.HandleFunc("/admin/swap", methods(s.handleSwap, http.MethodPost))
	s.srv = &http.Server{
		Handler: mux,
		// A stalled client must not wedge a serving thread; predictions are
		// small, so unlike the obs debug listener nothing here streams.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	return s
}

// SetAccessLog installs a structured access logger: one line per /predict
// request (method, status, node count, latency) correlated by trace_id
// when tracing is on. Call before Start; nil (the default) disables.
func (s *Server) SetAccessLog(l *slog.Logger) { s.log = l }

// methods gates a handler to the given verbs; anything else is answered
// with 405 Method Not Allowed and an Allow header listing what is.
func methods(h http.HandlerFunc, allow ...string) http.HandlerFunc {
	allowHeader := strings.Join(allow, ", ")
	return func(w http.ResponseWriter, r *http.Request) {
		for _, m := range allow {
			if r.Method == m {
				h(w, r)
				return
			}
		}
		w.Header().Set("Allow", allowHeader)
		writeError(w, http.StatusMethodNotAllowed,
			fmt.Errorf("method %s not allowed (allow: %s)", r.Method, allowHeader))
	}
}

// Start binds addr (":0" picks a free port) and serves until Close.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s.ln = ln
	//lint:ignore naked-go HTTP accept loop, not data-parallel work; lifetime bounded by Close
	go func() {
		// Serve returns ErrServerClosed on Close; anything else means the
		// listener died out from under us.
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "serve: http server: %v\n", err)
		}
	}()
	return nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting and tears the listener down. The engine is owned
// by the caller and is not closed here.
func (s *Server) Close() error { return s.srv.Close() }

// predictRequest is the POST /predict body.
type predictRequest struct {
	Nodes  []int `json:"nodes"`
	Logits bool  `json:"logits"`
}

// predictResponse is the /predict reply.
type predictResponse struct {
	Model       string      `json:"model"`
	Generation  uint64      `json:"generation"`
	Nodes       []int       `json:"nodes"`
	Predictions []int       `json:"predictions"`
	Logits      [][]float64 `json:"logits,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// An encode failure here means the client hung up mid-response; there
	// is no channel left to report it on.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// parseNodes reads node ids from ?node=/?nodes= (GET) or the JSON body
// (POST).
func parseNodes(r *http.Request) ([]int, bool, error) {
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query()
		raw := q.Get("nodes")
		if raw == "" {
			raw = q.Get("node")
		}
		if raw == "" {
			return nil, false, fmt.Errorf("missing ?node= or ?nodes=")
		}
		parts := strings.Split(raw, ",")
		nodes := make([]int, 0, len(parts))
		for _, p := range parts {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return nil, false, fmt.Errorf("bad node id %q", p)
			}
			nodes = append(nodes, v)
		}
		wantLogits := q.Get("logits") == "1" || q.Get("logits") == "true"
		return nodes, wantLogits, nil
	case http.MethodPost:
		var req predictRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return nil, false, fmt.Errorf("bad JSON body: %v", err)
		}
		return req.Nodes, req.Logits, nil
	default:
		return nil, false, fmt.Errorf("method %s not allowed", r.Method)
	}
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	// An inbound traceparent continues the caller's trace; a malformed or
	// absent one mints a fresh id (ParseTraceparent's zero value). With no
	// tracer installed the span is disabled and all of this no-ops.
	tc, _ := obs.ParseTraceparent(r.Header.Get("Traceparent"))
	sp := obs.StartRequest("serve.request", tc)
	defer sp.End()
	if sp.Active() {
		w.Header().Set("Traceparent", obs.FormatTraceparent(sp.TraceID(), sp.SpanID()))
	}
	status := s.predict(obs.ContextWithSpan(r.Context(), &sp), w, r, &sp)
	if s.log != nil {
		s.log.LogAttrs(r.Context(), slog.LevelInfo, "predict",
			slog.String("method", r.Method),
			slog.Int("status", status),
			slog.Duration("dur", time.Since(start)),
			obs.SpanAttr(&sp),
		)
	}
}

// predict is handlePredict's body, split out so the handler can log the
// response status it returns.
func (s *Server) predict(ctx context.Context, w http.ResponseWriter, r *http.Request, sp *obs.Span) int {
	nodes, wantLogits, err := parseNodes(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return http.StatusBadRequest
	}
	sp.SetCount(int64(len(nodes)))
	pred, err := s.eng.Predict(ctx, nodes)
	if err != nil {
		var status int
		switch {
		case errors.Is(err, ErrNoModel), errors.Is(err, ErrClosed):
			status = http.StatusServiceUnavailable
		case errors.Is(err, ErrBadNode):
			status = http.StatusBadRequest
		default:
			status = http.StatusInternalServerError
		}
		writeError(w, status, err)
		return status
	}
	resp := predictResponse{
		Model:       pred.Model,
		Generation:  pred.Generation,
		Nodes:       pred.Nodes,
		Predictions: pred.Predictions,
	}
	if wantLogits {
		resp.Logits = pred.Logits
	}
	writeJSON(w, http.StatusOK, resp)
	return http.StatusOK
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := s.eng.Health()
	if h.Status == "unavailable" {
		writeJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	// "degraded" still answers 200: the model is serving, the burn-rate
	// trend is the signal, and the status field carries it.
	writeJSON(w, http.StatusOK, h)
}

// Stats is the engine's counters and request-latency quantiles (in
// milliseconds) for in-process readers; /metrics is their wire form.
type Stats struct {
	Requests    int64
	Errors      int64
	Failed      int64
	Batches     int64
	CacheHits   int64
	CacheMisses int64
	Swaps       int64
	P50Ms       float64
	P99Ms       float64
	MaxMs       float64
}

// Stats snapshots the engine's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Requests:    e.mRequests.Value(),
		Errors:      e.mErrors.Value(),
		Failed:      e.mFailed.Value(),
		Batches:     e.mBatches.Value(),
		CacheHits:   e.mCacheHits.Value(),
		CacheMisses: e.mCacheMiss.Value(),
		Swaps:       e.mSwaps.Value(),
		P50Ms:       e.hLatency.Quantile(0.5) * 1e3,
		P99Ms:       e.hLatency.Quantile(0.99) * 1e3,
		MaxMs:       e.hLatency.Max() * 1e3,
	}
}

// swapRequest is the POST /admin/swap body.
type swapRequest struct {
	Source string `json:"source"`
}

// swapResponse reports the installed generation.
type swapResponse struct {
	Model       string `json:"model"`
	Generation  uint64 `json:"generation"`
	Fingerprint string `json:"fingerprint"`
	Source      string `json:"source"`
}

func (s *Server) handleSwap(w http.ResponseWriter, r *http.Request) {
	if s.loader == nil {
		writeError(w, http.StatusNotImplemented, fmt.Errorf("no snapshot loader configured"))
		return
	}
	var req swapRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad JSON body: %v", err))
		return
	}
	if req.Source == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing source"))
		return
	}
	m, info, err := s.loader(req.Source)
	if err != nil {
		switch {
		case errors.Is(err, ckpt.ErrFingerprint):
			// The snapshot belongs to a different run configuration: the
			// currently served model keeps serving, untouched.
			writeError(w, http.StatusConflict, err)
		case errors.Is(err, os.ErrNotExist):
			writeError(w, http.StatusNotFound, err)
		default:
			writeError(w, http.StatusUnprocessableEntity, err)
		}
		return
	}
	gen := s.eng.Swap(m, info)
	writeJSON(w, http.StatusOK, swapResponse{
		Model:       m.Name(),
		Generation:  gen,
		Fingerprint: fmt.Sprintf("%016x", info.Fingerprint),
		Source:      req.Source,
	})
}
