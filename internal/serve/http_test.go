package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"testing"
	"time"

	"scalegnn/internal/ckpt"
	"scalegnn/internal/dataset"
	"scalegnn/internal/models"
	"scalegnn/internal/tensor"
)

func startServer(t *testing.T, e *Engine, loader Loader) *Server {
	t.Helper()
	s := NewServer(e, loader)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	return s
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Errorf("body close: %v", err)
		}
	}()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	} else if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Errorf("body close: %v", err)
		}
	}()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	} else if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}

// TestHTTPServesOfflinePredictions is the end-to-end parity check: a
// trained SGC served over HTTP must answer, node for node, exactly what
// the offline Predict path computed — predictions equal and logits
// bitwise-equal (encoding/json round-trips float64 exactly).
func TestHTTPServesOfflinePredictions(t *testing.T) {
	ds, err := dataset.Generate(dataset.Config{
		Nodes: 200, Classes: 3, AvgDegree: 6, Homophily: 0.8,
		FeatureDim: 10, NoiseStd: 1.0, TrainFrac: 0.5, ValFrac: 0.2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := models.DefaultTrainConfig()
	cfg.Epochs, cfg.Patience, cfg.BatchSize, cfg.Hidden, cfg.Seed = 5, 0, 64, 8, 7
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
	wantLogits := tensor.New(ds.G.N, ds.NumClasses)
	idx := make([]int, ds.G.N)
	for i := range idx {
		idx[i] = i
	}
	if err := m.Score(idx, wantLogits); err != nil {
		t.Fatal(err)
	}

	// Cache covers the whole graph so the second sweep is all hits (a
	// smaller LRU under a sequential scan would always miss).
	e := NewEngine(Config{Window: 100 * time.Microsecond, CacheSize: ds.G.N})
	defer e.Close()
	e.Swap(m, SwapInfo{Source: "fit"})
	s := startServer(t, e, nil)
	base := "http://" + s.Addr()

	var health Info
	if code := getJSON(t, base+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if health.Model != m.Name() || health.Nodes != ds.G.N {
		t.Fatalf("healthz = %+v", health)
	}

	// Every node, in odd-sized chunks, with logits — twice, so the second
	// sweep also exercises the cache path.
	for sweep := 0; sweep < 2; sweep++ {
		for lo := 0; lo < ds.G.N; lo += 7 {
			hi := lo + 7
			if hi > ds.G.N {
				hi = ds.G.N
			}
			var resp predictResponse
			code := postJSON(t, base+"/predict", predictRequest{Nodes: idx[lo:hi], Logits: true}, &resp)
			if code != http.StatusOK {
				t.Fatalf("predict [%d,%d): status %d", lo, hi, code)
			}
			for i, node := range idx[lo:hi] {
				if resp.Predictions[i] != want[node] {
					t.Fatalf("sweep %d node %d: served %d, offline %d", sweep, node, resp.Predictions[i], want[node])
				}
				wantRow := wantLogits.Row(node)
				for j, v := range resp.Logits[i] {
					if v != wantRow[j] {
						t.Fatalf("sweep %d node %d logit %d: served %v, offline %v", sweep, node, j, v, wantRow[j])
					}
				}
			}
		}
	}

	// GET with comma-separated ids hits the same path.
	var resp predictResponse
	if code := getJSON(t, base+"/predict?nodes=0,1,2", &resp); code != http.StatusOK {
		t.Fatalf("GET predict status %d", code)
	}
	for i := 0; i < 3; i++ {
		if resp.Predictions[i] != want[i] {
			t.Fatalf("GET node %d: served %d, offline %d", i, resp.Predictions[i], want[i])
		}
	}

	// Error surface: bad ids and bad bodies are 400s, not 500s.
	if code := getJSON(t, base+"/predict?nodes=9999", nil); code != http.StatusBadRequest {
		t.Fatalf("out-of-range node: status %d, want 400", code)
	}
	if code := getJSON(t, base+"/predict?nodes=abc", nil); code != http.StatusBadRequest {
		t.Fatalf("unparsable node: status %d, want 400", code)
	}
	if code := getJSON(t, base+"/predict", nil); code != http.StatusBadRequest {
		t.Fatalf("missing nodes: status %d, want 400", code)
	}

	if st := e.Stats(); st.Requests == 0 || st.CacheHits == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestHTTPSwap exercises the hot-swap admin surface: a successful swap
// changes what /predict answers; a fingerprint-mismatched snapshot is
// rejected with 409 and the old model keeps serving.
func TestHTTPSwap(t *testing.T) {
	loader := func(source string) (Model, SwapInfo, error) {
		switch source {
		case "b":
			return newFake("B", 1), SwapInfo{Fingerprint: 0xb, Source: source}, nil
		case "stale":
			return nil, SwapInfo{}, fmt.Errorf("loader: %w: snapshot 00aa, run 00bb", ckpt.ErrFingerprint)
		case "missing":
			return nil, SwapInfo{}, fmt.Errorf("loader: %w", os.ErrNotExist)
		default:
			return nil, SwapInfo{}, fmt.Errorf("loader: unreadable %q", source)
		}
	}
	e := NewEngine(Config{})
	defer e.Close()
	e.Swap(newFake("A", 0), SwapInfo{Fingerprint: 0xa, Source: "a"})
	s := startServer(t, e, loader)
	base := "http://" + s.Addr()

	var sw swapResponse
	if code := postJSON(t, base+"/admin/swap", swapRequest{Source: "b"}, &sw); code != http.StatusOK {
		t.Fatalf("swap status %d", code)
	}
	if sw.Model != "B" || sw.Generation != 2 {
		t.Fatalf("swap response %+v", sw)
	}
	var resp predictResponse
	if code := getJSON(t, base+"/predict?node=1", &resp); code != http.StatusOK || resp.Model != "B" {
		t.Fatalf("post-swap predict: status %d model %q", code, resp.Model)
	}

	// Incompatible snapshot: 409 Conflict, and B keeps serving.
	var failure errorResponse
	if code := postJSON(t, base+"/admin/swap", swapRequest{Source: "stale"}, &failure); code != http.StatusConflict {
		t.Fatalf("stale swap status %d, want 409", code)
	}
	if failure.Error == "" {
		t.Fatal("409 without an error body")
	}
	if code := postJSON(t, base+"/admin/swap", swapRequest{Source: "missing"}, nil); code != http.StatusNotFound {
		t.Fatal("missing snapshot should 404")
	}
	if code := postJSON(t, base+"/admin/swap", swapRequest{}, nil); code != http.StatusBadRequest {
		t.Fatal("empty source should 400")
	}
	if code := getJSON(t, base+"/admin/swap", nil); code != http.StatusMethodNotAllowed {
		t.Fatal("GET swap should 405")
	}
	if code := getJSON(t, base+"/predict?node=1", &resp); code != http.StatusOK || resp.Model != "B" {
		t.Fatalf("rejected swaps disturbed serving: status %d model %q", code, resp.Model)
	}
	if st := e.Stats(); st.Swaps != 2 {
		t.Fatalf("swap counter = %d, want 2 (rejected swaps must not count)", st.Swaps)
	}

	// No loader configured → 501.
	e2 := NewEngine(Config{})
	defer e2.Close()
	e2.Swap(newFake("A", 0), SwapInfo{})
	s2 := startServer(t, e2, nil)
	if code := postJSON(t, "http://"+s2.Addr()+"/admin/swap", swapRequest{Source: "b"}, nil); code != http.StatusNotImplemented {
		t.Fatal("swap without loader should 501")
	}
}
