package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// The benchmark's own spans: one per call it makes into a layer of the
// program. They live in memory until the run ends; nothing here touches
// internal/obs, so the program's tracer state stays whatever the run set.

// spanRec is one completed span. Parent is 0 for a root; ids start at 1.
type spanRec struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent,omitempty"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Track    int    `json:"track"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// recorder collects spans from one or more tracks. A nil recorder (the
// untraced run) hands out nil tracks whose methods do nothing.
type recorder struct {
	workload string
	origin   time.Time

	mu    sync.Mutex
	spans []spanRec
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, origin: time.Now()}
}

// track is one goroutine's open-span stack; spans of a track nest.
type track struct {
	r     *recorder
	id    int
	stack []int // indexes into r.spans of the open spans
}

func (r *recorder) track(id int) *track {
	if r == nil {
		return nil
	}
	return &track{r: r, id: id}
}

// begin opens a span under the track's innermost open span.
func (t *track) begin(name string) {
	if t == nil {
		return
	}
	now := time.Since(t.r.origin).Nanoseconds()
	t.r.mu.Lock()
	rec := spanRec{ID: len(t.r.spans) + 1, Name: name, Workload: t.r.workload, Track: t.id, StartNS: now}
	if n := len(t.stack); n > 0 {
		rec.Parent = t.r.spans[t.stack[n-1]].ID
	}
	t.r.spans = append(t.r.spans, rec)
	t.stack = append(t.stack, len(t.r.spans)-1)
	t.r.mu.Unlock()
}

// end closes the innermost open span.
func (t *track) end() {
	if t == nil {
		return
	}
	now := time.Since(t.r.origin).Nanoseconds()
	t.r.mu.Lock()
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.r.spans[i].EndNS = now
	t.r.mu.Unlock()
}

// at converts a wall-clock instant to the recorder's clock, for the window
// bounds of total and selfTimes.
func (r *recorder) at(t time.Time) int64 { return t.Sub(r.origin).Nanoseconds() }

// total sums the durations of the track's spans named name that start
// within [fromNS, toNS), and counts them.
func (r *recorder) total(trackID int, name string, fromNS, toNS int64) (durMS float64, n int) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if s.Track == trackID && s.Name == name && s.StartNS >= fromNS && s.StartNS < toNS {
			durMS += float64(s.EndNS-s.StartNS) / 1e6
			n++
		}
	}
	return durMS, n
}

// selfTimes returns, per span name, the summed self time in ms of the
// track's spans that start within [fromNS, toNS): a span's duration minus
// the part its children cover.
func (r *recorder) selfTimes(trackID int, fromNS, toNS int64) map[string]float64 {
	out := map[string]float64{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	childNS := make(map[int]int64)
	for _, s := range r.spans {
		if s.Parent != 0 {
			childNS[s.Parent] += s.EndNS - s.StartNS
		}
	}
	for _, s := range r.spans {
		if s.Track == trackID && s.StartNS >= fromNS && s.StartNS < toNS {
			out[s.Name] += float64(s.EndNS-s.StartNS-childNS[s.ID]) / 1e6
		}
	}
	return out
}

// writeJSONL dumps every span, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			_ = f.Close() // the encode error is the one worth reporting
			return err
		}
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		_ = f.Close() // the flush error is the one worth reporting
		return err
	}
	return f.Close()
}
