package serve

import (
	"sync"
	"time"

	"scalegnn/internal/obs"
)

// slo.go is the latency-SLO half of serving health. The engine keeps a
// rolling window of request outcomes (latency under/over target) and
// reports the SLO *burn rate*: how fast the error budget is being spent.
//
//	budget   = 1 − objective              (e.g. 1% of requests may breach)
//	burn     = breachedFraction / budget  (1.0 = spending exactly on budget)
//
// A burn rate ≥ the threshold means the window is consuming budget faster
// than the objective allows — if it keeps up, the SLO *will* be blown —
// so /healthz flips to "degraded" while the objective itself may still
// technically hold. That early flip is the point: load balancers and
// operators react to the trend, not the post-mortem.

// SLOConfig configures the engine's rolling-window latency SLO tracker.
// The zero value (Target == 0) disables tracking entirely.
type SLOConfig struct {
	// Target is the per-request latency target; a request slower than this
	// breaches. Zero disables SLO tracking.
	Target time.Duration
	// Objective is the fraction of requests that must meet Target
	// (default 0.99, i.e. a 1% error budget).
	Objective float64
	// Window is the rolling window the burn rate is computed over
	// (default 60s).
	Window time.Duration
	// BurnThreshold is the burn rate at or above which health degrades
	// (default 1.0 — degrade as soon as budget is being spent faster than
	// the objective sustains).
	BurnThreshold float64
}

// SLOStatus is the tracker's externally visible state, embedded in
// /healthz responses.
type SLOStatus struct {
	TargetMS      float64 `json:"target_ms"`
	Objective     float64 `json:"objective"`
	WindowS       float64 `json:"window_s"`
	BurnThreshold float64 `json:"burn_threshold"`
	// Requests and Breached count over the rolling window.
	Requests int64 `json:"requests"`
	Breached int64 `json:"breached"`
	// BurnRate is breached/requests divided by the error budget; 0 with no
	// requests in the window.
	BurnRate float64 `json:"burn_rate"`
	// Degraded reports BurnRate >= BurnThreshold.
	Degraded bool `json:"degraded"`
}

// sloSlots is the ring size: the window is divided into this many epochs,
// so expiry granularity is Window/sloSlots.
const sloSlots = 30

type sloSlot struct {
	epoch    int64
	total    int64
	breached int64
}

// sloTracker is the rolling-window implementation: a ring of per-epoch
// buckets keyed by epoch number, so expiry is O(1) per observation (a
// stale slot is overwritten when its epoch comes around again) and status
// is a 30-slot sweep. A mutex, not atomics: observe runs once per request
// after scoring, far off the per-row hot path.
type sloTracker struct {
	cfg     SLOConfig
	slotDur time.Duration
	burn    *obs.Gauge // serve.slo_burn_rate, nil-safe

	mu    sync.Mutex
	slots [sloSlots]sloSlot
}

// newSLOTracker returns nil when cfg.Target is zero — the engine treats a
// nil tracker as "no SLO" everywhere.
func newSLOTracker(cfg SLOConfig, reg *obs.Registry) *sloTracker {
	if cfg.Target <= 0 {
		return nil
	}
	if cfg.Objective <= 0 || cfg.Objective >= 1 {
		cfg.Objective = 0.99
	}
	if cfg.Window <= 0 {
		cfg.Window = 60 * time.Second
	}
	if cfg.BurnThreshold <= 0 {
		cfg.BurnThreshold = 1.0
	}
	t := &sloTracker{cfg: cfg, slotDur: cfg.Window / sloSlots}
	if t.slotDur <= 0 {
		t.slotDur = time.Millisecond
	}
	if reg != nil {
		t.burn = reg.Gauge("serve.slo_burn_rate")
	}
	return t
}

// observe records one request outcome at time now.
func (t *sloTracker) observe(latency time.Duration, now time.Time) {
	if t == nil {
		return
	}
	epoch := now.UnixNano() / int64(t.slotDur)
	breach := int64(0)
	if latency > t.cfg.Target {
		breach = 1
	}
	t.mu.Lock()
	s := &t.slots[epoch%sloSlots]
	if s.epoch != epoch {
		s.epoch, s.total, s.breached = epoch, 0, 0
	}
	s.total++
	s.breached += breach
	burn := t.burnLocked(epoch)
	t.mu.Unlock()
	t.burn.Set(burn)
}

// status returns the tracker's current window state at time now (nil
// receiver → nil, meaning "no SLO configured").
func (t *sloTracker) status(now time.Time) *SLOStatus {
	if t == nil {
		return nil
	}
	epoch := now.UnixNano() / int64(t.slotDur)
	t.mu.Lock()
	total, breached := t.windowLocked(epoch)
	t.mu.Unlock()
	st := &SLOStatus{
		TargetMS:      float64(t.cfg.Target) / float64(time.Millisecond),
		Objective:     t.cfg.Objective,
		WindowS:       t.cfg.Window.Seconds(),
		BurnThreshold: t.cfg.BurnThreshold,
		Requests:      total,
		Breached:      breached,
	}
	if total > 0 {
		st.BurnRate = (float64(breached) / float64(total)) / (1 - t.cfg.Objective)
	}
	st.Degraded = st.BurnRate >= t.cfg.BurnThreshold
	return st
}

// windowLocked sums the live (non-expired) slots as of epoch.
func (t *sloTracker) windowLocked(epoch int64) (total, breached int64) {
	oldest := epoch - sloSlots + 1
	for i := range t.slots {
		if s := &t.slots[i]; s.epoch >= oldest && s.epoch <= epoch {
			total += s.total
			breached += s.breached
		}
	}
	return total, breached
}

// burnLocked computes the burn rate as of epoch.
func (t *sloTracker) burnLocked(epoch int64) float64 {
	total, breached := t.windowLocked(epoch)
	if total == 0 {
		return 0
	}
	return (float64(breached) / float64(total)) / (1 - t.cfg.Objective)
}
