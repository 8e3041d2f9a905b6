//go:build !nofault

package fault

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type action int

const (
	actError action = iota
	actDrop
	actPartial
	actSleep
	actCrash
	actPanic
)

type point struct {
	spec   string // original spec, for the fired log line
	action action
	sleep  time.Duration
	nth    int64 // fire only on this hit (1-based); 0 = every hit
	hits   atomic.Int64
}

var (
	mu     sync.RWMutex
	points = map[string]*point{}
	armed  atomic.Bool // fast-path gate: true iff points is non-empty
)

func init() {
	if env := os.Getenv(EnvVar); env != "" {
		if err := setFromEnv(env); err != nil {
			// Arming failpoints is always deliberate; a typo silently
			// disabling them would defeat the test that set the variable.
			fmt.Fprintf(os.Stderr, "fault: bad %s: %v\n", EnvVar, err)
			os.Exit(2)
		}
	}
}

// setFromEnv parses a semicolon-separated list of site=spec bindings (the
// SCALEGNN_FAILPOINTS format) and arms each one.
func setFromEnv(env string) error {
	for _, binding := range strings.Split(env, ";") {
		binding = strings.TrimSpace(binding)
		if binding == "" {
			continue
		}
		site, spec, ok := strings.Cut(binding, "=")
		if !ok {
			return fmt.Errorf("binding %q is not site=action", binding)
		}
		if err := Set(site, spec); err != nil {
			return err
		}
	}
	return nil
}

// Set arms site with an action spec of the form "action[:arg][@n]".
// See the package comment for the grammar.
func Set(site, spec string) error {
	if site == "" {
		return fmt.Errorf("fault: empty site name")
	}
	p := &point{spec: spec}
	body := spec
	if at := strings.LastIndex(body, "@"); at >= 0 {
		n, err := strconv.ParseInt(body[at+1:], 10, 64)
		if err != nil || n < 1 {
			return fmt.Errorf("fault: %s: bad hit count in %q", site, spec)
		}
		p.nth = n
		body = body[:at]
	}
	name, arg, hasArg := strings.Cut(body, ":")
	switch name {
	case "error":
		p.action = actError
	case "drop":
		p.action = actDrop
	case "partial":
		p.action = actPartial
	case "sleep", "delay":
		p.action = actSleep
		ms, err := strconv.Atoi(arg)
		if !hasArg || err != nil || ms < 0 {
			return fmt.Errorf("fault: %s: %s needs a millisecond arg, got %q", site, name, spec)
		}
		p.sleep = time.Duration(ms) * time.Millisecond
		hasArg = false
	case "crash":
		p.action = actCrash
	case "panic":
		p.action = actPanic
	default:
		return fmt.Errorf("fault: %s: unknown action %q", site, spec)
	}
	if hasArg {
		return fmt.Errorf("fault: %s: action %s takes no arg, got %q", site, name, spec)
	}
	mu.Lock()
	points[site] = p
	armed.Store(true)
	mu.Unlock()
	return nil
}

// Reset disarms every site. Tests call it in cleanup.
func Reset() {
	mu.Lock()
	points = map[string]*point{}
	armed.Store(false)
	mu.Unlock()
}

// Inject evaluates the failpoint at site. With nothing armed it is a
// single atomic load. When the site's action fires, a marker line is
// written to stderr first, so a supervising process (e.g. the kill-9
// crash test) can synchronize on it.
func Inject(site string) error {
	if !armed.Load() {
		return nil
	}
	mu.RLock()
	p := points[site]
	mu.RUnlock()
	if p == nil {
		return nil
	}
	hit := p.hits.Add(1)
	if p.nth != 0 && hit != p.nth {
		return nil
	}
	fmt.Fprintf(os.Stderr, "fault: fired %s=%s (hit %d)\n", site, p.spec, hit)
	switch p.action {
	case actError:
		return fmt.Errorf("%w at %s", ErrInjected, site)
	case actDrop:
		return fmt.Errorf("%w at %s", ErrDrop, site)
	case actPartial:
		return fmt.Errorf("%w at %s", ErrPartial, site)
	case actSleep:
		time.Sleep(p.sleep)
		return nil
	case actCrash:
		os.Exit(137)
	case actPanic:
		panic("fault: injected panic at " + site)
	}
	return nil
}

// Hits reports how many times site has been evaluated while armed.
func Hits(site string) int64 {
	mu.RLock()
	p := points[site]
	mu.RUnlock()
	if p == nil {
		return 0
	}
	return p.hits.Load()
}
