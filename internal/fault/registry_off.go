//go:build nofault

package fault

import "errors"

// Inject is a no-op in nofault builds; the inliner erases call sites.
func Inject(string) error { return nil }

// Set always fails in nofault builds: a test arming a failpoint against a
// binary that cannot fire it should find out immediately.
func Set(string, string) error {
	return errors.New("fault: failpoints compiled out (built with -tags nofault)")
}

// Reset is a no-op in nofault builds.
func Reset() {}

// Hits always reports zero in nofault builds.
func Hits(string) int64 { return 0 }
