package obs_test

import (
	"bytes"
	"testing"

	"scalegnn/internal/obs"
)

// FuzzParseTraceparent: the header arrives from whoever calls /predict.
// Parsing never panics, and what it accepts is what FormatTraceparent
// writes for the parsed ids — up to the flags byte, which Format always
// sets to "sampled".
func FuzzParseTraceparent(f *testing.F) {
	for _, seed := range []string{
		sampleTraceparent,
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // wrong version
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", // uppercase hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",    // short
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz", // flags not hex
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, h string) {
		tc, ok := obs.ParseTraceparent(h)
		if !ok {
			if tc.Valid() {
				t.Fatalf("rejected %q but returned trace %s", h, tc.Trace)
			}
			return
		}
		got := obs.FormatTraceparent(tc.Trace, tc.Parent)
		if len(h) != len(got) || got[:53] != h[:53] {
			t.Fatalf("accepted %q re-formats as %q", h, got)
		}
		if again, ok := obs.ParseTraceparent(got); !ok || again != tc {
			t.Fatalf("%q does not parse back to the same context", got)
		}
	})
}

// FuzzValidateExposition: the validator reads scrapes taken over HTTP
// (the /metrics tests of obs and serve). It never panics, and its verdict
// does not depend on a trailing newline.
func FuzzValidateExposition(f *testing.F) {
	reg := obs.NewRegistry()
	reg.Counter("serve.requests").Add(42)
	reg.Gauge("runtime.goroutines").Set(12)
	h := reg.Histogram("serve.request.seconds", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(5)
	var scrape bytes.Buffer
	if err := reg.WritePrometheus(&scrape); err != nil {
		f.Fatal(err)
	}
	if err := obs.ValidateExposition(scrape.Bytes()); err != nil {
		f.Fatalf("a real scrape is invalid: %v\n%s", err, scrape.String())
	}
	for _, seed := range []string{
		scrape.String(),
		"# TYPE a counter\n# TYPE a counter\na 1\n",                                                 // duplicate TYPE
		"# TYPE h histogram\nh_bucket{le=\"0.1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n", // _count != +Inf bucket
		"# TYPE a counter\na{job=\"x\",quote=\"a\\\"b\"} 1 1700000000000\n",
		"# TYPE a counter\na{job=\"x} 1\n", // unterminated label
		"a 1\n",                            // no TYPE
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		err := obs.ValidateExposition(data)
		if bytes.HasSuffix(data, []byte("\n")) {
			data = data[:len(data)-1]
		} else {
			data = append(bytes.Clone(data), '\n')
		}
		if err2 := obs.ValidateExposition(data); (err == nil) != (err2 == nil) {
			t.Fatalf("verdict changes with the trailing newline: %v vs %v", err, err2)
		}
	})
}
