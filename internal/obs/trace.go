package obs

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
)

// trace.go is the request-scoped half of the tracer: 128-bit trace ids in
// the W3C Trace Context wire format, so one slow /predict can be followed
// from the client's traceparent header, through the serving dispatcher's
// batch fan-in, into the JSONL timeline — and correlated with structured
// log lines by the same trace_id.
//
// Process-scoped spans (obs.Start) stay trace-less: a training run that
// wants a trace id starts its root with StartRequest, and every Child
// inherits it.

// TraceID is a W3C Trace Context trace-id: 16 random bytes identifying one
// request end-to-end across processes. The zero value means "no trace".
type TraceID [16]byte

// IsZero reports whether the id is the invalid all-zero trace id (the W3C
// spec reserves it for "absent").
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the id as 32 lowercase hex digits — the wire and JSONL
// spelling.
func (id TraceID) String() string {
	var b [32]byte
	hex.Encode(b[:], id[:])
	return string(b[:])
}

// TraceContext is a span's trace association: the trace it belongs to and,
// when the trace was started by a remote caller, that caller's span id
// (the traceparent parent-id). The zero value means "mint a fresh trace".
type TraceContext struct {
	Trace TraceID
	// Parent is the remote parent span id (0 when this process roots the
	// trace). W3C parent-ids are 8 bytes, carried here as a uint64.
	Parent uint64
}

// Valid reports whether the context names an actual trace.
func (tc TraceContext) Valid() bool { return !tc.Trace.IsZero() }

// newTraceContext mints a fresh 128-bit trace id. IDs come from
// crypto/rand (never from the seeded experiment RNGs: trace identity must
// not consume — or be predictable from — model randomness).
func newTraceContext() TraceContext {
	var tc TraceContext
	// crypto/rand.Read cannot fail on the platforms this repo targets
	// (getrandom / urandom); on the impossible failure the id stays zero
	// and the span simply goes untraced.
	_, _ = cryptorand.Read(tc.Trace[:])
	if tc.Trace.IsZero() {
		tc.Trace[15] = 1 // all-zero is reserved for "absent"
	}
	return tc
}

// ParseTraceparent parses a W3C traceparent header
// ("00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>"). It accepts
// only version 00 with strict lowercase hex and rejects the all-zero
// trace-id and parent-id, per the spec. ok is false on any malformation —
// the caller then mints a fresh trace rather than propagating garbage.
func ParseTraceparent(h string) (tc TraceContext, ok bool) {
	if len(h) != 55 || h[0] != '0' || h[1] != '0' || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceContext{}, false
	}
	for _, i := range []int{53, 54} { // flags must at least be hex
		if hexVal(h[i]) < 0 {
			return TraceContext{}, false
		}
	}
	for i := 0; i < 16; i++ {
		hi, lo := hexVal(h[3+2*i]), hexVal(h[4+2*i])
		if hi < 0 || lo < 0 {
			return TraceContext{}, false
		}
		tc.Trace[i] = byte(hi<<4 | lo)
	}
	for i := 36; i < 52; i++ {
		v := hexVal(h[i])
		if v < 0 {
			return TraceContext{}, false
		}
		tc.Parent = tc.Parent<<4 | uint64(v)
	}
	if tc.Trace.IsZero() || tc.Parent == 0 {
		return TraceContext{}, false
	}
	return tc, true
}

// FormatTraceparent renders the outbound traceparent header for a trace
// and the local span acting as parent, with the sampled flag set.
func FormatTraceparent(trace TraceID, span uint64) string {
	return "00-" + trace.String() + "-" + hexUint64(span) + "-01"
}

// hexVal decodes one strict-lowercase hex digit (-1 on anything else).
func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	}
	return -1
}

// hexUint64 renders v as 16 lowercase hex digits (the W3C span-id width).
func hexUint64(v uint64) string {
	var b [16]byte
	const digits = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// StartRequest begins a request-scoped root span on the process-wide
// tracer: a span that belongs to a trace. A zero TraceContext mints a
// fresh trace id; a parsed inbound traceparent continues the caller's
// trace (the remote parent id lands in the record's remote_parent field).
// With no tracer installed it returns the disabled span without reading
// the clock or minting an id — the same overhead contract as Start.
func StartRequest(name string, tc TraceContext) Span {
	t := active.Load()
	if t == nil {
		return Span{}
	}
	if tc.Trace.IsZero() {
		tc = newTraceContext()
	}
	sp := t.Start(name)
	sp.trace = tc.Trace
	sp.remote = tc.Parent
	return sp
}

// spanCtxKey keys the request span in a context.Context.
type spanCtxKey struct{}

// noSpan is what SpanFromContext returns when no span was attached. It is
// shared and concurrently reachable, which is safe precisely because every
// mutating Span method is a no-op when tr is nil.
var noSpan Span

// ContextWithSpan attaches a request span to the context so layers below
// the HTTP handler (the serving engine) can annotate it — link the batch
// span, record queue wait — without threading a Span through every
// signature.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFromContext returns the attached request span, or a disabled span on
// which every method no-ops. Never nil.
func SpanFromContext(ctx context.Context) *Span {
	if sp, ok := ctx.Value(spanCtxKey{}).(*Span); ok && sp != nil {
		return sp
	}
	return &noSpan
}
