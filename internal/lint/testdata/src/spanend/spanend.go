// Package spanend is a gnnlint test fixture for the obs-span-end check.
package spanend

import "scalegnn/internal/obs"

// leak starts a span and drops it: the section never reaches the tracer.
func leak() {
	sp := obs.Start("work") // want "never ended"
	sp.SetCount(1)
}

// dropped discards the span value outright.
func dropped() {
	obs.Start("work") // want "immediately dropped"
}

// deferredEnd is the normal pattern.
func deferredEnd() {
	sp := obs.Start("work")
	defer sp.End()
}

// explicitEnd ends on the straight-line path.
func explicitEnd() int {
	sp := obs.StartTimed("work")
	n := 1 + 1
	sp.End()
	return n
}

// childLeak: children carry the same obligation as roots.
func childLeak(tr *obs.Tracer) {
	root := tr.Start("outer")
	child := root.Child("inner") // want "never ended"
	child.SetCount(1)
	root.End()
}

// cleanupClosure ends inside a deferred closure (the count-then-end idiom).
func cleanupClosure() (iters int) {
	sp := obs.Start("loop")
	defer func() { sp.SetCount(int64(iters)); sp.End() }()
	iters = 3
	return iters
}

// handoff transfers the End obligation to the caller by returning the span.
func handoff() obs.Span {
	sp := obs.Start("work")
	return sp
}

// stored transfers the obligation into a struct field.
type holder struct{ sp obs.Span }

func (h *holder) begin() {
	sp := obs.Start("work")
	h.sp = sp
}

// suppressed documents an intentional leak (process-lifetime span).
func suppressed() {
	//lint:ignore obs-span-end process-lifetime span, ended at exit
	sp := obs.Start("process")
	sp.SetCount(1)
}

// requestLeak: request-scoped spans carry the same obligation.
func requestLeak() {
	sp := obs.StartRequest("req", obs.TraceContext{}) // want "never ended"
	sp.SetCount(1)
}

// requestEnd is the request-span happy path.
func requestEnd() {
	sp := obs.StartRequest("req", obs.TraceContext{})
	defer sp.End()
}

// requestDropped discards the request span outright.
func requestDropped() {
	obs.StartRequest("req", obs.TraceContext{}) // want "immediately dropped"
}

// channelHandoff sends the span across a channel — the dispatcher-queue
// pattern: the receiving goroutine now owns the End obligation.
func channelHandoff(ch chan obs.Span) {
	sp := obs.StartRequest("req", obs.TraceContext{})
	ch <- sp
}

// childOnly uses the parent only to start a child: the parent is never
// ended, however the child fares.
func childOnly() {
	sp := obs.Start("outer") // want "never ended"
	c := sp.Child("inner")
	c.End()
}

// idOnly reads the span's id and drops the span.
func idOnly() uint64 {
	sp := obs.Start("work")
	id := sp.SpanID()
	return id // want "never ended on this return path"
}

// endOneBranch ends the span on one branch only.
func endOneBranch(ok bool) {
	sp := obs.Start("work") // want "never ended"
	if ok {
		sp.End()
	}
}

// doubleEnd records the section twice.
func doubleEnd() {
	sp := obs.Start("work")
	defer sp.End()
	sp.End() // want "ended twice"
}

// countAfterEnd annotates a section that is already recorded.
func countAfterEnd() {
	sp := obs.Start("work")
	sp.End()
	sp.SetCount(1) // want "after it was ended"
}
