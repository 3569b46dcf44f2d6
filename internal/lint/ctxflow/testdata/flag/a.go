// Package flow exercises ctxflow: misplaced context parameters, kept
// contexts and re-rooted context trees.
package flow

import "context"

func backgroundUser() {
	ctx := context.Background() // want "context.Background outside package main"
	_ = ctx
}

func notFirst(name string, ctx context.Context) { // want "context.Context must be the first parameter of notFirst"
	_ = name
	_ = ctx
}

func reroot(ctx context.Context) {
	use(context.TODO()) // want "context.TODO outside package main" "re-roots use with context.TODO"
}

func use(ctx context.Context) { _ = ctx }

// Span machinery in the shape of obs.Start.
type Span struct{}

func (Span) End() {}

func Start(ctx context.Context, name string) (context.Context, Span) {
	_ = name
	return ctx, Span{}
}

// startsSpan starts a span but takes no context: the finding is on the
// fresh root, where the trace is orphaned from any caller's tree.
func startsSpan() {
	_, s := Start(context.Background(), "op") // want "context.Background outside package main"
	s.End()
}

// tracer keeps a context for methods that take none: its spans join
// whatever trace the kept context belonged to.
type tracer struct {
	ctx context.Context // want "context.Context kept in a struct field"
}

func (t *tracer) mark(name string) {
	_, s := Start(t.ctx, name)
	s.End()
}

// propagates is the clean shape: ctx first, handed straight through.
func propagates(ctx context.Context, name string) {
	ctx2, s := Start(ctx, name)
	defer s.End()
	use(ctx2)
}

var (
	_ = backgroundUser
	_ = notFirst
	_ = reroot
	_ = startsSpan
	_ = propagates
)
