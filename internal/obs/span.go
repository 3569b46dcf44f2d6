package obs

import (
	"context"
	"fmt"
	"log"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/randx"
)

// maxSpansPerTrace bounds one trace's tree so a runaway loop cannot
// grow a trace without limit; spans past the cap are dropped (counted
// on the root) rather than recorded.
const maxSpansPerTrace = 4096

// Config tunes a Tracer. The zero value selects sensible defaults.
type Config struct {
	// Clock is the time source (default randx.SystemClock). Tests
	// install a FixedClock/StepClock for deterministic traces.
	Clock randx.Clock
	// BufferSize bounds the completed-trace ring buffer (default 256).
	BufferSize int
	// SlowThreshold enables the slow-trace log: completed root spans at
	// or above it are rendered to SlowLog. Zero disables the log.
	SlowThreshold time.Duration
	// SlowLog receives rendered slow traces (default log.Print).
	SlowLog func(string)
}

// Tracer mints root spans and keeps the bounded ring buffer of
// completed traces. A Tracer is safe for concurrent use.
type Tracer struct {
	clock   randx.Clock
	slow    time.Duration
	slowLog func(string)

	mu        sync.Mutex
	buf       []*Span // ring of completed root spans
	next      int
	completed uint64
	slowSeen  uint64
}

// NewTracer builds a tracer from cfg, applying defaults for zero
// fields.
func NewTracer(cfg Config) *Tracer {
	if cfg.Clock == nil {
		cfg.Clock = randx.SystemClock
	}
	if cfg.BufferSize <= 0 {
		cfg.BufferSize = 256
	}
	if cfg.SlowLog == nil {
		cfg.SlowLog = func(s string) { log.Print(s) }
	}
	return &Tracer{
		clock:   cfg.Clock,
		slow:    cfg.SlowThreshold,
		slowLog: cfg.SlowLog,
		buf:     make([]*Span, 0, cfg.BufferSize),
	}
}

// Attr is one key/value annotation on a span. Values are stored
// rendered so snapshots are immutable.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation in a trace tree. All methods are safe on
// a nil receiver (no-ops), so instrumented code never branches on
// whether tracing is active.
type Span struct {
	tracer *Tracer
	mu     *sync.Mutex // the trace-wide lock, owned by the root
	root   *Span

	name     string
	start    time.Time
	end      time.Time
	attrs    []Attr
	children []*Span

	// root-only bookkeeping (guarded by mu).
	nspans  int
	dropped int
}

type ctxKey struct{}

// FromContext returns the span the context carries, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// Start begins a new root span (a new trace) and returns a context
// carrying it. The caller must End the span to commit the trace to the
// buffer.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	s := &Span{tracer: t, mu: &sync.Mutex{}, name: name, start: t.clock()}
	s.root = s
	s.nspans = 1
	return context.WithValue(ctx, ctxKey{}, s), s
}

// Start begins a child of the span the context carries and returns a
// context carrying the child. Without a span in ctx it returns ctx
// unchanged and a nil span, so instrumentation costs one context
// lookup when tracing is off.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.startChild(name)
	if child == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, ctxKey{}, child), child
}

func (s *Span) startChild(name string) *Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.root.nspans >= maxSpansPerTrace {
		s.root.dropped++
		return nil
	}
	s.root.nspans++
	child := &Span{
		tracer: s.tracer,
		mu:     s.mu,
		root:   s.root,
		name:   name,
		start:  s.tracer.clock(),
	}
	s.children = append(s.children, child)
	return child
}

// SetAttr annotates the span. Values render deterministically: strings
// verbatim, integers and bools in their canonical form, float64 via
// strconv 'g', time.Duration via its String method.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	v := formatAttrValue(value)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: v})
}

func formatAttrValue(value any) string {
	switch x := value.(type) {
	case string:
		return x
	case bool:
		return strconv.FormatBool(x)
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case uint64:
		return strconv.FormatUint(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case time.Duration:
		return x.String()
	default:
		return fmt.Sprint(x)
	}
}

// End closes the span. Ending a root span commits the trace to the
// ring buffer and, past the tracer's threshold, to the slow-trace log.
// End is idempotent; ending a nil span is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	isRoot, dur, first := s.finish()
	if isRoot && first {
		s.tracer.commit(s, dur)
	}
}

// finish stamps the end time exactly once under the trace lock.
func (s *Span) finish() (isRoot bool, dur time.Duration, first bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.end.IsZero() {
		return false, 0, false
	}
	s.end = s.tracer.clock()
	return s.root == s, s.end.Sub(s.start), true
}

// commit pushes a completed root span into the ring buffer and, past
// the slow threshold, renders it to the slow-trace log (outside the
// tracer lock).
func (t *Tracer) commit(root *Span, dur time.Duration) {
	if t.push(root, dur) {
		t.slowLog("slow trace (" + dur.String() + "):\n" + root.Render())
	}
}

// push appends to the ring buffer under the tracer lock and reports
// whether the trace crossed the slow threshold.
func (t *Tracer) push(root *Span, dur time.Duration) (slow bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, root)
	} else {
		t.buf[t.next] = root
		t.next = (t.next + 1) % cap(t.buf)
	}
	t.completed++
	slow = t.slow > 0 && dur >= t.slow
	if slow {
		t.slowSeen++
	}
	return slow
}

// Traces returns the buffered completed root spans, oldest first.
func (t *Tracer) Traces() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// Completed reports how many traces have finished since the tracer was
// built (including ones the ring buffer has since evicted), and how
// many of those crossed the slow threshold.
func (t *Tracer) Completed() (total, slow uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.completed, t.slowSeen
}

// Name returns the span's operation name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the span's recorded extent (0 while unfinished or
// for nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return 0
	}
	return s.end.Sub(s.start)
}

// Attrs returns a copy of the span's annotations in insertion order.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// Attr returns the value of the named annotation ("" when absent).
func (s *Span) Attr(key string) string {
	for _, a := range s.Attrs() {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Children returns a copy of the span's direct children in start
// order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// SpanCount returns the number of spans recorded in the span's trace
// (root bookkeeping; any span of the trace may be asked).
func (s *Span) SpanCount() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.root.nspans
}

// Clock returns the time source behind the span's tracer
// (randx.SystemClock for nil), so instrumented code can take interval
// measurements consistent with the trace.
func (s *Span) Clock() randx.Clock {
	if s == nil {
		return randx.SystemClock
	}
	return s.tracer.clock
}

// Render returns the trace subtree rooted at s as an indented text
// tree — the slow-trace log format.
func (s *Span) Render() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	s.mu.Lock()
	defer s.mu.Unlock()
	s.render(&b, 0)
	if s.root == s && s.dropped > 0 {
		fmt.Fprintf(&b, "  (+%d spans dropped past the %d-span cap)\n", s.dropped, maxSpansPerTrace)
	}
	return strings.TrimRight(b.String(), "\n")
}

// render assumes the trace lock is held.
func (s *Span) render(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	b.WriteString(s.name)
	if s.end.IsZero() {
		b.WriteString(" (unfinished)")
	} else {
		b.WriteString(" ")
		b.WriteString(s.end.Sub(s.start).String())
	}
	for _, a := range s.attrs {
		b.WriteString(" ")
		b.WriteString(a.Key)
		b.WriteString("=")
		b.WriteString(a.Value)
	}
	b.WriteString("\n")
	for _, c := range s.children {
		c.render(b, depth+1)
	}
}
