package obs

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/randx"
)

func stepTracer(stepMS int, cfg Config) *Tracer {
	cfg.Clock = randx.StepClock(time.Unix(1700000000, 0), time.Duration(stepMS)*time.Millisecond)
	return NewTracer(cfg)
}

func TestSpanTreeDeterministic(t *testing.T) {
	tr := stepTracer(10, Config{})
	ctx, root := tr.Start(context.Background(), "request")
	if FromContext(ctx) != root {
		t.Fatal("context does not carry the root span")
	}
	cctx, child := Start(ctx, "predict")
	child.SetAttr("model", "rf")
	child.SetAttr("n", 42)
	_, grand := Start(cctx, "fit")
	grand.End()
	child.End()
	root.SetAttr("route", "POST /v1/predict/uc1")
	root.End()

	// StepClock ticks 10ms per reading: root start, child start, grand
	// start, grand end, child end, root end.
	if got := grand.Duration(); got != 10*time.Millisecond {
		t.Errorf("grandchild duration = %v, want 10ms", got)
	}
	if got := child.Duration(); got != 30*time.Millisecond {
		t.Errorf("child duration = %v, want 30ms", got)
	}
	if got := root.Duration(); got != 50*time.Millisecond {
		t.Errorf("root duration = %v, want 50ms", got)
	}
	if root.SpanCount() != 3 || grand.SpanCount() != 3 {
		t.Errorf("SpanCount = %d/%d, want 3/3", root.SpanCount(), grand.SpanCount())
	}
	if got := child.Attr("model"); got != "rf" {
		t.Errorf("child attr model = %q", got)
	}
	if got := child.Attr("n"); got != "42" {
		t.Errorf("child attr n = %q", got)
	}
	if got := child.Attr("absent"); got != "" {
		t.Errorf("absent attr = %q, want empty", got)
	}
	kids := root.Children()
	if len(kids) != 1 || kids[0].Name() != "predict" {
		t.Fatalf("root children = %v", kids)
	}
	if len(kids[0].Children()) != 1 || kids[0].Children()[0].Name() != "fit" {
		t.Fatalf("predict children wrong")
	}

	r := root.Render()
	for _, want := range []string{"request 50ms route=POST /v1/predict/uc1", "  predict 30ms model=rf n=42", "    fit 10ms"} {
		if !strings.Contains(r, want) {
			t.Errorf("Render missing %q in:\n%s", want, r)
		}
	}
}

func TestNilSpanSafety(t *testing.T) {
	ctx, s := Start(context.Background(), "orphan")
	if s != nil {
		t.Fatal("Start without a parent should return a nil span")
	}
	if FromContext(ctx) != nil {
		t.Fatal("context should stay span-free")
	}
	// Every method must be a no-op on nil.
	s.SetAttr("k", "v")
	s.End()
	if s.Name() != "" || s.Duration() != 0 || s.Attrs() != nil || s.Attr("k") != "" ||
		s.Children() != nil || s.SpanCount() != 0 || s.Render() != "" {
		t.Error("nil span accessors should return zero values")
	}
	if s.Clock() == nil {
		t.Error("nil span Clock should fall back to SystemClock")
	}
}

func TestTraceBufferEviction(t *testing.T) {
	tr := stepTracer(1, Config{BufferSize: 2})
	for i, name := range []string{"a", "b", "c"} {
		_, root := tr.Start(context.Background(), name)
		root.End()
		if total, _ := tr.Completed(); total != uint64(i+1) {
			t.Fatalf("completed = %d after %d traces", total, i+1)
		}
	}
	got := tr.Traces()
	if len(got) != 2 || got[0].Name() != "b" || got[1].Name() != "c" {
		names := make([]string, len(got))
		for i, s := range got {
			names[i] = s.Name()
		}
		t.Fatalf("buffer = %v, want [b c] oldest first", names)
	}
}

func TestSlowTraceLog(t *testing.T) {
	var logged []string
	tr := stepTracer(40, Config{
		SlowThreshold: 50 * time.Millisecond,
		SlowLog:       func(s string) { logged = append(logged, s) },
	})
	_, fast := tr.Start(context.Background(), "fast") // 40ms < threshold
	fast.End()
	ctx, slow := tr.Start(context.Background(), "slow")
	_, child := Start(ctx, "inner")
	child.End()
	slow.End() // 120ms >= threshold
	if len(logged) != 1 {
		t.Fatalf("slow log entries = %d, want 1", len(logged))
	}
	if !strings.Contains(logged[0], "slow trace (120ms)") || !strings.Contains(logged[0], "inner") {
		t.Errorf("slow log = %q", logged[0])
	}
	if total, slowN := tr.Completed(); total != 2 || slowN != 1 {
		t.Errorf("Completed = %d/%d, want 2/1", total, slowN)
	}
}

func TestSpanCapDropsExcess(t *testing.T) {
	tr := stepTracer(1, Config{})
	ctx, root := tr.Start(context.Background(), "big")
	var nilSeen int
	for i := 0; i < maxSpansPerTrace+10; i++ {
		_, c := Start(ctx, "child")
		if c == nil {
			nilSeen++
			continue
		}
		c.End()
	}
	root.End()
	if root.SpanCount() != maxSpansPerTrace {
		t.Errorf("SpanCount = %d, want cap %d", root.SpanCount(), maxSpansPerTrace)
	}
	if nilSeen != 11 { // root takes 1 slot, so 4095 children fit
		t.Errorf("dropped children = %d, want 11", nilSeen)
	}
	if !strings.Contains(root.Render(), "spans dropped") {
		t.Error("Render should note dropped spans")
	}
}

func TestEndIdempotentAndUnfinishedRender(t *testing.T) {
	tr := stepTracer(5, Config{})
	ctx, root := tr.Start(context.Background(), "r")
	_, child := Start(ctx, "open")
	if !strings.Contains(root.Render(), "open (unfinished)") {
		t.Error("unfinished child should render a marker")
	}
	child.End()
	d := child.Duration()
	child.End() // second End must not re-stamp
	if child.Duration() != d {
		t.Error("End is not idempotent")
	}
	root.End()
	root.End()
	if total, _ := tr.Completed(); total != 1 {
		t.Errorf("double End committed %d traces", total)
	}
}

func TestAttrFormatting(t *testing.T) {
	tr := stepTracer(1, Config{})
	_, root := tr.Start(context.Background(), "r")
	root.SetAttr("s", "x")
	root.SetAttr("b", true)
	root.SetAttr("i", 7)
	root.SetAttr("i64", int64(-8))
	root.SetAttr("u64", uint64(9))
	root.SetAttr("f", 0.25)
	root.SetAttr("d", 1500*time.Millisecond)
	root.SetAttr("other", []int{1})
	root.End()
	want := map[string]string{
		"s": "x", "b": "true", "i": "7", "i64": "-8", "u64": "9",
		"f": "0.25", "d": "1.5s", "other": "[1]",
	}
	for k, v := range want {
		if got := root.Attr(k); got != v {
			t.Errorf("attr %s = %q, want %q", k, got, v)
		}
	}
}

func TestTracerDefaultsAndClock(t *testing.T) {
	tr := NewTracer(Config{})
	_, root := tr.Start(context.Background(), "r")
	if root.Clock() == nil {
		t.Fatal("span clock should default to SystemClock")
	}
	root.End()
	if root.Duration() < 0 {
		t.Error("system-clock duration negative")
	}
}

func TestConcurrentChildren(t *testing.T) {
	tr := stepTracer(1, Config{})
	ctx, root := tr.Start(context.Background(), "r")
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 50; j++ {
				cctx, c := Start(ctx, "c")
				_, g := Start(cctx, "g")
				g.SetAttr("j", j)
				g.End()
				c.End()
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	root.End()
	if got := root.SpanCount(); got != 1+8*50*2 {
		t.Errorf("SpanCount = %d, want %d", got, 1+8*50*2)
	}
}
