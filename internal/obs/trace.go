package obs

import (
	"context"
	"fmt"
	"log"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key, Value string
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: fmt.Sprintf("%d", v)} }

// SpanData is the immutable record of a finished span, as delivered to
// sinks.
type SpanData struct {
	// Name is the phase name passed to Start.
	Name string
	// SpanID is unique within the tracer; ParentID is the enclosing
	// span's id, 0 for roots.
	SpanID, ParentID uint64
	Start            time.Time
	Duration         time.Duration
	Attrs            []Attr
}

// Sink receives finished spans. Implementations must be safe for
// concurrent use.
type Sink interface {
	Record(SpanData)
}

// Tracer hands out spans and fans finished ones out to its sinks.
type Tracer struct {
	ids   atomic.Uint64
	sinks []Sink
}

// NewTracer builds a tracer recording to the given sinks.
func NewTracer(sinks ...Sink) *Tracer {
	return &Tracer{sinks: sinks}
}

// ctxKey carries the ambient tracer+span through a context.
type ctxKey struct{}

type ctxVal struct {
	tracer *Tracer
	span   *Span
}

// WithTracer returns a context carrying the tracer; Start calls on
// derived contexts create spans recorded to it. A nil tracer returns
// ctx unchanged.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, &ctxVal{tracer: t})
}

// Start opens a span named after a phase. The returned context makes
// the span the parent of any nested Start; call End on the span when
// the phase finishes. Without a tracer in ctx it returns (ctx, nil) —
// the nil span's methods are no-ops, so call sites never branch.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	v, _ := ctx.Value(ctxKey{}).(*ctxVal)
	if v == nil || v.tracer == nil {
		return ctx, nil
	}
	s := &Span{
		tracer: v.tracer,
		data: SpanData{
			Name:   name,
			SpanID: v.tracer.ids.Add(1),
			Start:  time.Now(),
		},
	}
	if v.span != nil {
		s.data.ParentID = v.span.data.SpanID
	}
	return context.WithValue(ctx, ctxKey{}, &ctxVal{tracer: v.tracer, span: s}), s
}

// Span is one in-flight phase.
type Span struct {
	tracer *Tracer
	mu     sync.Mutex
	data   SpanData
	done   bool
}

// ID returns the span's id (0 on a nil span) — the join key between a
// structured request log line and the span a sink recorded.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.data.SpanID
}

// Parent returns the enclosing span's id (0 for roots and nil spans).
func (s *Span) Parent() uint64 {
	if s == nil {
		return 0
	}
	return s.data.ParentID
}

// SetAttr attaches attributes to the span (no-op on nil or ended
// spans).
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return
	}
	s.data.Attrs = append(s.data.Attrs, attrs...)
}

// End closes the span and delivers it to the tracer's sinks. Safe on
// nil spans; later calls are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	s.data.Duration = time.Since(s.data.Start)
	data := s.data
	s.mu.Unlock()
	for _, sink := range s.tracer.sinks {
		sink.Record(data)
	}
}

// RingSink keeps the most recent spans in a fixed-capacity ring buffer
// — the in-memory sink behind /debug/trace.
type RingSink struct {
	mu   sync.Mutex
	buf  []SpanData
	next int
	n    int
}

// NewRingSink builds a ring holding the last capacity spans (min 1).
func NewRingSink(capacity int) *RingSink {
	if capacity < 1 {
		capacity = 1
	}
	return &RingSink{buf: make([]SpanData, capacity)}
}

// Record implements Sink.
func (r *RingSink) Record(d SpanData) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = d
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// Spans returns the retained spans, oldest first.
func (r *RingSink) Spans() []SpanData {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanData, 0, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// LogSink writes each finished span as one structured log line — the
// "phase took this long" breadcrumb for command startup sequences.
type LogSink struct {
	Logger *log.Logger
}

// Record implements Sink.
func (l LogSink) Record(d SpanData) {
	if l.Logger == nil {
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace span=%s dur=%s id=%d", d.Name, d.Duration.Round(time.Microsecond), d.SpanID)
	if d.ParentID != 0 {
		fmt.Fprintf(&b, " parent=%d", d.ParentID)
	}
	for _, a := range d.Attrs {
		fmt.Fprintf(&b, " %s=%s", a.Key, a.Value)
	}
	l.Logger.Print(b.String())
}
