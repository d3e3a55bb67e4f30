package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
)

// Logging rides log/slog. Two handlers ship: the line handler renders the
// classic "[obs] msg k=v" text the -v flag has always produced (goldens
// and operator muscle memory keep working), and slog's JSONHandler serves
// machine consumers behind -log-json. Both receive the same records —
// span completions, logf and LogCtx events — and scoped records carry the
// scope path and correlation ID as attributes, so a JSON log line can be
// joined to the /tasks view and the per-scope metrics sections it belongs
// to.
var (
	logOn  atomic.Bool
	logMu  sync.Mutex
	logger *slog.Logger
)

// SetLogger installs l as the telemetry log sink; nil silences logging.
func SetLogger(l *slog.Logger) {
	logMu.Lock()
	logger = l
	logMu.Unlock()
	logOn.Store(l != nil)
}

// SetVerbose directs span/event lines to w in the legacy "[obs] msg k=v"
// text form; nil silences them. It is the -v wiring.
func SetVerbose(w io.Writer) {
	if w == nil {
		SetLogger(nil)
		return
	}
	SetLogger(slog.New(&lineHandler{out: &syncWriter{w: w}}))
}

// SetLogJSON directs span/event records to w as slog JSON lines; nil
// silences them. It is the -log-json wiring.
func SetLogJSON(w io.Writer) {
	if w == nil {
		SetLogger(nil)
		return
	}
	SetLogger(slog.New(slog.NewJSONHandler(w, nil)))
}

// Verbose reports whether a log sink is installed.
func Verbose() bool { return logOn.Load() }

func currentLogger() *slog.Logger {
	logMu.Lock()
	defer logMu.Unlock()
	return logger
}

// logf writes one unscoped event record to the log sink, if any.
func logf(format string, args ...interface{}) {
	if !logOn.Load() {
		return
	}
	l := currentLogger()
	if l == nil {
		return
	}
	l.Info(fmt.Sprintf(format, args...))
}

// LogCtx writes one event record attributed to ctx's scope: the scope
// path and correlation ID ride every record as attributes.
func LogCtx(ctx context.Context, format string, args ...interface{}) {
	if !logOn.Load() {
		return
	}
	l := currentLogger()
	if l == nil {
		return
	}
	if s := FromContext(ctx); s != nil {
		l.Info(fmt.Sprintf(format, args...), slog.String("scope", s.path), slog.String("scope_id", s.id))
		return
	}
	l.Info(fmt.Sprintf(format, args...))
}

// logRecord emits msg with pre-built attrs through the sink (span.End's
// path — it has already rendered its fields as attributes).
func logRecord(msg string, attrs []slog.Attr) {
	l := currentLogger()
	if l == nil {
		return
	}
	args := make([]any, len(attrs))
	for i, a := range attrs {
		args[i] = a
	}
	l.Info(msg, args...)
}

// syncWriter serializes writes so concurrent span completions cannot
// interleave mid-line on the shared sink.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// lineHandler renders slog records in the legacy verbose-sink format:
// "[obs] <message> k=v k=v\n". Level and timestamp are dropped — the text
// sink is for humans tailing a run, and the trace/metrics files carry the
// precise timings.
type lineHandler struct {
	out   io.Writer
	attrs []slog.Attr
}

// Enabled implements slog.Handler; the line sink takes every level.
func (h *lineHandler) Enabled(context.Context, slog.Level) bool { return true }

// Handle implements slog.Handler.
func (h *lineHandler) Handle(_ context.Context, r slog.Record) error {
	var b strings.Builder
	b.WriteString("[obs] ")
	b.WriteString(r.Message)
	writeAttr := func(a slog.Attr) bool {
		b.WriteByte(' ')
		b.WriteString(a.Key)
		b.WriteByte('=')
		b.WriteString(a.Value.String())
		return true
	}
	//lint:ignore ctx-loop slog.Handler interface ctx; rendering a handful of attrs needs no cancellation
	for _, a := range h.attrs {
		writeAttr(a)
	}
	r.Attrs(writeAttr)
	b.WriteByte('\n')
	_, err := io.WriteString(h.out, b.String())
	return err
}

// WithAttrs implements slog.Handler.
func (h *lineHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	merged := make([]slog.Attr, 0, len(h.attrs)+len(attrs))
	merged = append(merged, h.attrs...)
	merged = append(merged, attrs...)
	return &lineHandler{out: h.out, attrs: merged}
}

// WithGroup implements slog.Handler. Groups are flattened: the line
// format has no nesting.
func (h *lineHandler) WithGroup(string) slog.Handler { return h }
