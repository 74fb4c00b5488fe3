package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// ParseLogLevel maps the -log-level flag values (debug, info, warn, error)
// to slog levels.
func ParseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug, info, warn, or error)", s)
}

// NewLogger builds the process logger behind every binary's -log-level /
// -log-format flags: text (the default, human-oriented) or json (one object
// per line, for log shippers).
func NewLogger(w io.Writer, level slog.Level, format string) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	switch strings.ToLower(strings.TrimSpace(format)) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("obs: unknown log format %q (want text or json)", format)
}

// discardHandler drops every record. A hand-rolled handler (rather than
// slog.DiscardHandler) keeps the module on its declared go 1.22 floor.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// discard returns a logger that drops everything with Enabled reporting
// false, so guarded call sites skip attribute construction too.
func discard() *slog.Logger { return slog.New(discardHandler{}) }

// LoggerOr returns l, or a discard logger when l is nil — the normalization
// every component applies once at construction so its hot paths call a
// non-nil logger unconditionally.
func LoggerOr(l *slog.Logger) *slog.Logger {
	if l == nil {
		return discard()
	}
	return l
}

// TraceIDAttr renders a trace/flight id the way timelines print it, or
// omits clutter for the zero id.
func TraceIDAttr(id uint64) slog.Attr {
	if id == 0 {
		return slog.Attr{}
	}
	return slog.String("trace", fmt.Sprintf("%016x", id))
}
