package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

func TestParseLogLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn, "ERROR": slog.LevelError,
	}
	for in, want := range cases {
		got, err := ParseLogLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLogLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLogLevel("loud"); err == nil {
		t.Errorf("ParseLogLevel accepted garbage")
	}
}

func TestNewLoggerFormats(t *testing.T) {
	var buf bytes.Buffer
	l, err := NewLogger(&buf, slog.LevelInfo, "text")
	if err != nil {
		t.Fatal(err)
	}
	l.Info("hello", "site", 3)
	if out := buf.String(); !strings.Contains(out, "msg=hello") || !strings.Contains(out, "site=3") {
		t.Fatalf("text output: %q", out)
	}
	buf.Reset()
	l, err = NewLogger(&buf, slog.LevelWarn, "json")
	if err != nil {
		t.Fatal(err)
	}
	l.Info("dropped") // below level
	l.Warn("kept", "trace", "abc")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("json output does not decode: %v (%q)", err, buf.String())
	}
	if rec["msg"] != "kept" || rec["trace"] != "abc" {
		t.Fatalf("json record: %v", rec)
	}
	if _, err := NewLogger(&buf, slog.LevelInfo, "yaml"); err == nil {
		t.Fatalf("NewLogger accepted unknown format")
	}
}

func TestDiscardAndLoggerOr(t *testing.T) {
	d := discard()
	if d.Enabled(nil, slog.LevelError) {
		t.Fatalf("discard logger claims enabled")
	}
	d.With("k", "v").WithGroup("g").Info("nothing happens")
	if LoggerOr(nil) == nil {
		t.Fatalf("LoggerOr(nil) returned nil")
	}
	real := slog.Default()
	if LoggerOr(real) != real {
		t.Fatalf("LoggerOr did not pass through a real logger")
	}
}
