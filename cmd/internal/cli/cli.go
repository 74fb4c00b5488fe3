// Package cli holds the plumbing every ccp command shares: the standard
// -log-level / -log-format flags, the SIGQUIT flight-dump handler, and the
// daemons' ops-listener wiring.
package cli

import (
	"encoding/json"
	"flag"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"ccp"
)

// OpsPaths lists what a daemon's -ops-addr listener serves.
const OpsPaths = "/metrics /healthz /varz /debug/flight /debug/pprof"

// StartOps binds the ops listener on addr and logs its URL. An empty addr
// disables it: the server returned is nil, and its Shutdown is a no-op.
func StartOps(addr string, o *ccp.Observer, health ccp.HealthFunc, logger *slog.Logger) (*ccp.OpsServer, error) {
	if addr == "" {
		return nil, nil
	}
	srv, err := ccp.StartOpsServer(addr, o, health)
	if err != nil {
		return nil, err
	}
	logger.Info("ops endpoints up", "url", "http://"+srv.Addr(), "endpoints", OpsPaths)
	return srv, nil
}

// LogFlags are the parsed values of the standard logging flags.
type LogFlags struct {
	Level  *string
	Format *string
}

// RegisterLogFlags registers -log-level and -log-format on fs.
func RegisterLogFlags(fs *flag.FlagSet) *LogFlags {
	return &LogFlags{
		Level:  fs.String("log-level", "info", "log level: debug, info, warn, error"),
		Format: fs.String("log-format", "text", "log format: text or json"),
	}
}

// Logger builds the process logger (writing to stderr) from the parsed
// flags, or returns an error for unknown values.
func (f *LogFlags) Logger() (*slog.Logger, error) {
	lvl, err := ccp.ParseLogLevel(*f.Level)
	if err != nil {
		return nil, err
	}
	return ccp.NewLogger(os.Stderr, lvl, *f.Format)
}

// DumpFlightOnQuit installs a SIGQUIT handler that writes o's flight-
// recorder snapshot to stderr as indented JSON — crash forensics for a
// wedged process (`kill -QUIT <pid>` instead of the Go runtime's stack
// dump). The returned stop function uninstalls the handler.
func DumpFlightOnQuit(o *ccp.Observer) func() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-ch:
				WriteFlightDump(os.Stderr, o)
			case <-done:
				return
			}
		}
	}()
	return func() { signal.Stop(ch); close(done) }
}

// WriteFlightDump writes o's flight-recorder snapshot to w as indented
// JSON, the same shape /debug/flight serves.
func WriteFlightDump(w *os.File, o *ccp.Observer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(o.Flight().Snapshot())
}
