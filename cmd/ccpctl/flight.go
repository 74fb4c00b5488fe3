package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"ccp/internal/obs/flight"
)

// splitList splits a comma-separated flag value, dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}

// cmdFlight fetches flight-recorder dumps from running processes (the
// /debug/flight ops endpoint) and/or from dump files (written by ccpcoord
// -flight-out or a SIGQUIT), merges them into one time-ordered cross-process
// timeline, and prints it.
func cmdFlight(args []string) error {
	fs := flag.NewFlagSet("flight", flag.ExitOnError)
	opsList := fs.String("ops", "", "comma-separated ops addresses (host:port or URL) to fetch /debug/flight from")
	inList := fs.String("in", "", "comma-separated flight-dump JSON files")
	trace := fs.String("trace", "", "only events of the query with this id, in hex as traces print it (/varz's slow_queries prints ids in decimal)")
	timeout := fs.Duration("timeout", 5*time.Second, "per-fetch HTTP timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *opsList == "" && *inList == "" {
		return fmt.Errorf("flight: need -ops and/or -in")
	}

	var dumps []flight.Dump
	client := &http.Client{Timeout: *timeout}
	for _, addr := range splitList(*opsList) {
		var d flight.Dump
		if err := opsGet(client, addr, "/debug/flight", &d); err != nil {
			return fmt.Errorf("flight: %w", err)
		}
		logger.Debug("fetched flight dump", "addr", addr, "events", len(d.Events), "process", d.Process)
		dumps = append(dumps, d)
	}
	for _, path := range splitList(*inList) {
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("flight: %w", err)
		}
		var d flight.Dump
		if err := json.Unmarshal(data, &d); err != nil {
			return fmt.Errorf("flight: decoding %s: %w", path, err)
		}
		logger.Debug("read flight dump", "path", path, "events", len(d.Events), "process", d.Process)
		dumps = append(dumps, d)
	}

	entries := flight.MergeTimeline(dumps...)
	if *trace != "" {
		id, err := strconv.ParseUint(strings.TrimPrefix(*trace, "0x"), 16, 64)
		if err != nil {
			return fmt.Errorf("flight: bad -trace %q: %v", *trace, err)
		}
		entries = flight.FilterTrace(entries, id)
	}
	return flight.WriteTimeline(os.Stdout, entries)
}
