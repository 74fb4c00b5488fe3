// Package par is the intra-site parallel substrate of the reduction
// algorithm. It provides a blocked parallel-for for the read-only mark steps
// and a sharded executor for the mutation steps (clean, simplify), in which
// every shard of the node-id space is mutated by exactly one goroutine —
// the same ownership discipline Pregel enforces through message routing.
//
// Every construct takes a *Meter that records its per-block timings; nil
// records nothing.
package par

import (
	"runtime"
	"sync"
	"time"
)

// DefaultWorkers returns the worker count used when a caller passes
// workers <= 0: the number of usable CPUs.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// split returns the block size and block count ForBlocks uses for [0, n).
func split(n, workers int) (block, blocks int) {
	if n <= 0 {
		return 0, 0
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	workers = min(workers, n)
	block = (n + workers - 1) / workers
	return block, (n + block - 1) / block
}

// Blocks returns the number of contiguous blocks For and ForBlocks split
// [0, n) into for the given worker count.
func Blocks(n, workers int) int {
	_, nb := split(n, workers)
	return nb
}

// For splits [0, n) into at most `workers` contiguous blocks (<= 0 means
// GOMAXPROCS) and runs fn on each block concurrently, blocking until all
// complete.
func For(m *Meter, n, workers int, fn func(lo, hi int)) {
	if m == nil && Blocks(n, workers) == 1 {
		fn(0, n)
		return
	}
	ForBlocks(m, n, workers, func(_, lo, hi int) { fn(lo, hi) })
}

// ForBlocks is For with a dense block index passed to fn, so callers can
// accumulate per-block partial results in a slice of length Blocks(n,
// workers) instead of length n. A single block runs on the caller's
// goroutine.
func ForBlocks(m *Meter, n, workers int, fn func(b, lo, hi int)) {
	block, nb := split(n, workers)
	if nb == 0 {
		return
	}
	if nb == 1 {
		start := time.Now()
		fn(0, 0, n)
		m.record([]time.Duration{time.Since(start)})
		return
	}
	times := make([]time.Duration, nb)
	var wg sync.WaitGroup
	for b := 0; b < nb; b++ {
		lo := b * block
		hi := min(lo+block, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			fn(b, lo, hi)
			times[b] = time.Since(start)
		}()
	}
	wg.Wait()
	m.record(times)
}

// Buckets accumulates items routed to shards. Shard s of a Buckets built
// with Collect is only ever appended to by worker s, and later consumed by
// worker s in RunSharded, so no locking is needed anywhere.
type Buckets[T any] [][]T

// Shards returns the number of shards.
func (b Buckets[T]) Shards() int { return len(b) }

// Add appends item to shard s. Not safe for concurrent use on the same s.
func (b Buckets[T]) Add(s int, item T) { b[s] = append(b[s], item) }

// Collect produces sharded buckets in parallel: gen is run over [0, n) split
// in blocks across `shards` workers, and emits items with an explicit
// destination shard (reduced mod shards). Items are first gathered in
// per-block local buckets (no contention) and merged shard-parallel after the
// barrier; each shard keeps the emission order of [0, n).
func Collect[T any](m *Meter, n, shards int, gen func(i int, emit func(shard int, item T))) Buckets[T] {
	shards = max(shards, 1)
	locals := make([]Buckets[T], Blocks(n, shards))
	ForBlocks(m, n, shards, func(b, lo, hi int) {
		local := make(Buckets[T], shards)
		emit := func(s int, item T) { local.Add(s%shards, item) }
		for i := lo; i < hi; i++ {
			gen(i, emit)
		}
		locals[b] = local
	})
	merged := make(Buckets[T], shards)
	For(m, shards, shards, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			total := 0
			for _, l := range locals {
				total += len(l[s])
			}
			if total == 0 {
				continue
			}
			out := make([]T, 0, total)
			for _, l := range locals {
				out = append(out, l[s]...)
			}
			merged[s] = out
		}
	})
	return merged
}

// RunSharded executes fn(s, items) for every non-empty shard s concurrently.
// fn for shard s is the only goroutine allowed to touch state owned by s.
func RunSharded[T any](m *Meter, b Buckets[T], fn func(shard int, items []T)) {
	ForBlocks(m, len(b), len(b), func(s, _, _ int) {
		if len(b[s]) > 0 {
			fn(s, b[s])
		}
	})
}
