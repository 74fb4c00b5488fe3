package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// items counts the buffered items of b.
func items[T any](b Buckets[T]) int {
	n := 0
	for _, s := range b {
		n += len(s)
	}
	return n
}

func TestForCoversRangeOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 16, 100} {
		n := 1000
		seen := make([]int32, n)
		For(nil, n, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEmpty(t *testing.T) {
	called := false
	For(nil, 0, 4, func(lo, hi int) { called = true })
	For(nil, -3, 4, func(lo, hi int) { called = true })
	ForBlocks(NewMeter(), 0, 4, func(b, lo, hi int) { called = true })
	if called {
		t.Fatal("For called fn on empty range")
	}
}

func TestBuckets(t *testing.T) {
	b := make(Buckets[int], 3)
	if b.Shards() != 3 || items(b) != 0 {
		t.Fatalf("fresh buckets: %d shards, %d items", b.Shards(), items(b))
	}
	b.Add(0, 10)
	b.Add(2, 20)
	b.Add(2, 21)
	if items(b) != 3 || len(b[2]) != 2 {
		t.Fatalf("items = %d, shard 2 holds %d", items(b), len(b[2]))
	}
}

// TestSingleBlockRunsInline checks that one block runs on the caller's
// goroutine and, unmetered, allocates nothing inside par.
func TestSingleBlockRunsInline(t *testing.T) {
	var calls int
	fn := func(b, lo, hi int) {
		if b != 0 || lo != 0 || hi != 10 {
			t.Fatalf("block (%d, %d, %d), want (0, 0, 10)", b, lo, hi)
		}
		calls++ // unsynchronized: -race fails if this ran on another goroutine
	}
	if a := testing.AllocsPerRun(100, func() { ForBlocks(nil, 10, 1, fn) }); a != 0 {
		t.Fatalf("single unmetered block allocates %v times", a)
	}
	m := NewMeter()
	ForBlocks(m, 10, 1, fn)
	For(m, 10, 1, func(lo, hi int) { calls++ })
	if calls != 103 {
		t.Fatalf("fn ran %d times, want 103", calls)
	}
}

// TestCollectSplitsByShards is the regression test for Collect ignoring the
// caller's worker count: generation must run in one block per shard, not in
// GOMAXPROCS blocks. Every gen call waits until all eight are in flight at
// once, which only eight concurrent blocks can satisfy — at any GOMAXPROCS,
// since a sleeping goroutine needs no thread.
func TestCollectSplitsByShards(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n = 8
	var inFlight atomic.Int32
	var stuck atomic.Bool
	deadline := time.Now().Add(5 * time.Second)
	b := Collect(NewMeter(), n, n, func(i int, emit func(int, int)) {
		inFlight.Add(1)
		for inFlight.Load() < n && !stuck.Load() {
			if time.Now().After(deadline) {
				stuck.Store(true)
			}
			time.Sleep(time.Millisecond)
		}
		emit(i, i)
	})
	if stuck.Load() {
		t.Fatalf("Collect(m, %d, %d, ...) never ran its %d items concurrently", n, n, n)
	}
	if items(b) != n {
		t.Fatalf("collected %d items, want %d", items(b), n)
	}
}

func TestCollectRoutesToShards(t *testing.T) {
	n, shards := 500, 7
	b := Collect(nil, n, shards, func(i int, emit func(int, int)) {
		emit(i, i) // shard chosen by value; Collect reduces mod shards
	})
	if items(b) != n {
		t.Fatalf("collected %d items, want %d", items(b), n)
	}
	for s := range b {
		for _, item := range b[s] {
			if item%shards != s {
				t.Fatalf("item %d landed in shard %d", item, s)
			}
		}
	}
}

func TestCollectZeroItems(t *testing.T) {
	b := Collect(nil, 100, 4, func(i int, emit func(int, string)) {})
	if items(b) != 0 {
		t.Fatalf("collected %d items", items(b))
	}
	RunSharded(NewMeter(), b, func(s int, items []string) { t.Fatal("fn called for empty shard") })
}

func TestRunShardedIsExclusivePerShard(t *testing.T) {
	shards := 8
	b := make(Buckets[int], shards)
	for s := 0; s < shards; s++ {
		for i := 0; i < 1000; i++ {
			b.Add(s, 1)
		}
	}
	// Unsynchronized per-shard counters: the test fails under -race if two
	// goroutines ever process the same shard.
	counts := make([]int, shards)
	RunSharded(nil, b, func(s int, items []int) {
		for range items {
			counts[s]++
		}
	})
	for s, c := range counts {
		if c != 1000 {
			t.Fatalf("shard %d: count %d", s, c)
		}
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatal("DefaultWorkers < 1")
	}
}

func TestQuickCollectPreservesItems(t *testing.T) {
	f := func(n uint16, shards uint8) bool {
		nn := int(n % 2000)
		ss := 1 + int(shards%16)
		b := Collect(nil, nn, ss, func(i int, emit func(int, int)) {
			emit(i*7, i)
		})
		if items(b) != nn {
			return false
		}
		seen := make([]bool, nn)
		for s := range b {
			for _, item := range b[s] {
				if item < 0 || item >= nn || seen[item] {
					return false
				}
				seen[item] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
