package main

import (
	"os"
	"time"

	"ccp/internal/dist"
	"ccp/internal/partition"
	"ccp/internal/store"
)

// probeApplyUpdate times the site half of an update straight at the owner's
// durable site — partition mutation, WAL append, fsync — for every pair of
// the update mix; each stake is divested again at once, so the state stays.
func probeApplyUpdate(c *distCluster, w *workload, rec *recorder, P int) float64 {
	lat := newSeries(P, len(w.ops))
	for k := -1; k < P; k++ {
		for i, o := range w.ops {
			if o.Kind != opAdd {
				continue
			}
			owner := c.sites[c.pi.Locate(o.A)]
			id := rec.start("site.apply_update", 0, i)
			_, err := owner.ApplyEdgeUpdate(dist.StakeUpdate{Owner: o.A, Owned: o.B, Weight: updateWeight})
			ns := rec.end(id)
			if _, rerr := owner.ApplyEdgeUpdate(dist.StakeUpdate{Owner: o.A, Owned: o.B, Remove: true}); err == nil && rerr == nil && k >= 0 {
				lat[k][i] = us(ns)
			}
		}
	}
	return lat.row()
}

// probeStore measures the durable store alone, in fresh directories under
// outDir: synced and unsynced appends, a checkpoint of part, and the replay
// a restart pays per WAL record.
func probeStore(part *partition.Partition, outDir string) (map[string]float64, error) {
	const (
		syncedAppends   = 64
		unsyncedAppends = 4096
	)
	rows := map[string]float64{}
	rec := store.Record{Kind: store.KindStake, Owner: 1, Owned: 2, Weight: updateWeight}
	open := func(opts store.Options) (*store.Store, string, error) {
		dir, err := os.MkdirTemp(outDir, "store-")
		if err != nil {
			return nil, "", err
		}
		st, err := store.Open(dir, opts)
		if err != nil {
			os.RemoveAll(dir)
			return nil, "", err
		}
		if err := st.Replay(func(store.Record) error { return nil }); err != nil {
			st.Close()
			os.RemoveAll(dir)
			return nil, "", err
		}
		return st, dir, nil
	}

	// Synced: the production flush policy, one fsync per lone append.
	opts := storeOptions
	st, dir, err := open(opts)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st.Start(func() (uint64, *partition.Partition) { return st.AppendedSeq(), part.Snapshot() })
	before := st.Stats()
	var appendUS []float64
	for i := 0; i < syncedAppends; i++ {
		t0 := time.Now()
		if _, err := st.Append(rec); err != nil {
			st.Close()
			return nil, err
		}
		appendUS = append(appendUS, us(int64(time.Since(t0))))
	}
	after := st.Stats()
	rows["store.append_sync_us"] = median(appendUS)
	rows["store.fsyncs_per_append"] = float64(after.Fsyncs-before.Fsyncs) / syncedAppends
	rows["store.wal_bytes_per_record"] = float64(after.WALBytes-before.WALBytes) / syncedAppends
	var ckptMS []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := st.Checkpoint(); err != nil {
			st.Close()
			return nil, err
		}
		ckptMS = append(ckptMS, float64(time.Since(t0))/1e6)
	}
	rows["store.checkpoint_ms"] = fastest(ckptMS)
	if err := st.Close(); err != nil {
		return nil, err
	}

	// Unsynced appends, then a crash (no final checkpoint) and the replay of
	// the whole tail on reopen.
	opts.NoSync = true
	st, dir2, err := open(opts)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir2)
	t0 := time.Now()
	for i := 0; i < unsyncedAppends; i++ {
		if _, err := st.Append(rec); err != nil {
			st.Close()
			return nil, err
		}
	}
	rows["store.append_nosync_us"] = us(int64(time.Since(t0))) / unsyncedAppends
	if err := st.Kill(); err != nil {
		return nil, err
	}
	var replayUS []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		st, err := store.Open(dir2, opts)
		if err != nil {
			return nil, err
		}
		n := 0
		err = st.Replay(func(store.Record) error { n++; return nil })
		elapsed := time.Since(t0)
		st.Kill()
		if err != nil {
			return nil, err
		}
		replayUS = append(replayUS, us(int64(elapsed))/float64(max(n, 1)))
	}
	rows["store.replay_us_per_record"] = fastest(replayUS)
	return rows, nil
}
