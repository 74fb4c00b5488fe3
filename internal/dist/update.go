package dist

import (
	"context"
	"fmt"

	"ccp/internal/graph"
	"ccp/internal/obs/flight"
	"ccp/internal/store"
)

// StakeUpdate is one change to the distributed shareholding data: owner
// takes (or divests) the fraction Weight of owned.
type StakeUpdate struct {
	Owner, Owned graph.NodeID
	Weight       float64
	// Remove divests the stake entirely instead of adding Weight.
	Remove bool
}

// UpdateResult reports what an edge update did at the owner's home site.
type UpdateResult struct {
	// Stored is true at exactly one site: the one holding the owner.
	Stored bool
	// EdgeCreated / EdgeRemoved report whether the physical edge appeared
	// or disappeared (a merge into an existing stake creates nothing).
	EdgeCreated, EdgeRemoved bool
	// Cross reports that the stake crosses partitions, so the owned
	// company's home site must adjust its in-node bookkeeping.
	Cross bool
	// Changed reports that the site's observable data actually moved. A
	// stored update can still be a no-op — divesting a stake that does not
	// exist, or re-merging a stake to its current label — and then the
	// site's epoch, caches and snapshots all stay put.
	Changed bool
	// Seq is the durable WAL sequence number the update committed at, zero
	// on a site without a store or when nothing changed. When set it equals
	// the site's new epoch, so a coordinator can version its caches with
	// numbers that survive site restarts.
	Seq uint64
}

// commit makes one effective, already-applied update durable and advances
// the epoch. With a store attached the new epoch is the record's WAL
// sequence number — the same number recovery will reproduce — and the call
// returns after the record is on stable storage (group commit). Without a
// store the epoch is a plain counter. Caller holds s.mu.
func (s *Site) commit(rec store.Record) (uint64, error) {
	s.cache = nil
	if s.store == nil {
		return s.epoch.Add(1), nil
	}
	seq, err := s.store.Append(rec)
	if err != nil {
		// The in-memory state already moved, so readers still need a fresh
		// epoch; fall back to the counter and surface the durability loss.
		return s.epoch.Add(1), fmt.Errorf("dist: site %d wal append: %w", s.part.ID, err)
	}
	s.epoch.Store(seq)
	return seq, nil
}

// ApplyEdgeUpdate applies the edge half of an update. Only the owner's home
// site does anything; every other site returns a zero UpdateResult. The
// mutation itself is partition.ApplyStake — the same path WAL replay takes,
// so a recovered site reproduces exactly the state this call built.
func (s *Site) ApplyEdgeUpdate(up StakeUpdate) (UpdateResult, error) {
	if s.readOnly.Load() {
		return UpdateResult{}, &SiteError{SiteID: s.part.ID, Op: "update",
			Msg: "read-only follower replica: writes go to the leader"}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sr, err := s.part.ApplyStake(up.Owner, up.Owned, up.Weight, up.Remove)
	if err != nil {
		return UpdateResult{}, fmt.Errorf("dist: site %d: %w", s.part.ID, err)
	}
	res := UpdateResult{
		Stored:      sr.Stored,
		EdgeCreated: sr.EdgeCreated,
		EdgeRemoved: sr.EdgeRemoved,
		Cross:       sr.Cross,
		Changed:     sr.Changed,
	}
	if !sr.Stored || !sr.Changed {
		return res, nil
	}
	seq, err := s.commit(store.Record{
		Kind:   store.KindStake,
		Owner:  int32(up.Owner),
		Owned:  int32(up.Owned),
		Weight: up.Weight,
		Remove: up.Remove,
	})
	if err != nil {
		return res, err
	}
	res.Seq = seq
	s.ev.Emit(flight.Update, int32(s.part.ID), 0, int64(up.Owner), int64(up.Owned))
	return res, nil
}

// AdjustCrossIn records delta new (+1) or removed (-1) foreign cross edges
// into company v. Only v's home site does anything; it reports whether it
// acted. A reference-count tick that does not move the in-node set is still
// made durable — recovery needs the count — but does not touch the epoch,
// snapshots or caches: the observable data did not change.
func (s *Site) AdjustCrossIn(v graph.NodeID, delta int) bool {
	if s.readOnly.Load() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	acted, changed := s.part.AdjustCrossIn(v, delta)
	if !acted {
		return false
	}
	rec := store.Record{Kind: store.KindCrossIn, Owned: int32(v), Delta: int32(delta)}
	if changed {
		if _, err := s.commit(rec); err != nil {
			s.ev.Log().Warn("cross-in update not durable", "site", s.part.ID, "err", err)
		}
	} else if s.store != nil {
		if _, err := s.store.Append(rec); err != nil {
			s.ev.Log().Warn("cross-in update not durable", "site", s.part.ID, "err", err)
		}
	}
	return true
}

// ApplyUpdate routes one stake update through the cluster: every site is
// offered the edge half (exactly the owner's site applies it), and if a
// cross-partition edge appeared or disappeared, the owned company's site
// adjusts its in-node bookkeeping. Sites whose data actually changed drop
// their cached partial answers; a no-op update (re-merging an identical
// stake, divesting nothing) invalidates nothing anywhere. ctx bounds the
// whole routing; per-site calls additionally honor Options.SiteTimeout. A
// failure mid-route can leave the edge applied but the in-node bookkeeping
// not yet adjusted — re-apply the update once the sites are reachable
// again.
func (c *Coordinator) ApplyUpdate(ctx context.Context, up StakeUpdate) error {
	// An applied update moves the epoch of exactly the sites it touched, so
	// only merged skeletons involving those sites can never match again;
	// skeletons over untouched sites stay hot for the next batch.
	var touched []int
	defer func() { c.dropSnapshotsFor(touched) }()
	c.ev.Emit(flight.Update, -1, 0, int64(up.Owner), int64(up.Owned))
	var applied *UpdateResult
	for _, cl := range c.clients {
		uctx, cancel := c.siteCtx(ctx)
		res, err := cl.Update(uctx, up)
		cancel()
		if err != nil {
			c.ev.Log().Warn("update failed", "owner", up.Owner, "owned", up.Owned,
				"site", cl.SiteID(), "err", err)
			return err
		}
		if res.Stored {
			if applied != nil {
				return fmt.Errorf("dist: update stored at two sites")
			}
			applied = &res
			if res.Changed {
				touched = append(touched, cl.SiteID())
			}
		}
	}
	if applied == nil {
		if up.Remove {
			return fmt.Errorf("dist: stake (%d,%d) not found", up.Owner, up.Owned)
		}
		return fmt.Errorf("dist: no site stores company %d", up.Owner)
	}
	if applied.Cross && (applied.EdgeCreated || applied.EdgeRemoved) {
		delta := 1
		if applied.EdgeRemoved {
			delta = -1
		}
		acted := false
		for _, cl := range c.clients {
			actx, cancel := c.siteCtx(ctx)
			ok, err := cl.AdjustCrossIn(actx, up.Owned, delta)
			cancel()
			if err != nil {
				return err
			}
			if ok {
				touched = append(touched, cl.SiteID())
			}
			acted = acted || ok
		}
		if !acted {
			// The owned company lives at no site: the update referenced an
			// unknown company. Roll the edge back so no site is left with a
			// dangling stake.
			if applied.EdgeCreated {
				rollback := StakeUpdate{Owner: up.Owner, Owned: up.Owned, Remove: true}
				for _, cl := range c.clients {
					rctx, cancel := c.siteCtx(ctx)
					res, err := cl.Update(rctx, rollback)
					cancel()
					if err == nil && res.Stored {
						break
					}
				}
			}
			return fmt.Errorf("dist: no site hosts owned company %d", up.Owned)
		}
	}
	return nil
}
