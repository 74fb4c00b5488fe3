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

// record is the update's edge half as the record every site applies.
func (up StakeUpdate) record() store.Record {
	return store.Record{Kind: store.KindStake, Owner: int32(up.Owner), Owned: int32(up.Owned),
		Weight: up.Weight, Remove: up.Remove}
}

// UpdateResult reports what one applied record did at a site.
type UpdateResult struct {
	// Stored reports that the record was this site's to apply: the site
	// holds the stake's owner or the adjusted cross-in member. A mark is
	// always stored.
	Stored bool
	// EdgeCreated / EdgeRemoved report whether the physical edge appeared
	// or disappeared (a merge into an existing stake creates nothing).
	EdgeCreated, EdgeRemoved bool
	// Cross reports that the stake crosses partitions, so the owned
	// company's home site must adjust its in-node bookkeeping.
	Cross bool
	// Changed reports that the site's observable data actually moved. A
	// stored record can still be a no-op — divesting a stake that does not
	// exist, re-merging a stake to its current label, a cross-in count tick
	// that leaves the in-node set alone — and then the site's epoch and
	// caches stay put.
	Changed bool
	// Seq is the site's new epoch whenever the epoch moved, zero otherwise.
	// On a site with a store it is the record's durable WAL sequence
	// number, so a coordinator can version its caches with numbers that
	// survive site restarts.
	Seq uint64
}

// Apply is the one write path: every change to the site's partition or
// epoch — a live update, a WAL record replayed at recovery, a forced
// invalidation (a mark) — is a record applied here.
//
// The record is checked before the partition is touched, so a rejected
// record changes nothing. A record without a Seq is a new write: when it is
// the site's to apply and is not a no-op it is appended to the store and
// takes the sequence number it is assigned there, or the next counter value
// on a site without a store. A record with a Seq comes from WAL replay and
// is already logged; the site adopts its Seq. Either way the epoch moves
// only when observable state changed: a cross-in count tick that leaves the
// in-node set alone is logged (recovery needs the count) but keeps the
// epoch.
func (s *Site) Apply(rec store.Record) (UpdateResult, error) {
	live := rec.Seq == 0
	if err := checkRecord(rec); err != nil {
		return UpdateResult{}, fmt.Errorf("dist: site %d: %w", s.part.ID, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	res, err := s.mutate(rec)
	if err != nil {
		return UpdateResult{}, fmt.Errorf("dist: site %d: %w", s.part.ID, err)
	}
	logged := res.Stored && (res.Changed || rec.Kind == store.KindCrossIn)
	seq := rec.Seq
	if live && logged && s.store != nil {
		if seq, err = s.store.Append(rec); err != nil {
			// The in-memory state already moved, so readers still need a
			// fresh epoch: the counter below, with the durability loss
			// surfaced to the writer.
			err = fmt.Errorf("dist: site %d wal append: %w", s.part.ID, err)
		}
	}
	if res.Changed {
		s.cache = nil
		if seq == 0 {
			seq = s.epoch.Add(1)
		} else {
			s.epoch.Store(seq)
		}
		res.Seq = seq
	}
	if live && logged && err == nil && rec.Kind == store.KindStake {
		s.ev.Emit(flight.Update, int32(s.part.ID), 0, int64(rec.Owner), int64(rec.Owned))
	}
	return res, err
}

// checkRecord rejects a record that Apply must not let near the partition.
func checkRecord(rec store.Record) error {
	switch rec.Kind {
	case store.KindStake:
		if rec.Owner < 0 || rec.Owned < 0 {
			return fmt.Errorf("stake (%d,%d) names a negative company id", rec.Owner, rec.Owned)
		}
		if !rec.Remove && !(rec.Weight > 0 && rec.Weight <= 1) {
			return fmt.Errorf("stake (%d,%d) weight %g outside (0,1]", rec.Owner, rec.Owned, rec.Weight)
		}
	case store.KindCrossIn:
		if rec.Owned < 0 {
			return fmt.Errorf("cross-in names a negative company id %d", rec.Owned)
		}
		if rec.Delta != 1 && rec.Delta != -1 {
			return fmt.Errorf("cross-in delta %d is not ±1", rec.Delta)
		}
	case store.KindMark:
	default:
		return fmt.Errorf("unknown record kind %d", rec.Kind)
	}
	return nil
}

// mutate applies a checked record to the partition. Caller holds s.mu.
func (s *Site) mutate(rec store.Record) (UpdateResult, error) {
	switch rec.Kind {
	case store.KindStake:
		sr, err := s.part.ApplyStake(graph.NodeID(rec.Owner), graph.NodeID(rec.Owned), rec.Weight, rec.Remove)
		return UpdateResult{Stored: sr.Stored, EdgeCreated: sr.EdgeCreated, EdgeRemoved: sr.EdgeRemoved,
			Cross: sr.Cross, Changed: sr.Changed}, err
	case store.KindCrossIn:
		acted, changed := s.part.AdjustCrossIn(graph.NodeID(rec.Owned), int(rec.Delta))
		return UpdateResult{Stored: acted, Changed: changed}, nil
	}
	return UpdateResult{Stored: true, Changed: true}, nil // a mark
}

// ApplyEdgeUpdate applies the edge half of up: Apply of its stake record.
// Only the owner's home site stores it.
func (s *Site) ApplyEdgeUpdate(up StakeUpdate) (UpdateResult, error) { return s.Apply(up.record()) }

// ApplyUpdate routes one stake update to the sites it concerns, found in the
// directory NewCoordinator built from the sites' member lists: the stake
// record goes to the owner's home site, and if a cross-partition edge
// appeared or disappeared there, the cross-in record goes to the owned
// company's home site. No other site is contacted. Sites whose data actually
// changed drop their cached partial answers; a no-op update (re-merging an
// identical stake, divesting nothing) invalidates nothing anywhere.
//
// An owner or owned company no site stores fails the update before any
// site is contacted. A home site that does not store its record disagrees
// with the directory, which is an error too — except a divestment of a
// stake the owner does not hold, which is "not found". ctx bounds the whole
// routing. A failure between the two records can leave the edge applied but
// the in-node bookkeeping not yet adjusted.
func (c *Coordinator) ApplyUpdate(ctx context.Context, up StakeUpdate) error {
	c.ev.Emit(flight.Update, -1, 0, int64(up.Owner), int64(up.Owned))
	owner, err := c.home(up.Owner)
	if err != nil {
		return err
	}
	owned, err := c.home(up.Owned)
	if err != nil {
		return err
	}
	stake := up.record()
	res, err := c.send(ctx, owner, stake)
	if err != nil {
		return err
	}
	if !res.Stored {
		if up.Remove {
			return fmt.Errorf("dist: stake (%d,%d) not found", up.Owner, up.Owned)
		}
		return fmt.Errorf("dist: site %d did not store the stake of company %d, which the directory homes there",
			owner.SiteID(), up.Owner)
	}
	if !res.Cross || !(res.EdgeCreated || res.EdgeRemoved) {
		return nil
	}
	delta := int32(1)
	if res.EdgeRemoved {
		delta = -1
	}
	in, err := c.send(ctx, owned, store.Record{Kind: store.KindCrossIn, Owned: stake.Owned, Delta: delta})
	if err != nil {
		return err
	}
	if !in.Stored {
		return fmt.Errorf("dist: site %d did not store the cross-in of company %d, which the directory homes there",
			owned.SiteID(), up.Owned)
	}
	return nil
}

// home returns the client of company v's home site.
func (c *Coordinator) home(v graph.NodeID) (SiteClient, error) {
	h := int32(0)
	if v >= 0 && int(v) < len(c.homes) {
		h = c.homes[v]
	}
	switch {
	case h == homeConflict:
		return nil, fmt.Errorf("dist: company %d is stored at two sites", v)
	case h == 0:
		return nil, fmt.Errorf("dist: no site stores company %d", v)
	}
	return c.clients[h-1], nil
}

// send applies rec at one site, logging a failure.
func (c *Coordinator) send(ctx context.Context, cl SiteClient, rec store.Record) (UpdateResult, error) {
	res, err := cl.Apply(ctx, rec)
	if err != nil {
		c.ev.Log().Warn("update failed", "kind", rec.Kind, "owner", rec.Owner, "owned", rec.Owned,
			"site", cl.SiteID(), "err", err)
	}
	return res, err
}
