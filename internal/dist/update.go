package dist

import (
	"context"
	"fmt"
	"sync"

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

// record is the update as the stake record both its home sites apply.
func (up StakeUpdate) record() store.Record {
	return store.Record{Kind: store.KindStake, Owner: int32(up.Owner), Owned: int32(up.Owned),
		Weight: up.Weight, Remove: up.Remove}
}

// UpdateResult reports what one applied record did at a site.
type UpdateResult struct {
	// Stored reports that the record was this site's to apply: the site
	// holds the stake's owner or its owned company.
	Stored bool
	// Changed reports that the site's data actually moved. A stored record
	// can still be a no-op — divesting a stake that does not exist,
	// re-merging a stake to its current label, recording an owner already
	// recorded — and then the site's epoch and caches stay put.
	Changed bool
}

// lostEpoch is the epoch of a site whose WAL append failed: its state is
// ahead of its log, so the epoch leaves the range of sequence numbers a
// reopened log can assign, and the site serves nothing at it (see Apply).
const lostEpoch = 1 << 62

// Apply is the one write path: every change to the site's partition — a
// live update or a WAL record replayed at recovery — is a stake record
// applied here, and the site applies the half it holds (see
// partition.ApplyStake).
//
// The record is checked before the partition is touched, so a rejected
// record changes nothing. A record that changes the site's state is logged
// and moves the epoch to its sequence number; a record that changes nothing
// is neither logged nor moves the epoch. A record without a Seq is a new
// write, appended to the store, or numbered by the next epoch on a site
// without a store. A record with a Seq comes from WAL replay and is already
// logged.
//
// A failed append leaves the partition holding a change the log lacks,
// which a restart would lose and a later record could renumber. The site
// then moves to lostEpoch and refuses every later evaluation and update
// with the append's error, so no reader ever holds a copy of the lost
// state; a restart recovers what the log holds.
func (s *Site) Apply(rec store.Record) (UpdateResult, error) {
	if err := checkRecord(rec); err != nil {
		return UpdateResult{}, fmt.Errorf("dist: site %d: %w", s.part.ID, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.logErr != nil {
		return UpdateResult{}, s.logErr
	}
	sr, err := s.part.ApplyStake(graph.NodeID(rec.Owner), graph.NodeID(rec.Owned), rec.Weight, rec.Remove)
	res := UpdateResult{Stored: sr.Stored, Changed: sr.Changed}
	if err != nil {
		return res, fmt.Errorf("dist: site %d: %w", s.part.ID, err)
	}
	if !res.Changed {
		return res, nil
	}
	s.cache = nil
	seq := rec.Seq
	switch {
	case seq != 0:
	case s.store == nil:
		seq = s.epoch.Load() + 1
	default:
		if seq, err = s.store.Append(rec); err != nil {
			s.logErr = fmt.Errorf("dist: site %d wal append: %w", s.part.ID, err)
			s.epoch.Store(lostEpoch)
			return res, s.logErr
		}
	}
	s.epoch.Store(seq)
	if rec.Seq == 0 {
		s.ev.Emit(flight.Update, int32(s.part.ID), 0, int64(rec.Owner), int64(rec.Owned))
	}
	return res, nil
}

// checkRecord rejects a record that Apply must not let near the partition.
func checkRecord(rec store.Record) error {
	switch {
	case rec.Kind != store.KindStake:
		return fmt.Errorf("unknown record kind %d", rec.Kind)
	case rec.Owner < 0 || rec.Owned < 0:
		return fmt.Errorf("stake (%d,%d) names a negative company id", rec.Owner, rec.Owned)
	case !rec.Remove && !(rec.Weight > 0 && rec.Weight <= 1):
		return fmt.Errorf("stake (%d,%d) weight %g outside (0,1]", rec.Owner, rec.Owned, rec.Weight)
	}
	return nil
}

// ApplyEdgeUpdate applies up's stake record at this site: Apply, which
// applies the half of it the site holds.
func (s *Site) ApplyEdgeUpdate(up StakeUpdate) (UpdateResult, error) { return s.Apply(up.record()) }

// ApplyUpdate routes one stake update to the sites it concerns, found in the
// directory NewCoordinator built from the sites' member lists: the stake
// record goes to the owner's home site and, when that is another site, to
// the owned company's home site, both at once. Each applies the half it
// holds: the owner's home the edge, the owned company's home its set of
// foreign owners. No other site is contacted. Sites whose data actually
// changed drop their cached partial answers; a no-op update (re-merging an
// identical stake, divesting nothing) invalidates nothing anywhere.
//
// An owner or owned company no site stores fails the update before any
// site is contacted. A home site that holds neither company disagrees with
// the directory, which is an error, and a divestment the owner's home finds
// nothing to remove is "not found". ctx bounds the whole routing.
//
// Updates serialize on c.updates: the two halves of one update land at two
// sites, and without an order an add and a remove of the same stake could
// land in opposite orders there, leaving an edge whose owned company is no
// in-node. A failure at one home site while the other applied its half
// leaves the edge and the owner set out of step, and fails the update.
func (c *Coordinator) ApplyUpdate(ctx context.Context, up StakeUpdate) error {
	c.ev.Emit(flight.Update, -1, 0, int64(up.Owner), int64(up.Owned))
	sites := make([]int, 0, 2) // the owner's home, then the owned company's if another
	for _, v := range []graph.NodeID{up.Owner, up.Owned} {
		h := int32(0)
		if v >= 0 && int(v) < len(c.homes) {
			h = c.homes[v]
		}
		switch {
		case h == homeConflict:
			return fmt.Errorf("dist: company %d is stored at two sites", v)
		case h == 0:
			return fmt.Errorf("dist: no site stores company %d", v)
		case len(sites) == 0 || sites[0] != int(h-1):
			sites = append(sites, int(h-1))
		}
	}
	rec := up.record()
	c.updates.Lock()
	defer c.updates.Unlock()
	var res [2]UpdateResult
	var errs [2]error
	var wg sync.WaitGroup
	for i, h := range sites[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i+1], errs[i+1] = c.send(ctx, c.clients[h], rec)
		}()
	}
	res[0], errs[0] = c.send(ctx, c.clients[sites[0]], rec)
	wg.Wait()
	for i, h := range sites {
		if errs[i] != nil {
			return errs[i]
		}
		if !res[i].Stored {
			return fmt.Errorf("dist: site %d holds neither company of stake (%d,%d), which the directory homes there",
				c.clients[h].SiteID(), up.Owner, up.Owned)
		}
	}
	if up.Remove && !res[0].Changed {
		return fmt.Errorf("dist: stake (%d,%d) not found", up.Owner, up.Owned)
	}
	return nil
}

// send applies rec at one site, logging a failure.
func (c *Coordinator) send(ctx context.Context, cl SiteClient, rec store.Record) (UpdateResult, error) {
	res, err := cl.Apply(ctx, rec)
	if err != nil {
		c.ev.Log().Warn("update failed", "owner", rec.Owner, "owned", rec.Owned, "remove", rec.Remove,
			"site", cl.SiteID(), "err", err)
	}
	return res, err
}
