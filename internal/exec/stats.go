package exec

import "repro/internal/storage"

func accStats(a *storage.Accessor) storage.AccessStats {
	if a == nil {
		return storage.AccessStats{}
	}
	return a.Stats
}

// AccessStats reports the store traffic of the last Run.
func (t *TermJoin) AccessStats() storage.AccessStats { return accStats(t.Acc) }

// AccessStats reports the store traffic of the last Run: the per-document
// joins of every document the bounds did not prune.
func (t *TopKTermJoin) AccessStats() storage.AccessStats { return accStats(t.acc) }

// AccessStats reports the store traffic of the last Run.
func (c *Comp1) AccessStats() storage.AccessStats { return accStats(c.Acc) }

// AccessStats reports the store traffic of the last Run.
func (c *Comp2) AccessStats() storage.AccessStats { return accStats(c.Acc) }

// AccessStats reports the store traffic of the last Run.
func (g *GenMeet) AccessStats() storage.AccessStats { return accStats(g.Acc) }

// AccessStats reports the store traffic of the last Run.
func (c *Comp3) AccessStats() storage.AccessStats { return accStats(c.Acc) }

// AccessStats is zero by construction: PhraseFinder verifies adjacency
// from word offsets during posting intersection and never reads the store.
func (p *PhraseFinder) AccessStats() storage.AccessStats { return storage.AccessStats{} }
