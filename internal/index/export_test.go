package index

// FoldSealed runs the background fold synchronously: each sealed memtable
// becomes a segment of its own, and segments collapse only past
// MaxSegments. Under ManualCompact it is the one way to hold a folded extra
// segment beside a sealed memtable in the same snapshot.
func (l *Live) FoldSealed() {
	l.foldMu.Lock()
	defer l.foldMu.Unlock()
	l.fold(false)
}

// Layers reports how many extra segments and memtable runs a snapshot
// unions beyond its base segment.
func (idx *Index) Layers() (extra, mems int) { return len(idx.extra), len(idx.mems) }
