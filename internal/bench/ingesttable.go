package bench

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/db"
)

// ingestParts bounds the document count of the ingest experiment: the
// corpus is split into up to this many single-ingest documents so the
// docs/sec figures describe per-document mutation cost, not one giant
// parse.
const ingestParts = 200

// IngestTable measures the live-mutation path (see DESIGN.md §11) rather
// than a query workload: per-document Add throughput into an initially
// empty database, the same ingest run with a term search looping
// concurrently against the growing index (every Add publishes a fresh
// snapshot the search must see), and the cost of folding the resulting
// memtable + segment stack back into one flat index. Each row
// self-checks: the grown database must answer the probe query exactly
// like a bulk-loaded one.
func (c *Corpus) IngestTable() (*Table, error) {
	parts := ingestParts
	if a := c.Cfg.Articles; a < parts {
		parts = a
	}
	probeA, probeB, err := c.PairTerms(c.freqs()[0])
	if err != nil {
		return nil, err
	}
	probe := []string{probeA, probeB}

	// The oracle: bulk-load the same split (plain store appends, one
	// from-scratch index build) and remember the probe answer.
	roots, err := c.SplitParts(parts)
	if err != nil {
		return nil, err
	}
	bulk := db.New(db.Options{})
	for i, r := range roots {
		if err := bulk.LoadTree(fmt.Sprintf("part%03d.xml", i), r); err != nil {
			return nil, err
		}
	}
	want, err := db.SearchTerms(bulk.Index(), probe, db.TermSearchOptions{}, nil, nil)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "ingest",
		Caption: "Live ingestion: per-document adds, adds under concurrent search, compaction",
		Columns: []Method{"Ingest"},
	}

	// Row 1: sequential adds, nothing else running.
	start := time.Now()
	grown, err := c.ingestDB(parts, nil)
	if err != nil {
		return nil, err
	}
	addSecs := time.Since(start).Seconds()
	if err := c.checkProbe(grown, probe, len(want)); err != nil {
		return nil, fmt.Errorf("bench: ingest row add: %w", err)
	}
	t.Rows = append(t.Rows, Row{
		Label: "add",
		Extra: fmt.Sprintf("docs=%d docs/s=%.0f", parts, rate(parts, addSecs)),
		Cells: []Cell{{Method: "Ingest", M: Measurement{Method: "Ingest", Seconds: addSecs, Results: parts}}},
	})

	// Row 2: the same adds with a reader hammering the snapshot chain.
	var (
		searches int
		qErr     error
		wg       sync.WaitGroup
		stop     = make(chan struct{})
	)
	start = time.Now()
	live, err := c.ingestDB(1, func(d *db.DB) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.SearchTerms(d.Index(), probe, db.TermSearchOptions{}, nil, nil); err != nil {
					qErr = err
					return
				}
				searches++
			}
		}()
	})
	if err == nil {
		err = c.ingestInto(live, 1, parts)
	}
	close(stop)
	wg.Wait()
	mixedSecs := time.Since(start).Seconds()
	if err != nil {
		return nil, err
	}
	if qErr != nil {
		return nil, fmt.Errorf("bench: concurrent search during ingest: %w", qErr)
	}
	if err := c.checkProbe(live, probe, len(want)); err != nil {
		return nil, fmt.Errorf("bench: ingest row add+query: %w", err)
	}
	t.Rows = append(t.Rows, Row{
		Label: "add+query",
		Extra: fmt.Sprintf("docs=%d docs/s=%.0f searches=%d", parts, rate(parts, mixedSecs), searches),
		Cells: []Cell{{Method: "Ingest", M: Measurement{Method: "Ingest", Seconds: mixedSecs, Results: searches}}},
	})

	// Row 3: fold the memtable + segment stack back into one flat index.
	start = time.Now()
	grown.CompactNow()
	compactSecs := time.Since(start).Seconds()
	if err := c.checkProbe(grown, probe, len(want)); err != nil {
		return nil, fmt.Errorf("bench: ingest row compact: %w", err)
	}
	t.Rows = append(t.Rows, Row{
		Label: "compact",
		Extra: fmt.Sprintf("generation=%d", grown.Generation()),
		Cells: []Cell{{Method: "Ingest", M: Measurement{Method: "Ingest", Seconds: compactSecs, Results: parts}}},
	})
	return t, nil
}

// ingestDB builds a database holding the first n of parts split documents
// via the live Add path. onEmpty, when non-nil, runs after the empty
// database is warmed and before the first Add (the hook the concurrent
// reader starts from).
func (c *Corpus) ingestDB(n int, onEmpty func(*db.DB)) (*db.DB, error) {
	d := db.New(db.Options{})
	d.Warm()
	if onEmpty != nil {
		onEmpty(d)
	}
	if err := c.ingestInto(d, 0, n); err != nil {
		return nil, err
	}
	return d, nil
}

// ingestInto adds split documents [lo, hi) to d. The split is recomputed
// per call: stores take ownership of loaded trees, so two databases must
// never share one.
func (c *Corpus) ingestInto(d *db.DB, lo, hi int) error {
	parts := ingestParts
	if a := c.Cfg.Articles; a < parts {
		parts = a
	}
	roots, err := c.SplitParts(parts)
	if err != nil {
		return err
	}
	for i := lo; i < hi; i++ {
		if err := d.AddTree(fmt.Sprintf("part%03d.xml", i), roots[i]); err != nil {
			return err
		}
	}
	return nil
}

// checkProbe asserts the grown database answers the probe query with the
// bulk-loaded oracle's result count.
func (c *Corpus) checkProbe(d *db.DB, probe []string, want int) error {
	got, err := db.SearchTerms(d.Index(), probe, db.TermSearchOptions{}, nil, nil)
	if err != nil {
		return err
	}
	if len(got) != want {
		return fmt.Errorf("probe %v returned %d results, bulk oracle %d", probe, len(got), want)
	}
	return nil
}

func rate(n int, secs float64) float64 {
	if secs <= 0 {
		return 0
	}
	return float64(n) / secs
}
