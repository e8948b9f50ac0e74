package main

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/xmltree"
)

// reopenOp is one save → open → warm → first answer cycle with its parts
// timed separately.
type reopenOp struct {
	save, open, firstQuery time.Duration
	fileBytes              int64
}

func (o reopenOp) total() time.Duration { return o.save + o.open + o.firstQuery }

// reopenProbe is the first query a reopened database answers: a planted
// pair, so the answer exercises restored postings and the node store.
func reopenProbe() request { return termsRequest([]string{"sparsea", "sparseb"}, 0, false) }

// reopenCycle snapshots src to a fresh path, opens and warms the
// snapshot, serves it, and checks its first answer against want.
func reopenCycle(src *shard.DB, path string, probe *request, want digest) (reopenOp, error) {
	var op reopenOp
	defer os.Remove(path)
	t0 := time.Now()
	if err := src.SaveFile(path); err != nil {
		return op, err
	}
	t1 := time.Now()
	d, err := shard.OpenFile(path)
	if err != nil {
		return op, err
	}
	d.Warm()
	t2 := time.Now()
	st := &stack{backends: []*shard.DB{d}}
	defer st.close()
	if err := st.serve(server.New(d)); err != nil {
		return op, err
	}
	c, err := dial(st.addr)
	if err != nil {
		return op, err
	}
	defer c.close()
	status, body, err := c.do(probe.raw)
	t3 := time.Now()
	if err != nil {
		return op, err
	}
	if status != want.status || crc32.ChecksumIEEE(body) != want.hash {
		return op, fmt.Errorf("reopened database answered differently: status %d body %.120s", status, body)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return op, err
	}
	op = reopenOp{save: t1.Sub(t0), open: t2.Sub(t1), firstQuery: t3.Sub(t2), fileBytes: fi.Size()}
	return op, nil
}

// xmlBytes is the size of the corpus as XML text, the "user data" the
// snapshot's size is compared with.
func xmlBytes(d *shard.DB) int64 {
	var n int64
	for i := 0; i < d.Shards(); i++ {
		for _, doc := range d.Segment(i).Store().Docs() {
			n += int64(len(xmltree.XMLString(doc.Root)))
		}
	}
	return n
}

// runReopen times reopen cycles against the source stack for dur. The
// first cycle is discarded: it pays for the page cache and the heap
// growing to hold two copies of the corpus.
func runReopen(st *stack, outDir string, dur time.Duration) (phaseResult, []reopenOp, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return phaseResult{}, nil, err
	}
	probe := reopenProbe()
	c, err := dial(st.addr)
	if err != nil {
		return phaseResult{}, nil, err
	}
	digests, bad, err := learnDigests(c, []request{probe})
	c.close()
	if err != nil {
		return phaseResult{}, nil, err
	}
	if bad > 0 {
		return phaseResult{}, nil, fmt.Errorf("reopen probe violates its planted invariant")
	}
	var res phaseResult
	var ops []reopenOp
	start := time.Now()
	for i := 0; ; i++ {
		if i > 0 && time.Since(start) >= dur {
			break
		}
		path := filepath.Join(outDir, fmt.Sprintf("reopen-%d-%d.tix", os.Getpid(), i))
		op, err := reopenCycle(st.backends[0], path, &probe, digests[0])
		if i == 0 {
			if err != nil {
				return res, nil, err
			}
			start = time.Now()
			continue
		}
		res.attempted++
		if err != nil {
			res.failed++
			if res.firstFail == "" {
				res.firstFail = err.Error()
			}
			continue
		}
		ops = append(ops, op)
		res.samples = append(res.samples, sample{end: int64(time.Since(start)), lat: int64(op.total())})
	}
	res.elapsed = time.Since(start)
	return res, ops, nil
}
