package exec

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/storage"
	"repro/internal/synth"
	"repro/internal/tokenize"
)

// The planted corpus for the cancellation acceptance test: one control term
// with 150k occurrences, big enough that a TermJoin over it is genuinely
// mid-flight when the test cancels. Built once and shared (read-only).
var (
	plantedOnce  sync.Once
	plantedIdx   *index.Index
	plantedErr   error
	plantedFreq  = 150000
	plantedTerm  = "needle"
	plantedPosts int
)

func plantedIndex(t testing.TB) *index.Index {
	t.Helper()
	plantedOnce.Do(func() {
		cfg := synth.DefaultConfig()
		cfg.Articles = 400 // ~345k word slots, enough for the planted load
		cfg.Seed = 7
		cfg.ControlTerms = map[string]int{plantedTerm: plantedFreq}
		c, err := synth.Generate(cfg)
		if err != nil {
			plantedErr = err
			return
		}
		s := storage.NewStore()
		if _, err := s.AddTree("corpus.xml", c.Root); err != nil {
			plantedErr = err
			return
		}
		plantedIdx = index.Build(s, tokenize.New())
		plantedPosts = len(plantedIdx.List(plantedTerm).Materialize())
	})
	if plantedErr != nil {
		t.Fatal(plantedErr)
	}
	return plantedIdx
}

func TestNilGuardIsNoop(t *testing.T) {
	var g *Guard
	if err := g.Tick(); err != nil {
		t.Errorf("Tick on nil guard: %v", err)
	}
	if err := g.Check(); err != nil {
		t.Errorf("Check on nil guard: %v", err)
	}
	if err := g.NoteEmit(); err != nil {
		t.Errorf("NoteEmit on nil guard: %v", err)
	}
	if g.Err() != nil {
		t.Error("nil guard should report nothing")
	}
	if acc := g.Attach(storage.NewAccessor(storage.NewStore())); acc.Budget != nil {
		t.Error("nil guard must not attach a budget")
	}
}

func TestNewGuardNoopForUnlimited(t *testing.T) {
	if g := NewGuard(context.Background(), Limits{}); g != nil {
		t.Error("background context + zero limits should yield the nil guard")
	}
	if g := NewGuard(nil, Limits{}); g != nil {
		t.Error("nil context + zero limits should yield the nil guard")
	}
	if g := NewGuard(nil, Limits{MaxResults: 1}); g == nil {
		t.Error("a real budget needs a real guard")
	}
}

// TestTermJoinCancelBoundedAccesses is the tentpole acceptance test:
// canceling mid-flight stops the scan within one cooperative check
// interval, measured in store accesses performed after the cancel.
func TestTermJoinCancelBoundedAccesses(t *testing.T) {
	idx := plantedIndex(t)
	if plantedPosts < plantedFreq/2 {
		t.Fatalf("planted corpus too small: %d postings for %q", plantedPosts, plantedTerm)
	}
	const checkEvery = 64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := NewGuard(ctx, Limits{CheckEvery: checkEvery})
	acc := g.NewAccessor(idx.Store())
	tj := &TermJoin{
		Index: idx,
		Acc:   acc,
		Query: TermQuery{Terms: []string{plantedTerm}, Scorer: DefaultScorer{}},
		Guard: g,
	}
	var emitted int
	var accessesAtCancel int64
	err := tj.Run(func(ScoredNode) {
		emitted++
		if emitted == 5 {
			accessesAtCancel = acc.Stats.NodeReads
			cancel()
		}
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if emitted < 5 {
		t.Fatalf("only %d emissions before cancel point", emitted)
	}
	post := acc.Stats.NodeReads - accessesAtCancel
	// One check interval is checkEvery ticks; each tick performs a small
	// bounded number of store accesses (an ancestor walk of tree depth).
	// A run that ignored the cancel would scan the remaining ~150k
	// postings; a cooperative one stops orders of magnitude earlier.
	bound := int64(checkEvery * 32)
	if post > bound {
		t.Errorf("performed %d store accesses after cancel, want <= %d", post, bound)
	}
	if post >= int64(plantedPosts)/10 {
		t.Errorf("post-cancel accesses %d not small next to %d postings", post, plantedPosts)
	}
}

func TestTermJoinDeadline(t *testing.T) {
	idx := plantedIndex(t)
	g := NewGuard(context.Background(), Limits{Timeout: time.Nanosecond})
	tj := &TermJoin{
		Index: idx,
		Acc:   g.NewAccessor(idx.Store()),
		Query: TermQuery{Terms: []string{plantedTerm}, Scorer: DefaultScorer{}},
		Guard: g,
	}
	_, err := Collect(tj.Run)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
}

func TestTermJoinContextDeadline(t *testing.T) {
	idx := plantedIndex(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // let the deadline pass
	g := NewGuard(ctx, Limits{})
	tj := &TermJoin{
		Index: idx,
		Acc:   g.NewAccessor(idx.Store()),
		Query: TermQuery{Terms: []string{plantedTerm}, Scorer: DefaultScorer{}},
		Guard: g,
	}
	_, err := Collect(tj.Run)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
}

func TestTermJoinMaxResults(t *testing.T) {
	idx := plantedIndex(t)
	const max = 7
	g := NewGuard(context.Background(), Limits{MaxResults: max})
	tj := &TermJoin{
		Index: idx,
		Acc:   g.NewAccessor(idx.Store()),
		Query: TermQuery{Terms: []string{plantedTerm}, Scorer: DefaultScorer{}},
		Guard: g,
	}
	var emitted int
	err := tj.Run(func(ScoredNode) { emitted++ })
	if !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("err = %v, want ErrLimitExceeded", err)
	}
	var le *LimitError
	if !errors.As(err, &le) || le.Resource != "results" || le.Limit != max {
		t.Fatalf("err = %#v, want *LimitError{results, %d}", err, max)
	}
	// NoteEmit reserves before emitting: exactly max results delivered.
	if emitted != max {
		t.Errorf("emitted %d results, want exactly %d", emitted, max)
	}
}

func TestTermJoinMaxAccesses(t *testing.T) {
	idx := plantedIndex(t)
	const max = 50
	g := NewGuard(context.Background(), Limits{MaxAccesses: max, CheckEvery: 1})
	acc := g.NewAccessor(idx.Store())
	tj := &TermJoin{
		Index: idx,
		Acc:   acc,
		Query: TermQuery{Terms: []string{plantedTerm}, Scorer: DefaultScorer{}},
		Guard: g,
	}
	_, err := Collect(tj.Run)
	if !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("err = %v, want ErrLimitExceeded", err)
	}
	var le *LimitError
	if !errors.As(err, &le) || le.Resource != "store accesses" {
		t.Fatalf("err = %#v, want *LimitError{store accesses}", err)
	}
	// With CheckEvery 1 the overshoot past the budget is at most the
	// handful of accesses one tick performs.
	if acc.Stats.NodeReads > max+64 {
		t.Errorf("performed %d accesses against a budget of %d", acc.Stats.NodeReads, max)
	}
}

// TestGuardLatchIsSticky: after the first failure every subsequent call
// reports the same error, even between full checks.
func TestGuardLatchIsSticky(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := NewGuard(ctx, Limits{CheckEvery: 1000000})
	cancel()
	if err := g.Check(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Check = %v, want ErrCanceled", err)
	}
	// Tick between check intervals still sees the latched failure.
	if err := g.Tick(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Tick after latch = %v, want ErrCanceled", err)
	}
	if err := g.Err(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Err after latch = %v, want ErrCanceled", err)
	}
}

func TestStackPickGuarded(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := NewGuard(ctx, Limits{CheckEvery: 1})
	nodes := []PickNode{
		{Ord: 0, Start: 0, End: 10, Level: 0, Score: 2.0, HasScore: true},
		{Ord: 1, Start: 1, End: 4, Level: 1, Score: 1.0, HasScore: true},
	}
	if _, err := new(PickArena).Pick(nodes, DefaultPickFuncs(0.5), g); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestGuardCadenceMatchesModulo holds Tick and TickN to the interval rule
// over long mixed runs: after a cancel, the first call to fail is exactly
// the first whose ticks cross a multiple of CheckEvery, however many
// multiples earlier calls crossed and whatever the interval.
func TestGuardCadenceMatchesModulo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for run := 0; run < 200; run++ {
		every := int64(1 + rng.Intn(40))
		ctx, cancel := context.WithCancel(context.Background())
		g := NewGuard(ctx, Limits{CheckEvery: int(every)})
		cancelAt := rng.Intn(300)
		var ticks int64
		for call := 0; ; call++ {
			if call == cancelAt {
				cancel()
			}
			n := int64(1)
			var err error
			if rng.Intn(2) == 0 {
				err = g.Tick()
			} else {
				n = int64(rng.Intn(3 * int(every)))
				err = g.TickN(int(n))
			}
			crossed := n > 0 && ticks/every != (ticks+n)/every
			ticks += n
			if want := call >= cancelAt && crossed; (err != nil) != want {
				t.Fatalf("run %d (every %d, cancel at call %d): call %d to tick %d returned %v, want a failure: %v",
					run, every, cancelAt, call, ticks, err, want)
			}
			if err != nil {
				cancel()
				break
			}
		}
	}
}
