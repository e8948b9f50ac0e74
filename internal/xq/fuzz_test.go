package xq

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/exec"
)

// FuzzQuery drives the front end end to end — Parse, Compile, String,
// Eval — over the Fig. 1 fixture under a small budget. It must never panic
// or hang; a query Compile rejects must fail Eval with the same error; and
// a query Compile accepts must evaluate or stop on its guard.
func FuzzQuery(f *testing.F) {
	for _, src := range append(append([]string{}, validQueries...), rejectedQueries()...) {
		f.Add(src)
	}
	f.Add(`For $a in document("articles.xml")//article/descendant-or-self::* Score $a using ScoreFoo($a, {}, {})`)
	idx := fixtureIndex()
	limits := exec.Limits{Timeout: time.Second, MaxResults: 1 << 12, MaxAccesses: 1 << 14}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		p, compileErr := Compile(q, idx)
		if compileErr == nil {
			_ = p.String()
		}
		e := &Engine{Index: idx, Guard: exec.NewGuard(context.Background(), limits)}
		_, evalErr := e.Eval(q)
		switch {
		case compileErr != nil:
			if evalErr == nil || evalErr.Error() != compileErr.Error() {
				t.Fatalf("%q: Compile error %q, Eval error %v", src, compileErr, evalErr)
			}
		case evalErr != nil && !errors.Is(evalErr, exec.ErrLimitExceeded) && !errors.Is(evalErr, exec.ErrDeadlineExceeded):
			t.Fatalf("%q compiles, but Eval failed: %v", src, evalErr)
		}
	})
}
