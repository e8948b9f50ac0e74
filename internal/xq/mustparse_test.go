package xq

import "repro/internal/xmltree"

// mustParse parses a literal test document, panicking on error — the
// test-only replacement for the removed xmltree.MustParse. Production
// load paths always report malformed XML as returned errors.
func mustParse(src string) *xmltree.Node {
	n, err := xmltree.ParseString(src)
	if err != nil {
		panic(err)
	}
	return n
}

// EvalString parses and evaluates a query.
func (e *Engine) EvalString(src string) ([]Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return e.Eval(q)
}
