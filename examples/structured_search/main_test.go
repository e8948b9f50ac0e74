package main

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// TestOutput pins the program's output byte for byte against
// testdata/output.txt. An Example's Output block cannot hold it: the
// printed query leaves a line holding only a tab, and comments lose
// trailing whitespace.
func TestOutput(t *testing.T) {
	want, err := os.ReadFile("testdata/output.txt")
	if err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	got := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		got <- b
	}()
	main()
	w.Close()
	if g := <-got; !bytes.Equal(g, want) {
		t.Errorf("output differs from testdata/output.txt:\n%s", g)
	}
}
