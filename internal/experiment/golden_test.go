package experiment

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites the registry golden instead of diffing:
//
//	go test ./internal/experiment -run TestGoldenEval -update
var update = flag.Bool("update", false, "rewrite testdata/golden_eval.txt")

// TestGoldenEval renders every registry entry at seed 7 and scale 16,
// framed as aapm-eval frames it, and compares the bytes with
// testdata/golden_eval.txt. Every entry prints only virtual time,
// power and counts, so the output is a function of seed, scale and
// repeats alone: the same bytes at any GOMAXPROCS or worker count.
// Not parallel: the render already fans out across the context's
// workers.
func TestGoldenEval(t *testing.T) {
	c, err := NewContext(Options{Seed: 7, ScaleDown: 16})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, e := range Registry() {
		res, err := e.Run(c)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		fmt.Fprintf(&buf, "==== %s ====\n", e.Name)
		if err := res.Print(&buf); err != nil {
			t.Fatal(err)
		}
		buf.WriteByte('\n')
	}
	path := filepath.Join("testdata", "golden_eval.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, buf.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/experiment -run TestGoldenEval -update` to create it)", err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	got, exp := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(got), len(exp)); i++ {
		g, e := "<missing>", "<missing>"
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			e = exp[i]
		}
		if g != e {
			t.Fatalf("aapm-eval output drifted from %s at line %d:\n  got  %s\n  want %s\n(re-run with -update only if the change is intentional)", path, i+1, g, e)
		}
	}
}
