// Package golden compares test output byte for byte against files
// committed under a package's testdata directory.
//
// Goldens pin simulation results, so a change that moves them must say
// so: regenerate with
//
//	BV_UPDATE_GOLDEN=1 go test -run Golden ./internal/...
//
// only when the change is meant to alter results, and review the diff.
package golden

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"basevictim/internal/atomicio"
)

// updateEnv names the environment variable that makes Check rewrite
// goldens instead of comparing against them.
const updateEnv = "BV_UPDATE_GOLDEN"

// Check compares got with the golden file at path. With
// BV_UPDATE_GOLDEN set it writes got to path instead.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if os.Getenv(updateEnv) != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := atomicio.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	n, w, g := firstDiff(want, got)
	t.Errorf("%s: output differs from the golden at line %d\nwant: %s\n got: %s\n(%s=1 regenerates it, for a change meant to move results)",
		path, n, w, g, updateEnv)
}

// firstDiff returns the 1-based number of the first line where a and b
// differ, with that line from each.
func firstDiff(a, b []byte) (int, []byte, []byte) {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	i := 0
	for i < len(al) && i < len(bl) && bytes.Equal(al[i], bl[i]) {
		i++
	}
	var x, y []byte
	if i < len(al) {
		x = al[i]
	}
	if i < len(bl) {
		y = bl[i]
	}
	return i + 1, x, y
}
