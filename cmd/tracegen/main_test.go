package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"basevictim"
	"basevictim/internal/cliexit"
	"basevictim/internal/trace"
)

func runArgs(t *testing.T, ctx context.Context, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(ctx, args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestRoundTrip writes a trace file and reads it back: every op must
// equal the generator's, and -dump must count the same loads and
// stores.
func TestRoundTrip(t *testing.T) {
	const n = 10_000
	path := filepath.Join(t.TempDir(), "mcf.bvtr")
	code, out, errOut := runArgs(t, context.Background(), "-trace", "mcf.p1", "-n", fmt.Sprint(n), "-o", path)
	if code != cliexit.OK {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if !strings.Contains(out, fmt.Sprintf("wrote %d ops", n)) {
		t.Fatalf("stdout %q does not report %d ops", out, n)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := basevictim.TraceByName("mcf.p1")
	if err != nil {
		t.Fatal(err)
	}
	gen := tr.Stream()
	var loads, stores int
	for i := 0; i < n; i++ {
		want, ok := gen.Next()
		if !ok {
			t.Fatalf("generator ended after %d ops", i)
		}
		got, err := r.ReadOp()
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("op %d: file has %+v, generator %+v", i, got, want)
		}
		switch want.Kind {
		case trace.Load:
			loads++
		case trace.Store:
			stores++
		}
	}
	if op, err := r.ReadOp(); err != io.EOF {
		t.Fatalf("extra data after %d ops: %+v, %v", n, op, err)
	}

	code, out, errOut = runArgs(t, context.Background(), "-dump", path)
	if code != cliexit.OK {
		t.Fatalf("-dump exit %d, stderr %q", code, errOut)
	}
	want := fmt.Sprintf("%d ops (%d loads, %d stores,", n, loads, stores)
	if !strings.Contains(out, want) {
		t.Fatalf("-dump printed %q, want it to contain %q", out, want)
	}
}

// TestZeroOps writes a valid empty trace and reports no per-op ratio.
func TestZeroOps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.bvtr")
	code, out, errOut := runArgs(t, context.Background(), "-n", "0", "-o", path)
	if code != cliexit.OK {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if strings.Contains(out, "Inf") || strings.Contains(out, "NaN") {
		t.Fatalf("stdout %q reports a ratio over zero ops", out)
	}
	code, out, errOut = runArgs(t, context.Background(), "-dump", path)
	if code != cliexit.OK || !strings.Contains(out, ": 0 ops") {
		t.Fatalf("-dump of the empty trace: exit %d, stdout %q, stderr %q", code, out, errOut)
	}
}

func TestUnknownTrace(t *testing.T) {
	dir := t.TempDir()
	code, _, errOut := runArgs(t, context.Background(), "-trace", "nosuch.p9", "-o", filepath.Join(dir, "x.bvtr"))
	if code == cliexit.OK {
		t.Fatal("unknown trace exited 0")
	}
	if !strings.Contains(errOut, "nosuch.p9") {
		t.Fatalf("stderr %q does not name the trace", errOut)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("unknown trace left files behind: %v", entries)
	}
}

// TestCancelledContextExitsFour: a cancelled generation exits with the
// cancellation code and publishes no file.
func TestCancelledContextExitsFour(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dir := t.TempDir()
	code, _, errOut := runArgs(t, ctx, "-o", filepath.Join(dir, "x.bvtr"))
	if code != cliexit.Cancelled {
		t.Fatalf("exit %d, want %d (stderr %q)", code, cliexit.Cancelled, errOut)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("cancelled run left files behind: %v", entries)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-nope"}, {"stray"}, {"-n", "many"}} {
		if code, _, _ := runArgs(t, context.Background(), args...); code != cliexit.Usage {
			t.Errorf("%q: exit %d, want %d", args, code, cliexit.Usage)
		}
	}
}
