package main

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"basevictim/internal/trace"
)

// runCLI invokes run with captured stdout/stderr.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(context.Background(), args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestInvalidEnumFlags: each enumerated flag, and an LLC geometry with
// no power-of-two set count, is a usage error before any simulation,
// with the valid alternatives on stderr.
func TestInvalidEnumFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want []string // substrings that must appear on stderr
	}{
		{"org", []string{"-org", "zcache"}, []string{`unknown org "zcache"`, "basevictim", "twotag", "vsc2x", "uncompressed"}},
		{"policy", []string{"-policy", "plru"}, []string{`unknown policy "plru"`, "lru", "nru", "drrip"}},
		{"victim", []string{"-victim", "fifo"}, []string{`unknown victim selector "fifo"`, "ecm", "sizelru"}},
		{"check", []string{"-check", "paranoid"}, []string{`unknown level "paranoid"`, "off", "cheap", "full"}},
		{"inject", []string{"-inject", "bitrot@5"}, []string{"-inject", "bitrot", "tag"}},
		{"inject-at", []string{"-inject", "tag@zero"}, []string{"-inject", "tag@zero"}},
		{"ways", []string{"-ways", "3"}, []string{"size 2097152 / 3 ways", "power-of-two set count"}},
		{"size", []string{"-size", "3"}, []string{"size 3145728 / 16 ways", "power-of-two set count"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(tc.args...)
			if code != 2 {
				t.Fatalf("exit code %d, want 2 (stderr: %s)", code, stderr)
			}
			for _, w := range tc.want {
				if !strings.Contains(stderr, w) {
					t.Fatalf("stderr %q missing %q", stderr, w)
				}
			}
		})
	}
}

// TestListExitsZero: -list prints the suite without running anything.
func TestListExitsZero(t *testing.T) {
	code, stdout, _ := runCLI("-list")
	if code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	if !strings.Contains(stdout, "mcf.p1") {
		t.Fatalf("trace listing missing mcf.p1:\n%s", stdout)
	}
}

// TestUnknownTrace: a bad -trace fails cleanly.
func TestUnknownTrace(t *testing.T) {
	code, _, stderr := runCLI("-trace", "nosuch.p9")
	if code != 1 || !strings.Contains(stderr, "nosuch.p9") {
		t.Fatalf("code=%d stderr=%q, want 1 naming the trace", code, stderr)
	}
}

// TestHappyPathWithCheck: a tiny checked run completes with exit 0 and
// prints the result block.
func TestHappyPathWithCheck(t *testing.T) {
	code, stdout, stderr := runCLI("-trace", "mcf.p1", "-ins", "20000", "-check", "cheap")
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "IPC:") || !strings.Contains(stdout, "org=basevictim") {
		t.Fatalf("result block missing from stdout:\n%s", stdout)
	}
}

// TestInjectedFaultExitsThree: with injection on and checking on, the
// violation reaches stderr and maps to its dedicated exit code (3),
// distinct from ordinary failures.
func TestInjectedFaultExitsThree(t *testing.T) {
	code, _, stderr := runCLI("-trace", "mcf.p1", "-ins", "60000",
		"-check", "full", "-inject", "size@10000", "-seed", "3")
	if code != 3 {
		t.Fatalf("exit code %d, want 3 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "violation") {
		t.Fatalf("stderr does not describe the violation:\n%s", stderr)
	}
}

// TestTimeoutExitsFour: an unmeetable -timeout aborts the run with the
// cancellation exit code and a message naming the deadline.
func TestTimeoutExitsFour(t *testing.T) {
	code, _, stderr := runCLI("-trace", "mcf.p1", "-ins", "5000000", "-timeout", "1ns")
	if code != 4 {
		t.Fatalf("exit code %d, want 4 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "deadline exceeded") {
		t.Fatalf("stderr does not name the deadline:\n%s", stderr)
	}
}

// TestCancelledContextExitsFour: a signal that already landed stops the
// run before it starts, with the interrupt named.
func TestCancelledContextExitsFour(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errb bytes.Buffer
	code := run(ctx, []string{"-trace", "mcf.p1", "-ins", "100000"}, &out, &errb)
	if code != 4 {
		t.Fatalf("exit code %d, want 4 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "interrupted") {
		t.Fatalf("stderr does not name the interrupt:\n%s", errb.String())
	}
}

// writeTrace records a short valid .bvtr file and returns its path.
func writeTrace(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.bvtr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := w.Write(trace.Op{Kind: trace.Load, Addr: uint64(i * 64)}); err != nil {
			t.Fatal(err)
		}
		if err := w.Write(trace.Op{Kind: trace.Exec}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReplayHappyPath: a recorded trace replays cleanly.
func TestReplayHappyPath(t *testing.T) {
	path := writeTrace(t, 2000)
	code, stdout, stderr := runCLI("-replay", path, "-values", "mcf.p1", "-ins", "4000")
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "IPC:") {
		t.Fatalf("result block missing:\n%s", stdout)
	}
}

// TestReplayTruncatedFile: chopping bytes off a valid trace surfaces a
// descriptive ErrBadTrace through -replay — exit 1, no panic.
func TestReplayTruncatedFile(t *testing.T) {
	path := writeTrace(t, 2000)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The file ends Load(header+2-byte varint), Exec(1 byte): dropping
	// two bytes cuts the final Load's address varint in half.
	chopped := filepath.Join(t.TempDir(), "chopped.bvtr")
	if err := os.WriteFile(chopped, data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCLI("-replay", chopped, "-values", "mcf.p1", "-ins", "1000000")
	if code != 1 {
		t.Fatalf("exit code %d, want 1 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "bad trace data") {
		t.Fatalf("stderr does not describe the corruption:\n%s", stderr)
	}
}

// TestReplayGarbageFile: a non-trace file fails at the header with the
// bad magic named.
func TestReplayGarbageFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.bvtr")
	if err := os.WriteFile(path, []byte("this is not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCLI("-replay", path)
	if code != 1 || !strings.Contains(stderr, "bad magic") {
		t.Fatalf("code=%d stderr=%q, want 1 with bad-magic detail", code, stderr)
	}
}

// TestReplayMissingFile: a nonexistent path fails cleanly.
func TestReplayMissingFile(t *testing.T) {
	code, _, stderr := runCLI("-replay", filepath.Join(t.TempDir(), "nope.bvtr"))
	if code != 1 || !strings.Contains(stderr, "nope.bvtr") {
		t.Fatalf("code=%d stderr=%q, want 1 naming the file", code, stderr)
	}
}

// TestObsListenBindFailureExitsFive: a dead -obs-listen address is a
// bind failure (exit 5), distinct from a simulation failure (exit 1).
func TestObsListenBindFailureExitsFive(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen: %v", err)
	}
	defer ln.Close()
	code, _, stderr := runCLI("-obs-listen", ln.Addr().String(), "-ins", "1000")
	if code != 5 {
		t.Fatalf("exit code %d, want 5 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "cannot bind/serve") {
		t.Fatalf("stderr does not name the bind failure:\n%s", stderr)
	}
}
