package main

import (
	"crypto/sha256"
	"debug/buildinfo"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// pgoOf returns the profile a binary was built with ("" for none).
func pgoOf(bi *debug.BuildInfo) string {
	for _, s := range bi.Settings {
		if s.Key == "-pgo" {
			return s.Value
		}
	}
	return ""
}

// fileHash is a short SHA-256 of a file's contents.
func fileHash(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:8]), nil
}

// describePGO names a binary's profile and its hash.
func describePGO(bi *debug.BuildInfo) (string, error) {
	p := pgoOf(bi)
	if p == "" {
		return "none", nil
	}
	h, err := fileHash(p)
	if err != nil {
		return "", fmt.Errorf("hash PGO profile: %w", err)
	}
	return fmt.Sprintf("%s (sha256 %s)", p, h), nil
}

// buildIdentity records what was measured: toolchain, the PGO profile
// of each binary, the host's parallelism and the source revision. The
// benchmark refuses to run a simulator built without a profile, since
// users' bvsim is built with cmd/bvsim/default.pgo.
func buildIdentity(bvsimd string) ([]string, error) {
	self, ok := debug.ReadBuildInfo()
	if !ok {
		return nil, fmt.Errorf("no build information in this binary")
	}
	if pgoOf(self) == "" {
		return nil, fmt.Errorf("built without a PGO profile; build with perfbench/run.sh, which uses cmd/bvsim/default.pgo")
	}
	selfPGO, err := describePGO(self)
	if err != nil {
		return nil, err
	}
	lines := []string{
		fmt.Sprintf("build: %s, nproc %d, GOMAXPROCS %d, git %s", runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), gitSHA()),
		"pgo perfbench: " + selfPGO,
	}
	if bvsimd != "" {
		bi, err := buildinfo.ReadFile(bvsimd)
		if err != nil {
			return nil, fmt.Errorf("read bvsimd build info: %w", err)
		}
		d, err := describePGO(bi)
		if err != nil {
			return nil, err
		}
		lines = append(lines, "pgo bvsimd (and its workers): "+d)
	}
	return lines, nil
}

// gitSHA is the checkout's revision, or "unknown" outside a git work tree.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// peakRSSMB is this process's peak resident set (VmHWM), in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
