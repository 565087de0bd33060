package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"basevictim/internal/cliexit"
)

// writeReport writes a snapshot whose throughput entries are the given
// org -> MIPS pairs on soplex.p1.
func writeReport(t *testing.T, dir, name string, mips map[string]float64) string {
	t.Helper()
	rep := report{Throughput: []throughputStat{}}
	for _, org := range []string{"uncompressed", "basevictim", "decode-batch"} {
		if m, ok := mips[org]; ok {
			rep.Throughput = append(rep.Throughput, throughputStat{Trace: "soplex.p1", Org: org, MIPS: m})
		}
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareSnapshotsGate(t *testing.T) {
	base := map[string]float64{"uncompressed": 5, "basevictim": 4, "decode-batch": 80}
	for _, tc := range []struct {
		name string
		new  map[string]float64 // nil: the new snapshot path does not exist
		want int
	}{
		{"within bound", map[string]float64{"uncompressed": 4.6, "basevictim": 4.4, "decode-batch": 75}, cliexit.OK},
		{"regression past max-regress", map[string]float64{"uncompressed": 5, "basevictim": 3, "decode-batch": 80}, cliexit.Gate},
		{"missing entry", map[string]float64{"uncompressed": 5, "decode-batch": 80}, cliexit.Gate},
		{"no entries", map[string]float64{}, cliexit.Gate},
		{"unreadable snapshot", nil, cliexit.Failure},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			oldPath := writeReport(t, dir, "old.json", base)
			newPath := filepath.Join(dir, "missing.json")
			if tc.new != nil {
				newPath = writeReport(t, dir, "new.json", tc.new)
			}
			err := compareSnapshots(io.Discard, oldPath, newPath, 10)
			if got := cliexit.Code(err); got != tc.want {
				t.Fatalf("exit %d (err %v), want %d", got, err, tc.want)
			}
		})
	}
}
